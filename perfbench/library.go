package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	psdp "repro"
	"repro/internal/gen"
)

// Library workload: cold psdp.Maximize calls on dense sets, one item
// per type (engine × ε), each on its own fixed base instance. A round
// solves every item once, each presented afresh (see present.go). The
// loop runs whole rounds, at least minRounds and until the duration has
// passed, so every item is observed equally often and many times; the
// figures take each item's median in reference units first.

// Shapes. In this repository n counts constraints and m is the matrix
// dimension.
const (
	denseN, denseM, denseRank = 12, 16, 4
	// minRounds is the fewest rounds a pass runs.
	minRounds = 3
	// verifyTol is the feasibility slack VerifyDual allows.
	verifyTol = 1e-6
)

// itemType is one entry of the round.
type itemType struct {
	engine psdp.EngineKind
	eps    float64
}

func (t itemType) String() string { return fmt.Sprintf("dense/%s/%.1f", t.engine, t.eps) }

type libBench struct {
	seed  uint64
	types []itemType
	// ws is the workspace every call shares (all items have one shape).
	ws *psdp.Workspace
	// base holds each item's base instance; first holds round 0's
	// presentation of them.
	base, first []psdp.ConstraintSet
	round       int
	// lastStart and lastRounds are the rounds the last untraced pass
	// ran, which a traced pass replays.
	lastStart, lastRounds int
}

// setupDense builds the base instances and round 0's presentations, and
// warms the workspace with one unmeasured solve of every base instance.
func setupDense(seed uint64) (bench, error) {
	b := &libBench{seed: seed, ws: psdp.NewWorkspace()}
	for _, eps := range []float64{0.3, 0.2} {
		for _, e := range []psdp.EngineKind{psdp.EngineMMW, psdp.EngineALO} {
			b.types = append(b.types, itemType{e, eps})
		}
	}
	for i := range b.types {
		rng := rand.New(rand.NewPCG(baseSeed, uint64(i)))
		s, err := psdp.NewDenseSet(gen.RandomDense(denseN, denseM, denseRank, rng).A)
		if err != nil {
			return nil, err
		}
		b.base = append(b.base, s)
	}
	first, err := b.presentRound(0)
	if err != nil {
		return nil, err
	}
	b.first = first
	for i, t := range b.types {
		if _, err := psdp.Maximize(b.base[i], t.eps, psdp.Options{Engine: t.engine, Seed: seed, Workspace: b.ws}); err != nil {
			return nil, fmt.Errorf("warming %s: %w", t, err)
		}
	}
	return b, nil
}

// presentRound presents the base instances under symmetries drawn from
// (seed, r).
func (b *libBench) presentRound(r int) ([]psdp.ConstraintSet, error) {
	sets := make([]psdp.ConstraintSet, len(b.types))
	for i := range b.types {
		p, err := present(b.base[i], rand.New(rand.NewPCG(b.seed, uint64(r)<<8|uint64(i))))
		if err != nil {
			return nil, err
		}
		sets[i] = p.set
	}
	return sets, nil
}

func (b *libBench) instances(r int) ([]psdp.ConstraintSet, error) {
	if r == 0 {
		return b.first, nil
	}
	return b.presentRound(r)
}

// measure solves whole rounds until at least minRounds and d have
// passed. A traced pass replays the rounds of the preceding untraced
// pass (same instances, same seeds), so the two compare call for call.
func (b *libBench) measure(d time.Duration, tr *tracer, pass *passStats) {
	start, replay := b.round, 0
	if tr != nil {
		start, replay = b.lastStart, b.lastRounds
	}
	rc := newRefClock()
	t0 := time.Now()
	r := start
	for ; ; r++ {
		n := r - start
		if replay > 0 && n >= replay || replay == 0 && n >= minRounds && time.Since(t0) >= d {
			break
		}
		sets, err := b.instances(r)
		if err != nil {
			pass.attempted++
			pass.fail("round %d: %v", r, err)
			continue
		}
		for i, t := range b.types {
			b.solve(r, i, t, sets[i], tr, rc, pass)
		}
	}
	pass.wall = time.Since(t0)
	pass.refMS = rc.times
	if tr == nil {
		b.lastStart, b.lastRounds, b.round = start, r-start, r
	}
	pass.rounds = r - start
}

// solveTrace is the per-item telemetry a traced pass collects.
type solveTrace struct {
	tr     *tracer
	item   int
	ph     psdp.SolveStats
	snap   psdp.SolveStats
	callID int
	callT0 time.Time
	last   time.Time
	iterUS []float64
}

// onIteration marks decision-call boundaries (T restarts at 1) and
// records per-iteration wall times.
func (s *solveTrace) onIteration(info psdp.IterationInfo) bool {
	now := time.Now()
	if info.T == 1 {
		if s.callID != 0 {
			s.endCall(s.last)
		}
		s.callT0 = s.last
		s.callID = s.tr.reserve(s.item, "core.decision", "core")
	} else {
		s.iterUS = append(s.iterUS, float64(now.Sub(s.last).Nanoseconds())/1e3)
	}
	s.last = now
	return true
}

// endCall closes the open decision-call span at end and lays its phase
// totals (deltas of Options.Phases since the previous call) out as
// child spans from the call's start. The phases are sums over the
// call's iterations, so only their durations are meaningful; the first
// iteration of a call is counted with the call before it.
func (s *solveTrace) endCall(end time.Time) {
	s.tr.set(s.callID, s.callT0, end)
	d := psdp.SolveStats{
		OracleNS:   s.ph.OracleNS - s.snap.OracleNS,
		ExpmNS:     s.ph.ExpmNS - s.snap.ExpmNS,
		UpdateNS:   s.ph.UpdateNS - s.snap.UpdateNS,
		BookkeepNS: s.ph.BookkeepNS - s.snap.BookkeepNS,
	}
	s.snap = s.ph
	at := s.callT0
	oracle := s.tr.add(s.callID, "core.oracle", "core.oracle", "", at, at.Add(time.Duration(d.OracleNS)))
	s.tr.add(oracle, "expm", "expm", "", at, at.Add(time.Duration(d.ExpmNS)))
	at = at.Add(time.Duration(d.OracleNS))
	s.tr.add(s.callID, "core.update", "core.update", "", at, at.Add(time.Duration(d.UpdateNS)))
	at = at.Add(time.Duration(d.UpdateNS))
	s.tr.add(s.callID, "core.bookkeep", "core.bookkeep", "", at, at.Add(time.Duration(d.BookkeepNS)))
	s.callID = 0
}

// solve runs one cold Maximize, times it, and checks the bracket.
func (b *libBench) solve(round, slot int, t itemType, set psdp.ConstraintSet, tr *tracer, rc *refClock, pass *passStats) {
	pass.attempted++
	opts := psdp.Options{Engine: t.engine, Seed: b.seed ^ uint64(round)<<16, Workspace: b.ws}
	var st *solveTrace
	if tr != nil {
		st = &solveTrace{tr: tr, item: tr.reserve(0, "psdp.Maximize "+t.String(), "core")}
		opts.Phases = &st.ph
		opts.OnIteration = st.onIteration
	}
	t0 := time.Now()
	if st != nil {
		st.last = t0
	}
	sol, err := psdp.Maximize(set, t.eps, opts)
	t1 := time.Now()
	ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
	rel := rc.ratio(ms)
	if st != nil {
		if st.callID != 0 {
			st.endCall(st.last)
		}
		tr.set(st.item, t0, t1)
		recordTrace(t, sol, st, pass)
	}
	if err != nil {
		pass.fail("%s round %d: %v", t, round, err)
		return
	}
	pass.iterations += sol.TotalIterations
	key := itemKey{t.String(), slot}
	pass.samples[key] = append(pass.samples[key], ms)
	pass.rel[key] = append(pass.rel[key], rel)
	pass.gaps[key] = append(pass.gaps[key], sol.Gap())
	if err := checkBracket(set, t.eps, sol); err != nil {
		pass.fail("%s round %d: %v", t, round, err)
		return
	}
	pass.ok++
}

// checkBracket verifies a Maximize result: Lower ≤ Upper, a relative
// gap of at most ε, and a witness X that re-verifies as feasible with
// value at least Lower.
func checkBracket(set psdp.ConstraintSet, eps float64, sol *psdp.Solution) error {
	if !(sol.Lower > 0 && sol.Lower <= sol.Upper) {
		return fmt.Errorf("bracket [%g, %g] is not ordered", sol.Lower, sol.Upper)
	}
	if g := sol.Upper/sol.Lower - 1; g > eps {
		return fmt.Errorf("gap %g exceeds eps %g", g, eps)
	}
	cert, err := psdp.VerifyDual(set, sol.X, verifyTol)
	if err != nil {
		return fmt.Errorf("VerifyDual: %w", err)
	}
	if !cert.Feasible {
		return fmt.Errorf("witness infeasible: lambda_max %g", cert.LambdaMax)
	}
	if cert.Value < sol.Lower*(1-1e-9) {
		return fmt.Errorf("witness value %g below Lower %g", cert.Value, sol.Lower)
	}
	return nil
}

// libTrace accumulates the traced pass's solver telemetry.
type libTrace struct {
	iters, solves map[psdp.EngineKind]int
	iterUS        map[psdp.EngineKind][]float64
	calls         int
}

func recordTrace(t itemType, sol *psdp.Solution, st *solveTrace, pass *passStats) {
	lt := pass.lib
	if lt == nil {
		lt = &libTrace{iters: map[psdp.EngineKind]int{}, solves: map[psdp.EngineKind]int{},
			iterUS: map[psdp.EngineKind][]float64{}}
		pass.lib = lt
	}
	if sol != nil {
		lt.iters[t.engine] += sol.TotalIterations
		lt.solves[t.engine]++
		lt.calls += sol.DecisionCalls
	}
	lt.iterUS[t.engine] = append(lt.iterUS[t.engine], st.iterUS...)
}

func (b *libBench) e2e(pass *passStats, r *report) {
	rel := itemMedians(pass.rel)
	total, n := 0.0, 0
	for _, xs := range rel {
		for _, v := range xs {
			total += v
			n++
		}
	}
	if total > 0 {
		r.e2e["ops_per_kref"] = metric{1e3 * float64(n) / total, "1/kref"}
	}
	r.e2e["lat_ref"] = metric{typeMedianGmean(rel), "ref"}
	r.e2e["gap_gmean"] = metric{gmean(flatten(itemMedians(pass.gaps))), "ratio"}
	r.samples["ops_per_kref"], r.samples["lat_ref"], r.samples["gap_gmean"] = pass.ok, pass.ok, pass.ok
	r.info["rounds"] = pass.rounds
	r.info["items"] = n
	r.info["iterations"] = pass.iterations
	latencyInfo(pass, r.info)
}

// overheadPct compares the traced replay with the untraced pass over the
// same calls.
func (b *libBench) overheadPct(untraced, traced *passStats) float64 {
	u, t := sumSamples(untraced.samples), sumSamples(traced.samples)
	if u == 0 {
		return 0
	}
	return 100 * (t - u) / u
}

func (b *libBench) layers(pass *passStats, self map[string]float64, tr *tracer, r *report) error {
	lt := pass.lib
	if lt == nil {
		return fmt.Errorf("traced pass recorded no solves")
	}
	solves := 0
	for _, e := range []psdp.EngineKind{psdp.EngineMMW, psdp.EngineALO} {
		name := "core." + e.String()
		perSolve, p50 := 0.0, 0.0
		if n := lt.solves[e]; n > 0 {
			perSolve = float64(lt.iters[e]) / float64(n)
			p50 = median(lt.iterUS[e])
		}
		solves += lt.solves[e]
		r.layer[name+".iterations"] = metric{perSolve, "count"}
		r.layer[name+".iter_us_p50"] = metric{p50, "us"}
		r.samples[name+".iter_us_p50"] = len(lt.iterUS[e])
	}
	per := float64(max(solves, 1))
	r.layer["core.decision_calls"] = metric{float64(lt.calls) / per, "count"}
	for _, l := range []struct{ metric, layer string }{
		{"core.oracle_s", "core.oracle"}, {"expm.s", "expm"}, {"core.update_s", "core.update"},
		{"core.bookkeep_s", "core.bookkeep"}, {"core.other_s", "core"},
	} {
		r.layer[l.metric] = metric{self[l.layer] / per, "s"}
		r.samples[l.metric] = solves
	}
	// Every item has the same shape; Ψ is taken on round 0's first set.
	return runProbes(b.first[:1], tr, r)
}

func (b *libBench) close() {}
