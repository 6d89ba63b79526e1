package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	psdp "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instio"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// Serve workloads: a fresh psdpd serve.Server on a loopback listener,
// driven closed-loop by serveClients clients that each wait for their
// reply.
//
//   - serve-solve sends the two classes that run the solver: cold
//     requests (unique small /v1/maximize, /v1/decision and /v1/mixed
//     over dense, sparse and factored instances; store writes) and warm
//     requests (/v1/delta drifts of sparse bases solved during set-up;
//     revision reads and warm-started solves), three cold to one warm.
//   - serve-hit sends re-POSTs of large dense /v1/decision bodies primed
//     into the result cache during set-up (decode, digest, store reads).
//
// Latencies are summarized per class and the classes weigh the same in
// every figure, however many requests of each a cycle holds.

const (
	serveClients = 2
	coldEps      = 0.3
	coldEngine   = "mmw"
	// Cold shapes (n constraints, matrix dimension m).
	coldDenseN, coldDenseM, coldRank = 6, 8, 3
	coldSparseGroups, coldSparseV    = 4, 8
	coldFactN, coldFactM             = 4, 8
	// coldCheckEvery: a cold answer is compared with a direct library
	// call when a seeded hash of its index is 0 modulo this, up to
	// coldCheckMax answers a pass.
	coldCheckEvery, coldCheckMax = 12, 8
	// Mixed covering rows demand coverDemand at a packing point with
	// λ_max = coverLambda.
	coverDemand, coverLambda = 1.1, 0.95
	// Hit bodies: dense instances of hitN constraints of hitM×hitM,
	// about 2.8 MB of JSON each.
	hitBodies, hitN, hitM, hitRank = 6, 60, 48, 4
	// Warm: warmBases sparse bases of warmGroups constraints over
	// ER(warmV); each delta rescales warmFrac of them by up to warmDrift.
	warmBases, warmGroups, warmV = 4, 6, 14
	warmEps, warmFrac, warmDrift = 0.25, 0.5, 0.1
	// A serve-solve cycle holds one warm request per warmEvery.
	warmEvery = 4
)

// coldKinds × coldReps are the cold request types.
var (
	coldKinds  = []string{"maximize", "decision", "mixed"}
	coldReps   = []string{"dense", "sparse", "factored"}
	coldCycle  = len(coldKinds) * len(coldReps)
	solveCycle = coldCycle * warmEvery / (warmEvery - 1)
)

type serveBench struct {
	hit    bool
	seed   uint64
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client

	// next is each client's request counter; it carries across passes so
	// cold requests stay unique.
	next [serveClients]int
	// coldPool[c] holds client c's first cycle of cold requests.
	coldPool [serveClients][]coldReq
	// hit: the primed bodies and the answer each first received.
	hitBody, hitWant [][]byte
	// warm: base digests, the scale each was solved at, and where each
	// base constraint sits in the presented base.
	bases     []string
	baseScale []float64
	basePos   [][]int
	// codec bodies for the decode/digest probes; shapes for kernel probes.
	codec  []codecCase
	shapes []psdp.ConstraintSet
}

// coldReq is one generated cold request.
type coldReq struct {
	kind, typ string
	body      []byte
	// item is the index of its base instance.
	item int
}

func setupServe(hit bool, seed uint64) (bench, error) {
	srv := serve.New(serve.Config{Workers: serveClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	b := &serveBench{hit: hit, seed: seed, srv: srv, done: make(chan struct{}),
		url: "http://" + ln.Addr().String(),
		hs:  &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}}
	b.client = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	go func() {
		defer close(b.done)
		if err := b.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http server: %v\n", err)
		}
	}()
	if hit {
		err = b.setupHit()
	} else if err = b.setupCold(); err == nil {
		err = b.setupWarm()
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // a failed shutdown leaves nothing to clean up but the pool below
	<-b.done
	b.srv.Close()
	b.client.CloseIdleConnections()
}

// post sends one request and returns status, headers and body.
func (b *serveBench) post(path, reqID string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

func (b *serveBench) get(path string) ([]byte, error) {
	resp, err := b.client.Get(b.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// ---- cold ----

// makeColdReq builds client c's k-th cold request.
func makeColdReq(seed uint64, c, k int) (coldReq, error) {
	kind := coldKinds[k%len(coldKinds)]
	rep := coldReps[(k/len(coldKinds))%len(coldReps)]
	// Every cold type has one base instance, which all clients share;
	// its presentation is new for every request, so no two bodies share
	// a digest.
	rng := rand.New(rand.NewPCG(baseSeed^0xc01d, uint64(k%coldCycle)))
	base, err := coldInstance(rep, rng)
	if err != nil {
		return coldReq{}, err
	}
	show := rand.New(rand.NewPCG(seed^0xc01d, uint64(c)<<40|uint64(k)))
	p, err := present(base, show)
	if err != nil {
		return coldReq{}, err
	}
	set := p.set
	doc, err := documentOf(set)
	if err != nil {
		return coldReq{}, err
	}
	if kind == "mixed" {
		cov, err := coverAround(base, rng)
		if err != nil {
			return coldReq{}, err
		}
		prob, err := psdp.NewMixedProblem(set, permuteCover(cov, p.perm, show))
		if err != nil {
			return coldReq{}, err
		}
		if doc, err = instio.FromMixedProblem(prob); err != nil {
			return coldReq{}, err
		}
	}
	req := serve.Request{Instance: doc, Eps: coldEps, Seed: show.Uint64() >> 12, Engine: coldEngine, Oracle: oracleFor(rep)}
	if kind == "decision" {
		// The threshold Maximize's first decision call would test: the
		// geometric mean of the trace bracket on OPT.
		req.Scale = firstTheta(set)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return coldReq{}, err
	}
	return coldReq{kind: kind, typ: kind + "/" + rep, body: body, item: k % coldCycle}, nil
}

// oracleFor is the oracle requests on rep ask for. Sparse and factored
// requests ask for the exact operator oracle, so the work of a request
// is fixed by its base instance: the default (sketched) oracle's draws
// follow the request seed and the presentation, which moved the
// iterations one sparse decision took up to ninefold, and its upper
// bound carries a (1+εₛ)/(1−εₛ) margin that can stall Maximize's search
// above the requested ε, which the bracket check counts as a failure.
func oracleFor(rep string) string {
	if rep == "dense" {
		return ""
	}
	return "exact"
}

// firstTheta is √(lo·hi) for the trace bracket lo = 1/min Tr Aᵢ,
// hi = Σ m/Tr Aᵢ on the packing optimum.
func firstTheta(set psdp.ConstraintSet) float64 {
	minTr, hi := math.Inf(1), 0.0
	for i := 0; i < set.N(); i++ {
		minTr = math.Min(minTr, set.Trace(i))
		hi += float64(set.Dim()) / set.Trace(i)
	}
	return math.Sqrt(hi / minTr)
}

func coldInstance(rep string, rng *rand.Rand) (psdp.ConstraintSet, error) {
	switch rep {
	case "dense":
		return psdp.NewDenseSet(gen.RandomDense(coldDenseN, coldDenseM, coldRank, rng).A)
	case "sparse":
		return sparseInstance(coldSparseGroups, coldSparseV, rng)
	default:
		f, err := gen.RandomFactored(coldFactN, coldFactM, 2, 3, rng)
		if err != nil {
			return nil, err
		}
		return psdp.NewFactoredSet(f.Q)
	}
}

// sparseInstance draws grouped Laplacians over ER(v) with enough edges.
func sparseInstance(groups, v int, rng *rand.Rand) (*psdp.SparseSet, error) {
	for {
		g := graph.ErdosRenyi(v, 0.4, rng)
		if g.M() < 2*groups {
			continue
		}
		s, err := gen.SparseGroupedLaplacians(g, groups, rng)
		if err != nil {
			return nil, err
		}
		return psdp.NewSparseSet(s.A)
	}
}

func documentOf(set psdp.ConstraintSet) (*instio.Instance, error) {
	switch s := set.(type) {
	case *psdp.DenseSet:
		return instio.FromDenseSet(s), nil
	case *psdp.SparseSet:
		return instio.FromSparseSet(s), nil
	case *psdp.FactoredSet:
		return instio.FromFactoredSet(s), nil
	}
	return nil, fmt.Errorf("no document form for %T", set)
}

// coverAround builds covering rows around a packing point xs on the
// boundary of the packing side: xs ∝ 1/Tr Aᵢ, rescaled so that
// λ_max(Σ xsᵢAᵢ) = coverLambda, with every row demanding coverDemand
// at xs. The instance is bicriteria-feasible but not by a wide margin.
func coverAround(set psdp.ConstraintSet, rng *rand.Rand) (*matrix.Dense, error) {
	n := set.N()
	xs := coldStart(set)
	cert, err := psdp.VerifyDual(set, xs, 0)
	if err != nil {
		return nil, err
	}
	matrix.VecScale(xs, coverLambda/cert.LambdaMax, xs)
	rows := max(2, n/2)
	cov := matrix.New(rows, n)
	for j := 0; j < rows; j++ {
		row := cov.Row(j)
		for i := range row {
			if rng.Float64() < 0.6 {
				row[i] = 0.5 + rng.Float64()
			}
		}
		row[rng.IntN(n)] = 0.5 + rng.Float64()
		matrix.VecScale(row, coverDemand/matrix.VecDot(row, xs), row)
	}
	return cov, nil
}

func (b *serveBench) setupCold() error {
	for c := 0; c < serveClients; c++ {
		for k := 0; k < coldCycle; k++ {
			q, err := makeColdReq(b.seed, c, k)
			if err != nil {
				return err
			}
			b.coldPool[c] = append(b.coldPool[c], q)
		}
	}
	// One request of every type, outside the measured sequence, warms
	// the workers' workspaces; the same requests feed the probes, with
	// the maximize requests' sets as the kernel shapes.
	for k := 0; k < len(coldKinds)*len(coldReps); k++ {
		q, err := makeColdReq(b.seed, serveClients, k)
		if err != nil {
			return err
		}
		status, _, body, err := b.post("/v1/"+q.kind, "", q.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %v %s", q.typ, status, err, body)
		}
		b.codec = append(b.codec, codecCase{kind: q.kind, body: q.body})
		if q.kind == "maximize" {
			req, err := decodeRequest(q.body)
			if err != nil {
				return err
			}
			set, err := instio.Build(req.Instance)
			if err != nil {
				return err
			}
			b.shapes = append(b.shapes, set)
		}
	}
	return nil
}

func (b *serveBench) coldAt(c, k int) (coldReq, error) {
	if k < len(b.coldPool[c]) {
		return b.coldPool[c][k], nil
	}
	return makeColdReq(b.seed, c, k)
}

// coldCheck is a sampled cold answer kept for the library comparison.
type coldCheck struct {
	q    coldReq
	resp []byte
}

// libraryAnswer solves a cold request by calling the library directly
// and encodes the answer the way the server does.
func libraryAnswer(q coldReq) ([]byte, error) {
	req, err := decodeRequest(q.body)
	if err != nil {
		return nil, err
	}
	engine, err := psdp.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	oracle := psdp.OracleAuto
	if req.Oracle == "exact" {
		oracle = psdp.OracleFactoredExact
	}
	var v any
	switch q.kind {
	case "mixed":
		prob, err := instio.BuildMixed(req.Instance)
		if err != nil {
			return nil, err
		}
		mr, err := psdp.SolveMixed(prob, req.Eps, psdp.MixedOptions{Seed: req.Seed, Engine: engine, Oracle: oracle})
		if err != nil {
			return nil, err
		}
		v = &serve.MixedResponse{Kind: "mixed", Eps: req.Eps, Status: mr.Status.String(), Engine: mr.Engine,
			Iterations: mr.Iterations, Capped: mr.Capped, WarmStarted: mr.WarmStarted,
			MinCoverage: serve.Num(mr.MinCoverage), LambdaMax: serve.Num(mr.LambdaMax), X: mr.X}
	case "maximize":
		set, err := instio.Build(req.Instance)
		if err != nil {
			return nil, err
		}
		sol, err := psdp.Maximize(set.WithScale(scaleOf(req)), req.Eps, psdp.Options{Seed: req.Seed, Engine: engine, Oracle: oracle})
		if err != nil {
			return nil, err
		}
		v = &serve.MaximizeResponse{Kind: "maximize", Eps: req.Eps, Value: serve.Num(sol.Value),
			Lower: serve.Num(sol.Lower), Upper: serve.Num(sol.Upper), RelativeGap: serve.Num(sol.Gap()),
			X: sol.X, DecisionCalls: sol.DecisionCalls, TotalIterations: sol.TotalIterations}
	default:
		set, err := instio.Build(req.Instance)
		if err != nil {
			return nil, err
		}
		dr, err := psdp.Decision(set.WithScale(scaleOf(req)), req.Eps, psdp.Options{Seed: req.Seed, Engine: engine, Oracle: oracle})
		if err != nil {
			return nil, err
		}
		gap := math.Inf(1)
		if dr.Lower > 0 {
			gap = dr.Upper/dr.Lower - 1
		}
		v = &serve.DecisionResponse{Kind: "decision", Eps: req.Eps, Outcome: dr.Outcome.String(),
			Iterations: dr.Iterations, Lower: serve.Num(dr.Lower), Upper: serve.Num(dr.Upper),
			RelativeGap: serve.Num(gap), X: dr.DualX, LambdaMaxPsi: serve.Num(dr.LambdaMaxPsi),
			MaxPsiNorm: serve.Num(dr.MaxPsiNorm)}
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// scaleOf is the request's constraint scale (0 means 1).
func scaleOf(req *serve.Request) float64 {
	if req.Scale == 0 {
		return 1
	}
	return req.Scale
}

// ---- hit ----

func (b *serveBench) setupHit() error {
	for h := 0; h < hitBodies; h++ {
		rng := rand.New(rand.NewPCG(b.seed^0x417, uint64(h)))
		set, err := psdp.NewDenseSet(gen.RandomDense(hitN, hitM, hitRank, rng).A)
		if err != nil {
			return err
		}
		// A scale that lifts the smallest constraint trace to 2m makes
		// the cold-start potential certify the primal side at once, so
		// priming costs one iteration.
		minTr := math.Inf(1)
		for i := 0; i < set.N(); i++ {
			minTr = math.Min(minTr, set.Trace(i))
		}
		req := serve.Request{Instance: instio.FromDenseSet(set), Eps: coldEps, Seed: uint64(h + 1),
			Scale: 2 * float64(hitM) / minTr, Engine: "mmw"}
		body, err := json.Marshal(&req)
		if err != nil {
			return err
		}
		status, hdr, resp, err := b.post("/v1/decision", "", body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("priming hit body %d: status %d: %v %s", h, status, err, resp)
		}
		if hdr.Get("X-Psdpd-Cache") != "miss" {
			return fmt.Errorf("priming hit body %d: cache %q, want miss", h, hdr.Get("X-Psdpd-Cache"))
		}
		b.hitBody = append(b.hitBody, body)
		b.hitWant = append(b.hitWant, resp)
		if h == 0 {
			b.codec = append(b.codec, codecCase{kind: "decision", body: body})
			b.shapes = append(b.shapes, set)
		}
	}
	return nil
}

// ---- warm ----

func (b *serveBench) setupWarm() error {
	for i := 0; i < warmBases; i++ {
		base, err := sparseInstance(warmGroups, warmV, rand.New(rand.NewPCG(baseSeed^0x3a53, uint64(i))))
		if err != nil {
			return err
		}
		p, err := present(base, rand.New(rand.NewPCG(b.seed^0x3a53, uint64(i))))
		if err != nil {
			return err
		}
		set := p.set.(*psdp.SparseSet)
		// Bases sit at Maximize's first threshold so the decision does
		// real work; every delta keeps the base's scale.
		theta := firstTheta(set)
		body, err := json.Marshal(&serve.Request{Instance: instio.FromSparseSet(set), Eps: warmEps, Seed: 1, Scale: theta,
			Oracle: oracleFor("sparse")})
		if err != nil {
			return err
		}
		status, hdr, resp, err := b.post("/v1/decision", "", body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("solving warm base %d: status %d: %v %s", i, status, err, resp)
		}
		d := hdr.Get("X-Psdpd-Digest")
		if d == "" {
			return fmt.Errorf("warm base %d: no X-Psdpd-Digest", i)
		}
		pos := make([]int, len(p.perm))
		for k, j := range p.perm {
			pos[j] = k
		}
		b.bases = append(b.bases, d)
		b.baseScale = append(b.baseScale, theta)
		b.basePos = append(b.basePos, pos)
		if i == 0 {
			b.codec = append(b.codec, codecCase{kind: "decision", body: body})
			b.shapes = append(b.shapes, set)
		}
	}
	return nil
}

// warmBase is the base client c's k-th delta drifts; each client cycles
// through its share of the bases.
func (b *serveBench) warmBase(c, k int) int { return (c + k*serveClients) % len(b.bases) }

// warmBody builds client c's k-th delta of base. Every delta of a base
// applies the same drift to the same base constraints, so its work is
// fixed; its own request seed gives it its own content address.
func (b *serveBench) warmBody(c, k, base int) ([]byte, error) {
	rng := rand.New(rand.NewPCG(baseSeed^0xd21f, uint64(base)))
	idx, by := gen.DriftScales(warmGroups, warmFrac, warmDrift, rng)
	scales := make([]instio.DeltaScale, len(idx))
	for i := range idx {
		scales[i] = instio.DeltaScale{I: b.basePos[base][idx[i]], By: by[i]}
	}
	doc := &instio.Instance{Delta: &instio.Delta{Base: b.bases[base], Scale: scales}}
	return json.Marshal(&serve.Request{Instance: doc, Eps: warmEps, Seed: 2 + uint64(c)<<32 + uint64(k),
		Scale: b.baseScale[base], Oracle: oracleFor("sparse")})
}

// ---- measured loop ----

// serveOp is one request a client sends.
type serveOp struct {
	path string
	key  itemKey
	body []byte
	// want is the exact answer expected (hit class), if any.
	want []byte
	cold *coldReq
}

// op is client c's k-th request. A serve-solve cycle interleaves
// coldCycle cold requests with one warm request after every
// warmEvery-1 cold ones.
func (b *serveBench) op(c, k int) (serveOp, error) {
	if b.hit {
		h := (c + k*serveClients) % len(b.hitBody)
		return serveOp{path: "/v1/decision", key: itemKey{"hit", h}, body: b.hitBody[h], want: b.hitWant[h]}, nil
	}
	n, j := k/solveCycle, k%solveCycle
	if j%warmEvery == warmEvery-1 {
		w := n*(solveCycle-coldCycle) + j/warmEvery
		base := b.warmBase(c, w)
		body, err := b.warmBody(c, w, base)
		return serveOp{path: "/v1/delta", key: itemKey{"warm", base}, body: body}, err
	}
	q, err := b.coldAt(c, n*coldCycle+j-(j+1)/warmEvery)
	if err != nil {
		return serveOp{}, err
	}
	return serveOp{path: "/v1/" + q.kind, key: itemKey{q.typ, q.item}, body: q.body, cold: &q}, nil
}

// cycleLen is the number of requests in a client's cycle: one of every
// item it cycles through.
func (b *serveBench) cycleLen() int {
	if b.hit {
		return len(b.hitBody) / serveClients
	}
	return solveCycle
}

// clientResult is what one client saw in a pass.
type clientResult struct {
	samples  map[itemKey][]float64
	rel      map[itemKey][]float64
	gaps     map[itemKey][]float64
	refMS    []float64
	ok, sent int
	problems []string
	failed   int
	checks   []coldCheck
}

func (cr *clientResult) fail(format string, args ...any) {
	cr.failed++
	if len(cr.problems) < 10 {
		cr.problems = append(cr.problems, fmt.Sprintf(format, args...))
	}
}

// wantCheck reports whether cold answer (c, k) is in the seeded sample.
func wantCheck(seed uint64, c, k int) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", seed, c, k)
	return h.Sum64()%coldCheckEvery == 0
}

func (b *serveBench) measure(d time.Duration, tr *tracer, pass *passStats) {
	before, beforeErr := b.scrape()
	t0 := time.Now()
	results := make([]clientResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = b.client1(c, t0, d, tr)
		}(c)
	}
	wg.Wait()
	pass.wall = time.Since(t0)
	var checks []coldCheck
	for _, cr := range results {
		pass.attempted += cr.sent
		pass.ok += cr.ok
		for k, xs := range cr.samples {
			pass.samples[k] = append(pass.samples[k], xs...)
		}
		for k, xs := range cr.rel {
			pass.rel[k] = append(pass.rel[k], xs...)
		}
		pass.refMS = append(pass.refMS, cr.refMS...)
		for k, xs := range cr.gaps {
			pass.gaps[k] = append(pass.gaps[k], xs...)
		}
		pass.failed += cr.failed
		pass.problems = append(pass.problems, cr.problems...)
		checks = append(checks, cr.checks...)
	}
	// The sampled cold answers are re-derived by direct library calls
	// after the clock stops.
	if len(checks) > coldCheckMax {
		checks = checks[:coldCheckMax]
	}
	for _, ck := range checks {
		want, err := libraryAnswer(ck.q)
		switch {
		case err != nil:
			pass.fail("library call for %s: %v", ck.q.typ, err)
		case !bytes.Equal(want, ck.resp):
			pass.fail("%s answer differs from the direct library call", ck.q.typ)
		}
	}
	pass.libraryChecks = len(checks)
	after, afterErr := b.scrape()
	if err := errors.Join(beforeErr, afterErr); err != nil {
		pass.fail("scraping server telemetry: %v", err)
		return
	}
	l := serverDelta(before, after)
	pass.server = &l
}

// client1 is one closed-loop client: it sends whole cycles of requests
// until d has passed since t0, so it observes every item equally often.
func (b *serveBench) client1(c int, t0 time.Time, d time.Duration, tr *tracer) clientResult {
	cr := clientResult{samples: map[itemKey][]float64{}, rel: map[itemKey][]float64{}, gaps: map[itemKey][]float64{}}
	rc := newRefClock()
	cycle := b.cycleLen()
	for first := true; first || time.Since(t0) < d; first = false {
		for i := 0; i < cycle; i++ {
			k := b.next[c]
			b.next[c]++
			o, err := b.op(c, k)
			cr.sent++
			if err != nil {
				cr.fail("building request %d/%d: %v", c, k, err)
				continue
			}
			reqID := fmt.Sprintf("pb-%d-%d-%d", b.seed, c, k)
			s := time.Now()
			status, hdr, body, err := b.post(o.path, reqID, o.body)
			e := time.Now()
			tr.add(0, "POST "+o.path+" "+o.key.typ, "serve", reqID, s, e)
			if err != nil {
				cr.fail("%s %s: %v", o.path, reqID, err)
				continue
			}
			if err := b.checkResponse(o, status, hdr, body, reqID, &cr); err != nil {
				cr.fail("%s %s: %v", o.path, reqID, err)
				continue
			}
			cr.ok++
			ms := float64(e.Sub(s).Nanoseconds()) / 1e6
			cr.samples[o.key] = append(cr.samples[o.key], ms)
			cr.rel[o.key] = append(cr.rel[o.key], rc.ratio(ms))
			if o.cold != nil && wantCheck(b.seed, c, k) {
				cr.checks = append(cr.checks, coldCheck{q: *o.cold, resp: body})
			}
		}
	}
	cr.refMS = rc.times
	return cr
}

// checkResponse applies the per-class correctness checks and collects
// the certified gap of decision and maximize answers.
func (b *serveBench) checkResponse(o serveOp, status int, hdr http.Header, body []byte, reqID string, cr *clientResult) error {
	if status/100 != 2 {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if got := hdr.Get("X-Request-Id"); got != reqID {
		return fmt.Errorf("X-Request-Id %q, want %q", got, reqID)
	}
	cache := hdr.Get("X-Psdpd-Cache")
	switch {
	case o.want != nil && !bytes.Equal(body, o.want):
		return errors.New("hit body differs from the first answer for its digest")
	case o.want != nil && cache != "hit":
		return fmt.Errorf("cache %q, want hit", cache)
	case o.want == nil && cache != "miss":
		return fmt.Errorf("cache %q, want miss", cache)
	}
	var a struct {
		Kind        string    `json:"kind"`
		Lower       serve.Num `json:"lower"`
		Upper       serve.Num `json:"upper"`
		RelativeGap serve.Num `json:"relativeGap"`
		Eps         float64   `json:"eps"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if a.Kind == "mixed" {
		return nil
	}
	if !(a.Lower > 0 && a.Lower <= a.Upper) {
		return fmt.Errorf("bracket [%g, %g] is not ordered", a.Lower, a.Upper)
	}
	if a.Kind == "maximize" && float64(a.RelativeGap) > a.Eps {
		return fmt.Errorf("gap %g exceeds eps %g", a.RelativeGap, a.Eps)
	}
	if g := float64(a.RelativeGap); !math.IsInf(g, 0) && !math.IsNaN(g) {
		cr.gaps[o.key] = append(cr.gaps[o.key], g)
	}
	return nil
}

// ---- server telemetry ----

// serverScrape is one reading of /metrics and /statsz.
type serverScrape struct {
	queueWait, solve histogram
	counters         map[string]float64
	stats            serve.StatsResponse
}

var scrapedCounters = []string{"psdpd_cache_hits_total", "psdpd_cache_misses_total",
	"psdpd_solver_iterations_total", "psdpd_rejected_total", "psdpd_solves_total"}

func (b *serveBench) scrape() (serverScrape, error) {
	var s serverScrape
	text, err := b.get("/metrics")
	if err != nil {
		return s, err
	}
	if s.queueWait, err = parseHistograms(bytes.NewReader(text), "psdpd_queue_wait_seconds"); err != nil {
		return s, err
	}
	if s.solve, err = parseHistograms(bytes.NewReader(text), "psdpd_solve_seconds"); err != nil {
		return s, err
	}
	s.counters = map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		for _, name := range scrapedCounters {
			if rest, ok := strings.CutPrefix(line, name); ok && (strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "{")) {
				f := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
				if len(f) > 0 {
					v, err := strconv.ParseFloat(f[0], 64)
					if err != nil {
						return s, fmt.Errorf("counter %s: %w", name, err)
					}
					s.counters[name] += v
				}
			}
		}
	}
	raw, err := b.get("/statsz")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(raw, &s.stats)
}

// serverLayers are the per-layer numbers read as deltas of the server's
// own telemetry over one pass.
type serverLayers struct {
	queueP50, queueP90, solveP50           float64
	queueN, solveN                         float64
	hitRatio, warmFrac, itersPerSolve, rej float64
}

func serverDelta(before, after serverScrape) serverLayers {
	var l serverLayers
	if qw, err := after.queueWait.sub(before.queueWait); err == nil {
		l.queueP50, l.queueP90, l.queueN = qw.quantile(0.5)*1e3, qw.quantile(0.9)*1e3, qw.count()
	}
	if sv, err := after.solve.sub(before.solve); err == nil {
		l.solveP50, l.solveN = sv.quantile(0.5)*1e3, sv.count()
	}
	dc := func(name string) float64 { return after.counters[name] - before.counters[name] }
	if h, m := dc("psdpd_cache_hits_total"), dc("psdpd_cache_misses_total"); h+m > 0 {
		l.hitRatio = h / (h + m)
	}
	if dr := after.stats.DeltaRequests - before.stats.DeltaRequests; dr > 0 {
		l.warmFrac = float64(after.stats.WarmStarts-before.stats.WarmStarts) / float64(dr)
	}
	if sv := dc("psdpd_solves_total"); sv > 0 {
		l.itersPerSolve = dc("psdpd_solver_iterations_total") / sv
	}
	l.rej = dc("psdpd_rejected_total")
	return l
}

// classOf maps an item type to its request class.
func classOf(typ string) string {
	if typ == "hit" || typ == "warm" {
		return typ
	}
	return "cold"
}

// byClass splits per-type item figures by request class.
func byClass(byType map[string][]float64) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for typ, xs := range byType {
		c := classOf(typ)
		if out[c] == nil {
			out[c] = map[string][]float64{}
		}
		out[c][typ] = xs
	}
	return out
}

// classLatency is the geometric mean over classes of each class's
// figure: the geometric mean over its types of the median of their
// items' medians, in reference units.
func classLatency(pass *passStats) float64 {
	var ps []float64
	for _, types := range byClass(itemMedians(pass.rel)) {
		ps = append(ps, typeMedianGmean(types))
	}
	return gmean(ps)
}

// closedLoopRate is the throughput, per thousand reference times, that
// serveClients closed-loop clients get at the pass's latencies when
// every class has the same share of requests (Little's law: clients ÷
// mean latency, where a class's latency is the mean of its items'
// medians in reference units).
func closedLoopRate(pass *passStats) float64 {
	sum, n := 0.0, 0
	for _, types := range byClass(itemMedians(pass.rel)) {
		all := flatten(types)
		m := 0.0
		for _, x := range all {
			m += x
		}
		sum += m / float64(len(all))
		n++
	}
	if sum == 0 {
		return 0
	}
	return serveClients * 1e3 * float64(n) / sum
}

func (b *serveBench) e2e(pass *passStats, r *report) {
	r.e2e["ops_per_kref"] = metric{closedLoopRate(pass), "1/kref"}
	r.e2e["lat_ref"] = metric{classLatency(pass), "ref"}
	var gaps []float64
	for _, g := range byClass(itemMedians(pass.gaps)) {
		gaps = append(gaps, gmean(flatten(g)))
	}
	r.e2e["gap_gmean"] = metric{gmean(gaps), "ratio"}
	r.samples["ops_per_kref"], r.samples["lat_ref"] = pass.ok, pass.ok
	n := 0
	for _, xs := range pass.gaps {
		n += len(xs)
	}
	r.samples["gap_gmean"] = n
	r.info["ops_per_s_counted"] = float64(pass.ok) / pass.wall.Seconds()
	r.info["library_checks"] = pass.libraryChecks
	latencyInfo(pass, r.info)
}

func (b *serveBench) overheadPct(untraced, traced *passStats) float64 {
	u, t := closedLoopRate(untraced), closedLoopRate(traced)
	if t == 0 {
		return 0
	}
	return 100 * (u/t - 1)
}

func (b *serveBench) layers(pass *passStats, _ map[string]float64, tr *tracer, r *report) error {
	if l := pass.server; l != nil {
		r.layer["serve.queue_wait_ms_p50"] = metric{l.queueP50, "ms"}
		r.layer["serve.queue_wait_ms_p90"] = metric{l.queueP90, "ms"}
		r.layer["serve.solve_ms_p50"] = metric{l.solveP50, "ms"}
		r.layer["store.hit_ratio"] = metric{l.hitRatio, "ratio"}
		r.layer["serve.warm_frac"] = metric{l.warmFrac, "ratio"}
		r.layer["serve.iterations"] = metric{l.itersPerSolve, "count"}
		r.layer["serve.rejected"] = metric{l.rej, "count"}
		r.samples["serve.queue_wait_ms_p50"] = int(l.queueN)
		r.samples["serve.solve_ms_p50"] = int(l.solveN)
	}
	if err := runProbes(b.shapes, tr, r); err != nil {
		return err
	}
	return codecProbes(b.codec, tr, r)
}
