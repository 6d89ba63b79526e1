// Command perfbench is the repository benchmark: cold certified-bracket
// solves through the library (maximize-dense) and the psdpd serving
// layer (serve-solve: cold and warm requests; serve-hit: cache hits),
// each driven from one process.
//
//	bash perfbench/run.sh --workload maximize-dense --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics, writes its spans under --out and reports its own
// overhead against an untraced pass over the same kind of work. The
// line before it records the seed, GOMAXPROCS, nproc, the Go version,
// the sample count behind every timed metric and each operation type's
// median latency.
//
// Every timed operation is an item of fixed work (an operation type on
// one base instance) that a pass observes many times. Its latency is
// reported in reference units, divided by the time the benchmark's own
// reference kernel took next to it (see ref.go); each item's figure is
// the median of its observations. The info line keeps the latencies in
// ms: each type's median and its items' fastest times.
//
// End-to-end metrics, on every workload:
//
//	setup_s       median of three set-ups (build and present the
//	              instances, one unmeasured solve of each; boot and prime
//	              the server)
//	ops_per_kref  operations per thousand reference times (library:
//	              items ÷ the sum of their figures; serve: the closed-loop
//	              rate 2 clients ÷ mean figure, request classes weighted
//	              alike)
//	lat_ref       geometric mean over operation types of the median of
//	              their items' figures (serve: over request classes first)
//	gap_gmean     geometric mean of certified Upper/Lower − 1
//	ok_frac       share of operations whose every check passed
//	rss_peak_mb   peak resident set of the benchmark process
//
// Which layer metric should move which end-to-end metric, and where:
//
//	core.{mmw,alo}.iterations, core.decision_calls, core.*_s,
//	core.{mmw,alo}.iter_us_p50, expm.s
//	    → ops_per_kref, lat_ref on maximize-dense
//	eigen.sym_eigen_us, expm.normalized_exp_us, matrix.sym_mul_ab_us
//	    → maximize-dense
//	expm.expmv_us, eigen.lanczos_max_us, sparse.quad_forms_us,
//	sparse.accumulate_scaled_us, sketch.rows_over_m
//	    → serve-solve (its sparse and factored requests); predicted no
//	      move on maximize-dense
//	instio.decode_ms, serve.digest_ms
//	    → lat_ref, ops_per_kref on serve-hit; no move on maximize-dense
//	serve.queue_wait_ms_*, serve.solve_ms_p50, store.hit_ratio,
//	serve.warm_frac, serve.iterations, serve.rejected
//	    → lat_ref, ops_per_kref on serve-solve
//
// The probes (the *_us and *_ms layer metrics) time one public function
// at the workload's own shapes; every traced run reports all of them,
// and a layer metric the workload has no source for reads 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRuns is how many times set-up runs; setup_s is their median and
// the measured phase uses the state of the last one.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run measured.
type report struct {
	attempted, failed int
	// problems holds the first few failure descriptions for stderr.
	problems []string
	e2e      map[string]metric
	layer    map[string]metric
	samples  map[string]int
	info     map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{},
		samples: map[string]int{}, info: map[string]any{}}
}

// bench is one workload's state after set-up.
type bench interface {
	// measure runs the workload's loop for at least d and records into
	// pass. With a non-nil tracer it records spans and solver telemetry.
	measure(d time.Duration, tr *tracer, pass *passStats)
	// e2e turns an untraced pass into the end-to-end metrics.
	e2e(pass *passStats, r *report)
	// layers fills the per-layer metrics from a traced pass, its spans
	// and the workload's probes.
	layers(pass *passStats, self map[string]float64, tr *tracer, r *report) error
	// overheadPct compares the traced pass to the untraced one.
	overheadPct(untraced, traced *passStats) float64
	close()
}

// passStats is what one measured pass saw.
type passStats struct {
	attempted, failed, ok int
	// iterations sums the solver iterations behind the library calls.
	iterations int
	wall       time.Duration
	// samples holds per-operation latencies in ms, rel the same in
	// reference units (see ref.go) and gaps the certified Upper/Lower − 1
	// of each bracket returned, by item; refMS holds the reference times.
	samples, rel, gaps map[itemKey][]float64
	refMS              []float64
	problems           []string
	// rounds and lib are the library loop's (lib only when traced);
	// libraryChecks and server the serving loop's.
	rounds        int
	lib           *libTrace
	libraryChecks int
	server        *serverLayers
}

// itemKey names one item of a workload: an operation type and the base
// instance it ran on.
type itemKey struct {
	typ  string
	base int
}

func newPass() *passStats {
	return &passStats{samples: map[itemKey][]float64{}, rel: map[itemKey][]float64{}, gaps: map[itemKey][]float64{}}
}

func (p *passStats) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each name to its set-up function.
var workloads = map[string]func(seed uint64) (bench, error){
	"maximize-dense": setupDense,
	"serve-solve":    func(seed uint64) (bench, error) { return setupServe(false, seed) },
	"serve-hit":      func(seed uint64) (bench, error) { return setupServe(true, seed) },
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()
	setup, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", names)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	r, err := run(setup, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	info := map[string]any{
		"workload": *workload, "seed": *seed, "trace": *traceFlag,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"samples": r.samples,
	}
	for k, v := range r.info {
		info[k] = v
	}
	metrics := r.e2e
	if *traceFlag == 1 {
		metrics = r.layer
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	}); err != nil {
		os.Exit(1)
	}
}

// run sets the workload up setupRuns times, measures, and fills the
// report.
func run(setup func(uint64) (bench, error), name string, seed uint64, d time.Duration, traced bool, outDir string) (*report, error) {
	r := newReport()
	var b bench
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.samples["setup_s"] = len(setups)

	if !traced {
		pass := newPass()
		b.measure(d, nil, pass)
		r.absorb(pass)
		b.e2e(pass, r)
		r.e2e["ok_frac"] = metric{okFrac(r), "ratio"}
		r.e2e["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
		return r, nil
	}

	untraced := newPass()
	b.measure(d/2, nil, untraced)
	r.absorb(untraced)
	tr := newTracer()
	tracedPass := newPass()
	b.measure(d/2, tr, tracedPass)
	r.absorb(tracedPass)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := b.layers(tracedPass, selfTimes(tr.snapshot()), tr, r); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	self, err := tr.write(path, name, seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	r.info["trace_file"] = path
	r.info["self_s_by_layer"] = self
	r.layer["trace.overhead_pct"] = metric{b.overheadPct(untraced, tracedPass), "%"}
	r.info["trace_spans"] = tr.len()
	fillLayers(r)
	return r, nil
}

// absorb adds a pass's outcome counts to the report.
func (r *report) absorb(p *passStats) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, s := range p.problems {
		if len(r.problems) < 10 {
			r.problems = append(r.problems, s)
		}
	}
}

func okFrac(r *report) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// itemMedians takes each item's median over its observations and
// groups them by operation type.
func itemMedians(m map[itemKey][]float64) map[string][]float64 {
	return perItem(m, median)
}

// itemMins takes each item's fastest observation and groups them by
// operation type: for a computation whose work is fixed, its run on
// the least contended machine.
func itemMins(m map[itemKey][]float64) map[string][]float64 {
	return perItem(m, func(xs []float64) float64 {
		v, _ := percentile(xs, 0)
		return v
	})
}

func perItem(m map[itemKey][]float64, stat func([]float64) float64) map[string][]float64 {
	out := map[string][]float64{}
	for k, xs := range m {
		if len(xs) > 0 {
			out[k.typ] = append(out[k.typ], stat(xs))
		}
	}
	return out
}

func flatten(m map[string][]float64) []float64 {
	var all []float64
	for _, xs := range m {
		all = append(all, xs...)
	}
	return all
}

func sumSamples(m map[itemKey][]float64) float64 {
	sum := 0.0
	for _, xs := range m {
		for _, x := range xs {
			sum += x
		}
	}
	return sum
}

// typeMedianGmean is the geometric mean over operation types of each
// type's median: a mix-independent figure when types differ in cost by
// large factors.
func typeMedianGmean(byType map[string][]float64) float64 {
	var meds []float64
	for _, xs := range byType {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return gmean(meds)
}

// latencyInfo records in info each type's median latency in ms and in
// reference units, the median of its items' fastest times and its
// sample count; the highest percentile of all latencies that has ten
// samples beyond it; and the reference kernel's median and fastest
// time.
func latencyInfo(pass *passStats, info map[string]any) {
	byType := map[string][]float64{}
	for k, xs := range pass.samples {
		byType[k.typ] = append(byType[k.typ], xs...)
	}
	best, rel := itemMins(pass.samples), itemMedians(pass.rel)
	out := map[string]any{}
	for typ, xs := range byType {
		out[typ] = map[string]any{"p50_ms": median(xs), "best_ms": median(best[typ]),
			"p50_ref": median(rel[typ]), "samples": len(xs)}
	}
	if v, _ := percentile(pass.refMS, 0); len(pass.refMS) > 0 {
		info["ref_ms"] = map[string]any{"p50": median(pass.refMS), "best": v, "samples": len(pass.refMS)}
	}
	info["lat_by_type"] = out
	if pct, v, ok := tailPercentile(flatten(byType)); ok {
		info["lat_ms_tail"] = map[string]any{"percentile": pct, "value": v, "samples": len(flatten(byType))}
	}
}
