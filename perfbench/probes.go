package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	psdp "repro"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/expm"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/sparse"
	"repro/internal/work"
)

// Layer probes time single public functions of the kernel layers at a
// workload's own shapes, with Ψ = Σ x⁰ᵢAᵢ taken at the solver's cold
// start x⁰ᵢ = 1/(n·Tr Aᵢ). They run only in traced runs.

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"core.mmw.iterations": "count", "core.alo.iterations": "count", "core.decision_calls": "count",
	"core.mmw.iter_us_p50": "us", "core.alo.iter_us_p50": "us",
	"core.oracle_s": "s", "expm.s": "s", "core.update_s": "s", "core.bookkeep_s": "s", "core.other_s": "s",
	"eigen.sym_eigen_us": "us", "eigen.sym_eigen_allocs": "count",
	"expm.normalized_exp_us": "us", "expm.normalized_exp_allocs": "count",
	"matrix.sym_mul_ab_us": "us", "matrix.sym_mul_ab_allocs": "count",
	"expm.expmv_us": "us", "expm.expmv_allocs": "count",
	"eigen.lanczos_max_us": "us", "eigen.lanczos_max_allocs": "count",
	"sparse.quad_forms_us": "us", "sparse.quad_forms_allocs": "count",
	"sparse.accumulate_scaled_us": "us", "sparse.accumulate_scaled_allocs": "count",
	"sketch.rows_over_m": "ratio",
	"instio.decode_ms":   "ms", "instio.decode_allocs": "count",
	"serve.digest_ms": "ms", "serve.digest_allocs": "count",
	"serve.queue_wait_ms_p50": "ms", "serve.queue_wait_ms_p90": "ms", "serve.solve_ms_p50": "ms",
	"store.hit_ratio": "ratio", "serve.warm_frac": "ratio", "serve.iterations": "count", "serve.rejected": "count",
	"trace.overhead_pct": "%",
}

// fillLayers adds every per-layer metric the run did not measure, as 0.
func fillLayers(r *report) {
	for name, unit := range layerUnits {
		if _, ok := r.layer[name]; !ok {
			r.layer[name] = metric{0, unit}
		}
	}
}

// probeBatches is the number of timed batches per probe; each batch
// runs long enough (probeBatch) for the clock to resolve it.
const (
	probeBatches = 15
	probeBatch   = 2 * time.Millisecond
)

// timeCall returns the median per-call time of f in microseconds over
// probeBatches batches, the number of calls timed, and f's allocations
// per call.
func timeCall(f func()) (us float64, calls int, allocs float64) {
	f()
	f()
	batch := 1
	for batch < 1<<20 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		if time.Since(t0) >= probeBatch {
			break
		}
		batch *= 2
	}
	per := make([]float64, probeBatches)
	for k := range per {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per[k] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(batch)
	}
	return median(per), probeBatches * batch, testing.AllocsPerRun(5, f)
}

// probeSums averages probe results over a workload's shapes.
type probeSums struct {
	us, allocs map[string]float64
	calls      map[string]int
	n          map[string]int
}

func newProbeSums() *probeSums {
	return &probeSums{us: map[string]float64{}, allocs: map[string]float64{}, calls: map[string]int{}, n: map[string]int{}}
}

// probe times f under the metric prefix name (e.g. "eigen.sym_eigen")
// and records a span of the layer around the measurement.
func (p *probeSums) probe(tr *tracer, name, layer string, f func()) {
	t0 := time.Now()
	us, calls, allocs := timeCall(f)
	tr.add(0, "probe "+name, layer, "", t0, time.Now())
	p.us[name] += us
	p.allocs[name] += allocs
	p.calls[name] += calls
	p.n[name]++
}

// emit writes the averaged results into the report; scale converts µs
// to the unit, which suffix names.
func (p *probeSums) emit(r *report, scale float64, suffix, unit string) {
	for name, sum := range p.us {
		n := float64(p.n[name])
		r.layer[name+suffix] = metric{sum / n * scale, unit}
		r.layer[name+"_allocs"] = metric{p.allocs[name] / n, "count"}
		r.samples[name+suffix] = p.calls[name]
	}
}

// coldStart returns x⁰ᵢ = 1/(n·Tr Aᵢ).
func coldStart(set psdp.ConstraintSet) []float64 {
	n := set.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / (float64(n) * set.Trace(i))
	}
	return x
}

// denseView returns the set as dense constraints.
func denseView(set psdp.ConstraintSet) (*psdp.DenseSet, error) {
	switch s := set.(type) {
	case *psdp.DenseSet:
		return s, nil
	case interface {
		Densify() (*psdp.DenseSet, error)
	}:
		return s.Densify()
	}
	return nil, fmt.Errorf("cannot densify %T", set)
}

// symmetricCSCs returns each Aᵢ as a symmetric sparse matrix.
func symmetricCSCs(set psdp.ConstraintSet, ds *psdp.DenseSet) []*sparse.CSC {
	if s, ok := set.(*psdp.SparseSet); ok {
		return s.A
	}
	as := make([]*sparse.CSC, len(ds.A))
	for i, a := range ds.A {
		as[i] = sparse.CSCFromDense(a, 0)
	}
	return as
}

// runProbes times the kernel-layer functions on each shape and reports
// their averages.
func runProbes(shapes []psdp.ConstraintSet, tr *tracer, r *report) error {
	p := newProbeSums()
	rows := 0.0
	for _, set := range shapes {
		m := set.Dim()
		x0 := coldStart(set)
		ds, err := denseView(set)
		if err != nil {
			return err
		}
		psi := ds.PsiDense(x0)
		ws := work.New()
		dec := &eigen.Decomposition{}
		dst := matrix.New(m, m)
		prod := matrix.New(m, m)
		var probeErr error
		p.probe(tr, "eigen.sym_eigen", "eigen", func() {
			if err := eigen.SymEigenInto(ws, psi, dec); err != nil {
				probeErr = err
			}
		})
		p.probe(tr, "expm.normalized_exp", "expm", func() {
			if _, _, err := expm.NormalizedExpSymInto(ws, psi, dec, dst); err != nil {
				probeErr = err
			}
		})
		p.probe(tr, "matrix.sym_mul_ab", "matrix", func() { matrix.SymMulABInto(prod, psi, psi, nil) })

		apply := func(in, out []float64) { psi.MulVecTo(out, in) }
		if op, ok := set.(psdp.PsiOperator); ok {
			tmp := make([]float64, op.PsiScratchLen())
			apply = func(in, out []float64) { op.ApplyPsiScratch(x0, in, out, tmp) }
		}
		v := make([]float64, m)
		for i := range v {
			v[i] = 1 / math.Sqrt(float64(m))
		}
		w := make([]float64, m)
		var sc expm.MVScratch
		normUB := 0.0
		for i := range x0 {
			normUB += x0[i] * set.Trace(i) // λ_max(Ψ) ≤ Tr Ψ
		}
		p.probe(tr, "expm.expmv", "expm", func() { expm.ExpMVInto(w, apply, v, normUB, 1e-10, &sc) })
		var lws eigen.LanczosWS
		p.probe(tr, "eigen.lanczos_max", "eigen", func() {
			if _, err := eigen.LanczosMax(apply, m, eigen.LanczosOpts{Tol: 1e-8, WS: &lws}); err != nil {
				probeErr = err
			}
		})
		as := symmetricCSCs(set, ds)
		quads := make([]float64, len(as))
		p.probe(tr, "sparse.quad_forms", "sparse", func() { sparse.QuadForms(quads, as, 1, v) })
		stack, err := sparse.NewStack(as)
		if err != nil {
			return err
		}
		p.probe(tr, "sparse.accumulate_scaled", "sparse", func() { stack.AccumulateScaled(w, x0, v) })
		if probeErr != nil {
			return probeErr
		}
		// The JL oracle's default sketch accuracy is 0.2. The oracle does
		// not report the rows it drew, so this is sketch.Rows at the
		// shape: it reads 1 (rows clamped to m) for every m below ~1400
		// and moves only if the row rule changes.
		rows += float64(sketch.Rows(m, 0.2)) / float64(m)
	}
	p.emit(r, 1, "_us", "us")
	r.layer["sketch.rows_over_m"] = metric{rows / float64(len(shapes)), "ratio"}
	return nil
}

// codecCase is one request body a codec probe decodes and digests.
type codecCase struct {
	kind string
	body []byte
}

// decodeRequest parses a body the way the server does.
func decodeRequest(body []byte) (*serve.Request, error) {
	var req serve.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// codecProbes times request decoding (instio documents inside the serve
// request envelope) and the content digest on the given bodies.
func codecProbes(cases []codecCase, tr *tracer, r *report) error {
	p := newProbeSums()
	for _, c := range cases {
		var probeErr error
		p.probe(tr, "instio.decode", "instio", func() {
			if _, err := decodeRequest(c.body); err != nil {
				probeErr = err
			}
		})
		req, err := decodeRequest(c.body)
		if err != nil {
			return err
		}
		p.probe(tr, "serve.digest", "serve", func() {
			if _, err := serve.ContentDigest(c.kind, req, core.EngineMMW); err != nil {
				probeErr = err
			}
		})
		if probeErr != nil {
			return probeErr
		}
	}
	p.emit(r, 1e-3, "_ms", "ms")
	return nil
}
