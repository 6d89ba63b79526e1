package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 100 … 1
	}
	if v, ok := percentile(xs, 0.9); v != 90 || !ok {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with ten beyond", v, ok)
	}
	if v, ok := percentile(xs, 0.95); v != 95 || ok {
		t.Fatalf("p95 of 1..100 = %v, %v; want 95 without ten beyond", v, ok)
	}
	if xs[0] != 100 {
		t.Fatal("percentile modified its input")
	}
	// 100 … 2: rank ⌈0.9·99⌉ = 90 is the value 91, with nine beyond.
	if v, ok := percentile(xs[:99], 0.9); v != 91 || ok {
		t.Fatalf("p90 of 99 samples = %v, %v; want 91 with only nine beyond", v, ok)
	}
	if pct, v, ok := tailPercentile(xs); pct != 90 || v != 90 || !ok {
		t.Fatalf("tail of 100 samples = p%d %v %v; want p90", pct, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:10]); ok {
		t.Fatal("tail of 10 samples should have no percentile with ten beyond")
	}
	if v := median([]float64{3, 1, 2}); v != 2 {
		t.Fatalf("median = %v, want 2", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported ok")
	}
}

func TestGmean(t *testing.T) {
	if g := gmean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("gmean(1,4,16) = %v, want 4", g)
	}
	if g := gmean([]float64{2, 0}); g != 0 {
		t.Fatalf("gmean with a zero = %v, want 0", g)
	}
	if g := gmean(nil); g != 0 {
		t.Fatalf("gmean() = %v, want 0", g)
	}
	lat := map[string][]float64{"a": {1, 1, 1}, "b": {100, 100, 100, 100}}
	if g := typeMedianGmean(lat); math.Abs(g-10) > 1e-9 {
		t.Fatalf("typeMedianGmean = %v, want 10", g)
	}
}

const scrape1 = `# HELP x_seconds Demo.
# TYPE x_seconds histogram
x_seconds_bucket{kind="a",le="0.1"} 1
x_seconds_bucket{kind="a",le="0.2"} 2
x_seconds_bucket{kind="a",le="0.4"} 2
x_seconds_bucket{kind="a",le="+Inf"} 2
x_seconds_sum{kind="a"} 0.25
x_seconds_count{kind="a"} 2
x_seconds_bucket{kind="b",le="0.1"} 0
x_seconds_bucket{kind="b",le="0.2"} 0
x_seconds_bucket{kind="b",le="0.4"} 0
x_seconds_bucket{kind="b",le="+Inf"} 0
`

const scrape2 = `x_seconds_bucket{kind="a",le="0.1"} 1
x_seconds_bucket{kind="a",le="0.2"} 4
x_seconds_bucket{kind="a",le="0.4"} 8
x_seconds_bucket{kind="a",le="+Inf"} 8
x_seconds_bucket{kind="b",le="0.1"} 0
x_seconds_bucket{kind="b",le="0.2"} 0
x_seconds_bucket{kind="b",le="0.4"} 2
x_seconds_bucket{kind="b",le="+Inf"} 3
other_bucket{le="0.1"} 99
`

func TestHistogramDeltaQuantiles(t *testing.T) {
	h1, err := parseHistograms(strings.NewReader(scrape1), "x_seconds")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := parseHistograms(strings.NewReader(scrape2), "x_seconds")
	if err != nil {
		t.Fatal(err)
	}
	d, err := h2.sub(h1)
	if err != nil {
		t.Fatal(err)
	}
	// Between the scrapes: 2 observations in (0.1, 0.2], 6 in (0.2, 0.4]
	// (4 of kind a, 2 of kind b) and 1 above 0.4 — 9 in all.
	if d.count() != 9 {
		t.Fatalf("delta count = %v, want 9", d.count())
	}
	cases := []struct{ q, want float64 }{
		{0.5, 0.2 + 0.2*(4.5-2)/6}, // rank 4.5 lies in (0.2, 0.4]
		{1.0 / 9, 0.1 + 0.1*0.5},   // rank 1 is half-way through (0.1, 0.2]
		{1, 0.4},                   // the +Inf bucket reports the top finite bound
	}
	for _, c := range cases {
		if got := d.quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (histogram{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if _, err := h2.sub(histogram{le: []float64{1}, cum: []float64{1}}); err == nil {
		t.Error("sub accepted mismatched bucket layouts")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Layer: "serve", Start: 0, End: 100},
		// Two overlapping children cover [10, 60]; a third sticks out
		// past the parent's end and only [90, 100] counts.
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "core", Start: 30, End: 60},
		{ID: 4, Parent: 1, Layer: "expm", Start: 90, End: 120},
		// A grandchild inside span 2.
		{ID: 5, Parent: 2, Layer: "expm", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"serve": 100 - 50 - 10, // 40 ns
		"core":  (40 - 5) + 30, // span 2 minus its grandchild, plus span 3
		"expm":  30 + 5,        // leaves count whole
	}
	for layer, ns := range want {
		if got := self[layer] * 1e9; math.Abs(got-ns) > 1e-6 {
			t.Errorf("self[%s] = %v ns, want %v", layer, got, ns)
		}
	}
}
