package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the number of samples that must lie above a reported
// percentile for it to count as measured rather than extrapolated.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (p in (0, 1]) and
// whether at least minBeyond samples lie beyond that rank. xs is not
// modified. An empty xs yields (0, false).
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return s[rank-1], n-rank >= minBeyond
}

// tailPercentile returns the highest percentile, in whole percent, that
// still has minBeyond samples beyond it, with its value; ok is false
// when fewer than minBeyond+1 samples exist.
func tailPercentile(xs []float64) (pct int, v float64, ok bool) {
	for pct = 99; pct >= 50; pct-- {
		if v, ok = percentile(xs, float64(pct)/100); ok {
			return pct, v, true
		}
	}
	return 0, 0, false
}

// median is the nearest-rank median.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// gmean is the geometric mean of xs, which must all be positive; it
// returns 0 for an empty slice or a non-positive entry.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// histogram is one Prometheus histogram series: cumulative counts at
// increasing upper bounds, the last bound +Inf.
type histogram struct {
	le  []float64
	cum []float64
}

// parseHistograms reads Prometheus text exposition and returns the
// histogram series named name, summed over all label sets (bucket
// bounds must agree across the summed series).
func parseHistograms(r io.Reader, name string) (histogram, error) {
	byLE := map[float64]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	prefix := name + "_bucket{"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.Index(line, `le="`)
		if i < 0 {
			return histogram{}, fmt.Errorf("bucket line without le: %q", line)
		}
		rest := line[i+4:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			return histogram{}, fmt.Errorf("unterminated le: %q", line)
		}
		le, err := strconv.ParseFloat(rest[:j], 64)
		if err != nil {
			return histogram{}, fmt.Errorf("bad le in %q: %w", line, err)
		}
		fields := strings.Fields(line[strings.LastIndexByte(line, '}')+1:])
		if len(fields) == 0 {
			return histogram{}, fmt.Errorf("bucket line without value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return histogram{}, fmt.Errorf("bad value in %q: %w", line, err)
		}
		byLE[le] += v
	}
	if err := sc.Err(); err != nil {
		return histogram{}, err
	}
	var h histogram
	for le := range byLE {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	for _, le := range h.le {
		h.cum = append(h.cum, byLE[le])
	}
	return h, nil
}

// sub returns the histogram of observations made between the scrapes
// before and h (bucket by bucket). Both must come from the same series.
func (h histogram) sub(before histogram) (histogram, error) {
	if len(before.le) == 0 {
		return h, nil
	}
	if len(before.le) != len(h.le) {
		return histogram{}, fmt.Errorf("histogram bucket layouts differ (%d vs %d)", len(before.le), len(h.le))
	}
	d := histogram{le: h.le, cum: make([]float64, len(h.cum))}
	for i := range h.cum {
		if before.le[i] != h.le[i] {
			return histogram{}, fmt.Errorf("histogram bucket %d bound differs", i)
		}
		d.cum[i] = h.cum[i] - before.cum[i]
	}
	return d, nil
}

// count is the number of observations in the histogram.
func (h histogram) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// quantile estimates the q-quantile the way Prometheus'
// histogram_quantile does: find the bucket holding rank q·count and
// interpolate linearly inside it (from 0 for the first bucket). A rank
// landing in the +Inf bucket returns the highest finite bound. It
// returns 0 for an empty histogram.
func (h histogram) quantile(q float64) float64 {
	total := h.count()
	if total <= 0 {
		return 0
	}
	rank := q * total
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		if math.IsInf(h.le[i], 1) {
			if i == 0 {
				return 0
			}
			return h.le[i-1]
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = h.le[i-1], h.cum[i-1]
		}
		if c == prev {
			return h.le[i]
		}
		return lo + (h.le[i]-lo)*(rank-prev)/(c-prev)
	}
	return h.le[len(h.le)-1]
}
