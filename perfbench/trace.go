package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Parent is 0 for a root span; spans of one HTTP request share
// ReqID (the X-Request-Id the server echoes).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	ReqID  string `json:"reqId,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent int, name, layer, reqID string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, ReqID: reqID,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// reserve allocates a span ID whose times are filled in later by set,
// so children can name a parent that has not finished yet.
func (t *tracer) reserve(parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer})
	return id
}

// set fills in the interval of a reserved span.
func (t *tracer) set(id int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per layer, the summed self time of its spans in
// seconds: each span's duration minus the part of its interval covered
// by its children (overlapping children count once, and child time
// outside the parent's interval is ignored).
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coveredNs(s.Start, s.End, children[s.ID])
		out[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the kids' intervals clipped
// to [start, end].
func coveredNs(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// traceDoc is the file a traced run writes when it ends.
type traceDoc struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfS    map[string]float64 `json:"selfSecondsByLayer"`
	Spans    []span             `json:"spans"`
}

// write saves the spans and per-layer self times to path and returns
// the self times.
func (t *tracer) write(path, workload string, seed uint64) (map[string]float64, error) {
	spans := t.snapshot()
	doc := traceDoc{Workload: workload, Seed: seed, SelfS: selfTimes(spans), Spans: spans}
	b, err := json.Marshal(&doc)
	if err != nil {
		return nil, err
	}
	return doc.SelfS, os.WriteFile(path, b, 0o644)
}
