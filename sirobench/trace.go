package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the public function it calls.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`     // operation id shared by the spans of one operation
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (-1 when not tracing).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a completed span whose interval was measured elsewhere.
func (t *tracer) record(name string, op int64, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + int64(d)})
	t.mu.Unlock()
}

// selfSpans visits each closed span of an operation with id in
// [lo, hi) with its self time in microseconds: its duration minus the
// part of it its child spans cover. Children of one span never overlap
// (they are sequential calls on one goroutine).
func (t *tracer) selfSpans(lo, hi int64, visit func(s span, selfUS float64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End >= 0 && s.Op >= lo && s.Op < hi {
			visit(s, float64(s.End-s.Start-child[i])/1e3)
		}
	}
}

// selfTimes is every self time (µs) per span name.
func (t *tracer) selfTimes(lo, hi int64) map[string][]float64 {
	out := map[string][]float64{}
	t.selfSpans(lo, hi, func(s span, us float64) { out[s.Name] = append(out[s.Name], us) })
	return out
}

// selfByOp is each operation's total self time (µs) per span name.
func (t *tracer) selfByOp(lo, hi int64) map[int64]map[string]float64 {
	out := map[int64]map[string]float64{}
	t.selfSpans(lo, hi, func(s span, us float64) {
		if out[s.Op] == nil {
			out[s.Op] = map[string]float64{}
		}
		out[s.Op][s.Name] += us
	})
	return out
}

// pairedMedian is the median over operations of one span's self time
// minus others' on the same operation: the cost a layer adds around the
// calls it makes, measured on identical inputs.
func pairedMedian(byOp map[int64]map[string]float64, span string, minus ...string) float64 {
	var diffs []float64
	for _, self := range byOp {
		v, ok := self[span]
		if !ok {
			continue
		}
		for _, m := range minus {
			v -= self[m]
		}
		diffs = append(diffs, v)
	}
	return median(diffs)
}

// write dumps every span as one JSON line in recording order, so a
// span's parent is the line numbered Parent (from 0).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
