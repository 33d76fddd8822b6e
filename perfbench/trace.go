package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one request share Req; Parent
// is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the run; write dumps them at exit.
// A nil *tracer records nothing, so untraced runs pay one nil check
// per call.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, req uint64, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Req: req, Parent: parent,
		Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
}

// ms is span i's duration in milliseconds (0 on a nil tracer).
func (t *tracer) ms(i int) float64 {
	if t == nil || i < 0 {
		return 0
	}
	return float64(t.spans[i].End-t.spans[i].Start) / 1e6
}

// add records a span whose bounds were measured elsewhere (a daemon
// arrival's attach and observed retirement).
func (t *tracer) add(name, layer string, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Req: req, Parent: -1,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
}

// selfStat is one span name's call count and summed self time.
type selfStat struct {
	Layer  string `json:"layer"`
	Calls  int    `json:"calls"`
	SelfNs int64  `json:"self_ns"`
}

// meanMs is the mean self time per call in milliseconds.
func (s selfStat) meanMs() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(s.Calls) / 1e6
}

// selfTimes sums each span's self time — its duration minus the part
// of it covered by its children — per span name.
func (t *tracer) selfTimes() map[string]selfStat {
	out := make(map[string]selfStat)
	if t == nil {
		return out
	}
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		st.Layer = s.Layer
		st.Calls++
		st.SelfNs += s.End - s.Start - covered(s, children[i])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write dumps the spans as JSON lines to dir/name, creating dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
