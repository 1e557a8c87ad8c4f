package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call: a workload, a phase, an operation (point,
// seek, query) or a call into one layer. Parent is the index of the span
// that caused it, -1 for the workload root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: begin and end cost one nil check, so the timed runs share
// the traced code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerOf names the layer a span belongs to: the package prefix of a
// layer call ("machine.Run" → "machine"); the benchmark's own workload,
// phase and operation spans carry no dot and count as "bench".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfSeconds returns each layer's self time: every span's duration
// minus the part of its interval that its children cover. Children may
// overlap one another (sweep points on parallel workers), so coverage is
// the union of their intervals.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			c := t.spans[k]
			if c.End < 0 {
				continue
			}
			ivs = append(ivs, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, hi int64
		hi = s.Start
		for _, iv := range ivs {
			lo := max(iv[0], hi)
			if iv[1] > lo {
				covered += iv[1] - lo
				hi = iv[1]
			}
		}
		self[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
