package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string             `json:"name"`
	Query  string             `json:"query"`
	Parent int                `json:"parent"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	// guarded-by: mu
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, query string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Query: query, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id, attaching attrs (may be nil).
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Attrs = attrs
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curA, curB int64
		curA, curB = -1, -1
		for _, iv := range ivs {
			if iv[0] > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = iv[0], iv[1]
			} else if iv[1] > curB {
				curB = iv[1]
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// meanMicros is the mean of ds in microseconds (0 when empty).
func meanMicros(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds)) / 1e3
}

// writeTrace stores the spans and the run's header as JSON under dir.
func writeTrace(dir, name string, header any, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Header any    `json:"header"`
		Spans  []span `json:"spans"`
	}{header, spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
