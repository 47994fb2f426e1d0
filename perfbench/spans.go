package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run: a layer boundary the
// benchmark crosses from outside the program. Spans of one statement share
// Req; Parent is 0 for the statement's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. Times are
// nanoseconds since the tracer was created. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) int64 { return w.Sub(t.t0).Nanoseconds() }

// begin opens a span starting now and returns its ID.
func (t *tracer) begin(req, parent int64, name string) int64 {
	return t.add(req, parent, name, time.Now())
}

// add opens a span starting at w and returns its ID.
func (t *tracer) add(req, parent int64, name string, w time.Time) int64 {
	start := t.at(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: -1})
	return id
}

// end closes span id now.
func (t *tracer) end(id int64) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
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

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// or stick out of their parent; only the union inside the parent counts.
func selfTimes(spans []span) (map[int64]int64, error) {
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out, nil
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per span name for each statement. Root spans
// (Parent 0) are keyed "" so their self time is the statement's time no
// layer span covers.
func layerSelf(spans []span, self map[int64]int64) map[int64]map[string]int64 {
	out := make(map[int64]map[string]int64)
	for _, s := range spans {
		m := out[s.Req]
		if m == nil {
			m = make(map[string]int64)
			out[s.Req] = m
		}
		name := s.Name
		if s.Parent == 0 {
			name = ""
		}
		m[name] += self[s.ID]
	}
	return out
}
