package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Start and End are nanoseconds since the run began. Parent
// is the ID of the span that caused it, 0 for a root. Spans of one served
// request share the request's root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	// Synthetic marks a serve stage laid out from the Atc-Trace header:
	// its duration is measured by atcserve, its placement inside the
	// request is not.
	Synthetic bool `json:"synthetic,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay for no spans.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Workload: t.workload})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured span [start, end) given as times.
func (t *tracer) add(name string, parent int, start, end time.Time, synthetic bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Workload: t.workload, Synthetic: synthetic,
	})
	return len(t.spans)
}

// layerTimes sums, per span name, the total duration and the self time:
// a span's duration minus the part of it its children cover.
func (t *tracer) layerTimes() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		total[s.Name] += float64(d) / 1e9
		self[s.Name] += float64(d-covered(children[s.ID], s.Start, s.End)) / 1e9
	}
	return
}

// covered is the length of the union of intervals iv clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		sum += curE - curS
	}
	return sum
}
