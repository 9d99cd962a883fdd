package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented by this package).
// Times are nanoseconds since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is the span's duration minus what its children cover,
	// filled in by finish.
	SelfNS int64 `json:"self_ns"`
}

// spanRecorder keeps spans in memory until the traced pass ends. It is used
// from one goroutine: the traced engine run is Parallelism=1, so even the
// stage hooks fire sequentially.
type spanRecorder struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, epoch: time.Now()}
}

// start opens a span under parent (-1 for a root) and returns its id.
func (r *spanRecorder) start(name string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		StartNS: time.Since(r.epoch).Nanoseconds(), EndNS: -1,
	})
	return id
}

// end closes a span and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.EndNS = time.Since(r.epoch).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// timed runs fn inside a span and returns the span's duration.
func (r *spanRecorder) timed(name string, parent int, fn func()) time.Duration {
	id := r.start(name, parent)
	fn()
	return r.end(id)
}

// finish computes every span's self time. Children of one parent never
// overlap here (single goroutine), so self = duration − Σ child durations.
func (r *spanRecorder) finish() {
	for i := range r.spans {
		s := &r.spans[i]
		s.SelfNS = s.EndNS - s.StartNS
	}
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 {
			r.spans[p].SelfNS -= r.spans[i].EndNS - r.spans[i].StartNS
		}
	}
}

// total sums the durations of every span with the given name.
func (r *spanRecorder) total(name string) time.Duration {
	var d int64
	for i := range r.spans {
		if r.spans[i].Name == name {
			d += r.spans[i].EndNS - r.spans[i].StartNS
		}
	}
	return time.Duration(d)
}

// checkSpanTree reports the first way spans fail to form a well-formed
// tree: an open span, a child outside its parent, or negative self time.
func checkSpanTree(spans []span) error {
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d %q never ended", i, s.Name)
		}
		if s.SelfNS < 0 {
			return fmt.Errorf("span %d %q has self time %d ns", i, s.Name, s.SelfNS)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d %q has parent %d", i, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d %q lies outside its parent %q", i, s.Name, p.Name)
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
