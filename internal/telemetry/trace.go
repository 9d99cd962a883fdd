// Hierarchical tracing for scan lifecycles. Spans form a tree — a study
// span owns scan spans (one per origin/proto/trial), each scan owns stage
// spans, and a stage owns sampled batch/window exemplars — linked by span
// IDs and stamped with a monotonic start offset so a trace can be replayed
// on one timeline. Ending a span records the duration into a histogram
// family, bumps completion/error counters, and tees the record to the
// flight recorder when one is attached: the journal is the one place a
// finished span goes. Spans are observational only — they never alter
// control flow — and all entry points are no-ops on a nil registry or nil
// span.
package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
)

// SpanID identifies one span within a registry's trace. IDs are allocated
// from a per-registry counter starting at 1; 0 means "no span" (a root's
// Parent).
type SpanID uint64

// Attr is one integer-valued span attribute (targets swept, rows sealed,
// spill bytes, ...). Attributes are deliberately int64-only: they are
// written on hot-path exemplars and must not drag fmt or interface boxing
// into the scan loop.
type Attr struct {
	Key   string `json:"k"`
	Value int64  `json:"v"`
}

// A is shorthand for constructing an Attr.
func A(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is one completed span, as the flight-recorder journal holds
// it.
type SpanRecord struct {
	ID     SpanID `json:"id,omitempty"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// StartNS is the span's start as monotonic nanoseconds since the
	// registry epoch (Registry.Start, the journal's meta start). It is
	// immune to clock steps, so trace viewers and tracestat order and
	// nest spans by (StartNS, StartNS+Duration).
	StartNS  int64         `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	// Children counts every child unit started under this span; Dropped
	// is how many of those were not recorded as spans because of bounded
	// sampling (ChildTracer). Children-Dropped exemplar records exist.
	Children uint64 `json:"children,omitempty"`
	Dropped  uint64 `json:"dropped,omitempty"`
}

// Span is an in-flight timed operation, a node in the trace tree. A nil
// *Span (from a nil registry, or a child of a nil span) is inert: every
// method is a no-op, so instrumented code needs no enable checks.
type Span struct {
	reg     *Registry
	id      SpanID
	parent  SpanID
	name    string
	labels  []Label
	start   time.Time
	startNS int64

	mu    sync.Mutex // guards attrs (SetAttr may race with exemplar writers)
	attrs []Attr

	children atomic.Uint64
	recorded atomic.Uint64
}

// StartSpan begins a root span. On a nil registry the returned span is nil
// and inert.
func (r *Registry) StartSpan(name string, labels ...Label) *Span {
	if r == nil {
		return nil
	}
	return r.startSpan(0, name, labels)
}

// StartChild begins a span under s. Nil-safe: a nil parent yields a nil
// (inert) child, so a disabled trace tree stays disabled all the way down.
func (s *Span) StartChild(name string, labels ...Label) *Span {
	if s == nil || s.reg == nil {
		return nil
	}
	s.children.Add(1)
	s.recorded.Add(1)
	return s.reg.startSpan(s.id, name, labels)
}

func (r *Registry) startSpan(parent SpanID, name string, labels []Label) *Span {
	now := time.Now()
	return &Span{
		reg:     r,
		id:      SpanID(r.spanIDs.Add(1)),
		parent:  parent,
		name:    name,
		labels:  labels,
		start:   now,
		startNS: int64(now.Sub(r.start)),
	}
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr attaches an integer attribute to the span, recorded when the
// span ends. Later sets of the same key append (tracestat keeps the last).
// Safe on nil and safe for concurrent use.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// End completes the span: it observes the duration in the
// "<name>_duration_seconds" histogram, increments "<name>_total" (and
// "<name>_errors_total" when err != nil), and tees the record to the
// flight recorder when one is attached. Safe on nil. End must be called at
// most once.
func (s *Span) End(err error) {
	if s == nil || s.reg == nil {
		return
	}
	d := time.Since(s.start)
	s.reg.observeSpan(s.name, s.labels, d, err)
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name, Labels: labelKey(s.labels),
		StartNS: s.startNS, Duration: d,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	children, recorded := s.children.Load(), s.recorded.Load()
	rec.Children = children
	rec.Dropped = children - recorded
	s.mu.Lock()
	rec.Attrs = s.attrs
	s.attrs = nil
	s.mu.Unlock()
	s.reg.commitSpan(rec)
}

// observeSpan updates the metric families derived from a span's name.
func (r *Registry) observeSpan(name string, labels []Label, d time.Duration, err error) {
	r.Histogram(name+"_duration_seconds", DurationBuckets, labels...).Observe(d.Seconds())
	r.Counter(name+"_total", labels...).Inc()
	if err != nil {
		r.Counter(name+"_errors_total", labels...).Inc()
	}
}

// commitSpan tees a finished span to the flight recorder, if one is
// attached.
func (r *Registry) commitSpan(rec SpanRecord) {
	if rc := r.recorder.Load(); rc != nil {
		rc.writeSpan(rec)
	}
}

// Bounded child sampling. A full-space sweep walks 2^32 addresses in ~1M
// batches; recording each as a span would swamp the journal and the
// collection overhead budget. ChildTracer records the first sampleFirst
// children (startup behaviour: cold caches, first spill flush) and then
// every sampleEvery-th (steady state), counting the rest only in the
// parent's Children/Dropped totals — ~1K exemplars for a full sweep.
const (
	sampleFirst = 32
	sampleEvery = 1024
)

// ChildTracer batches exemplar child spans under a parent with bounded
// sampling. It is single-goroutine state (like the sweep's statsFlusher):
// create one per worker/shard, call Begin/End around each unit. Skipped
// units cost two atomic adds and no clock read, no allocation — cheap
// enough for the sweep's per-batch loop. A nil tracer (nil parent or nil
// registry) is inert.
type ChildTracer struct {
	reg    *Registry
	parent *Span
	name   string
	labels string
	n      uint64
	start  time.Time
	live   bool
}

// ChildTracer returns a bounded-sampling tracer for child units of s.
// Returns nil (inert) when s is nil.
func (s *Span) ChildTracer(name string, labels ...Label) *ChildTracer {
	if s == nil || s.reg == nil {
		return nil
	}
	return &ChildTracer{reg: s.reg, parent: s, name: name, labels: labelKey(labels)}
}

// Begin marks the start of one child unit. Only sampled units read the
// clock. Safe on nil.
func (t *ChildTracer) Begin() {
	if t == nil {
		return
	}
	t.live = t.n < sampleFirst || t.n%sampleEvery == 0
	t.n++
	if t.live {
		t.start = time.Now()
	}
}

// End completes the unit started by the last Begin. Unsampled units bump
// the parent's child count and return without touching the clock or
// heap; sampled units commit an exemplar span record (attrs are copied
// only then, so the caller's variadic slice does not escape on the skip
// path). Safe on nil.
func (t *ChildTracer) End(attrs ...Attr) {
	if t == nil {
		return
	}
	t.parent.children.Add(1)
	if !t.live {
		return
	}
	t.parent.recorded.Add(1)
	rec := SpanRecord{
		ID:       SpanID(t.reg.spanIDs.Add(1)),
		Parent:   t.parent.id,
		Name:     t.name,
		Labels:   t.labels,
		StartNS:  int64(t.start.Sub(t.reg.start)),
		Duration: time.Since(t.start),
	}
	if len(attrs) > 0 {
		rec.Attrs = append([]Attr(nil), attrs...)
	}
	t.reg.commitSpan(rec)
}

// Count reports how many units this tracer has begun (sampled or not).
// Safe on nil.
func (t *ChildTracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// StageTrace records one pipeline run's stages as spans under a parent
// scan span. Build one per pipeline.Runner — stages within one runner
// execute sequentially in the caller's goroutine, so the per-stage span
// slots need no locking; concurrent scans each get their own StageTrace.
// A nil StageTrace (nil registry) passes hooks through and hands out nil
// spans.
type StageTrace struct {
	reg    *Registry
	parent *Span
	labels []Label
	spans  [pipeline.NumStages]*Span
}

// NewStageTrace builds a stage tracer whose stage spans are children of
// parent (roots when parent is nil). Returns nil when r is nil.
func NewStageTrace(r *Registry, parent *Span, labels ...Label) *StageTrace {
	if r == nil {
		return nil
	}
	return &StageTrace{reg: r, parent: parent, labels: labels}
}

// Span returns the in-flight span for stage s — the handle instrumented
// stage bodies use to attach attributes and batch exemplars. Nil before
// the stage starts, after a nil tracer, or for out-of-range stages.
func (st *StageTrace) Span(s pipeline.Stage) *Span {
	if st == nil || int(s) >= len(st.spans) {
		return nil
	}
	return st.spans[s]
}

// Hooks wraps next with per-stage span recording: Before opens a
// "scan_stage" span labeled with the stage name (plus the trace's labels —
// origin/proto/trial for a scan runner), After ends it with the stage's
// error. With a nil StageTrace next is returned unchanged.
func (st *StageTrace) Hooks(next pipeline.Hooks) pipeline.Hooks {
	if st == nil {
		return next
	}
	return pipeline.Hooks{
		Before: func(ctx context.Context, s pipeline.Stage) {
			if int(s) < len(st.spans) {
				ls := append(append(make([]Label, 0, len(st.labels)+1), st.labels...), L("stage", s.String()))
				if st.parent != nil {
					st.spans[s] = st.parent.StartChild("scan_stage", ls...)
				} else {
					st.spans[s] = st.reg.StartSpan("scan_stage", ls...)
				}
			}
			if next.Before != nil {
				next.Before(ctx, s)
			}
		},
		After: func(ctx context.Context, s pipeline.Stage, err error) {
			if int(s) < len(st.spans) && st.spans[s] != nil {
				st.spans[s].End(err)
			}
			if next.After != nil {
				next.After(ctx, s, err)
			}
		},
	}
}
