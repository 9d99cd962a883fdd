// Package telemetry is the scanner's observability layer: a lock-cheap
// metrics registry (atomic counters, gauges, and fixed-bucket histograms,
// organized into labeled families keyed by origin/protocol/trial/stage), a
// span-style tracer for scan lifecycles, and three sinks — Prometheus-style
// text exposition, a JSON snapshot writer, and a periodic stderr progress
// line.
//
// Telemetry is a pure observer. Nothing in this package feeds back into a
// scan's behaviour: the golden-dataset and parallel-equivalence tests run
// with a live registry attached and must stay bit-identical. Every
// instrument method is safe on a nil receiver and does nothing, so
// instrumented code paths need no "is telemetry on" branches — a nil
// *Registry propagates nil *Counter/*Gauge/*Histogram handles whose calls
// cost one nil check. Hot loops additionally batch their updates (the zmap
// sweep flushes its counters once per sweep batch), so a disabled registry
// costs ~zero on the probe path; internal/zmap's allocation assert and the
// `make bench-telemetry` comparison guard that claim.
//
// Hot-path callers pre-resolve their labeled children once per scan
// (SweepMetrics, GrabMetrics, IDSMetrics bundles) so the per-event cost is
// a single atomic add, never a map lookup.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric family child.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelKey canonicalizes a label set: sorted by key, rendered k="v",...
// The result doubles as the Prometheus exposition form. The key is built
// on the stack, so the string returned is its one allocation.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var buf [keyBufSize]byte
	return string(appendLabelKey(buf[:0], labels))
}

const (
	// stackLabels is the most labels appendLabelKey sorts in a stack array;
	// larger sets (none in this repository) sort on the heap.
	stackLabels = 8
	// keyBufSize is the stack buffer a key is built in; a longer key
	// grows onto the heap.
	keyBufSize = 256
)

// appendLabelKey appends the canonical key of labels to b. Every scan
// resolves dozens of labeled children, so the labels are sorted without
// reflection in a stack array and nothing is allocated while b has room.
func appendLabelKey(b []byte, labels []Label) []byte {
	var arr [stackLabels]Label
	ls := arr[:0]
	if len(labels) > len(arr) {
		ls = make([]Label, 0, len(labels))
	}
	ls = append(ls, labels...)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, `="`...)
		b = appendEscapedLabel(b, l.Value)
		b = append(b, '"')
	}
	return b
}

// appendEscapedLabel appends v with backslash, quote and newline escaped,
// as the exposition format wants label values.
func appendEscapedLabel(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// kind discriminates the instrument types a family can hold.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter. All methods are
// no-ops on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. All methods are no-ops on a nil
// receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram: counts per upper bound
// plus a running sum and count, all atomics. Bounds are set at family
// creation and never change, so Observe is lock-free. All methods are
// no-ops on a nil receiver.
type Histogram struct {
	bounds []float64       // sorted upper bounds; implicit +Inf after
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// addSum adds v to the running float sum with a CAS loop.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot returns the bucket counts (one per bound, plus +Inf last), the
// running sum, and the total count.
func (h *Histogram) Snapshot() (buckets []uint64, sum float64, count uint64) {
	if h == nil {
		return nil, 0, 0
	}
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	return buckets, math.Float64frombits(h.sum.Load()), h.count.Load()
}

// DurationBuckets are the default histogram bounds for stage and span
// durations, in seconds: wide enough for a sub-millisecond test sweep and a
// 21-hour production scan alike.
var DurationBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120, 600, 3600, 21600}

// child is one labeled instrument inside a family.
type child struct {
	labels string // canonical exposition form
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is a named set of instruments of one kind sharing a label schema.
type family struct {
	name    string
	help    string
	kind    kind
	bounds  []float64 // histograms only
	mu      sync.Mutex
	byLabel map[string]*child
}

// get returns the family's child for labels, creating it on first use. A
// lookup of an existing child allocates nothing: the key is built on the
// stack and becomes a string only when a new child is inserted.
func (f *family) get(labels []Label) *child {
	var buf [keyBufSize]byte
	key := appendLabelKey(buf[:0], labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.byLabel[string(key)]; ok {
		return ch
	}
	lk := string(key)
	ch := &child{labels: lk}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindGauge:
		ch.g = &Gauge{}
	case kindHistogram:
		ch.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.byLabel[lk] = ch
	return ch
}

// children returns the family's children sorted by label key.
func (f *family) children() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*child, 0, len(f.byLabel))
	for _, ch := range f.byLabel {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// Registry owns the metric families, the span IDs and the attached flight
// recorder that every finished span goes to. The zero value is
// not usable; call New. A nil *Registry is the disabled state: every lookup
// returns a nil instrument and every recording call is a no-op.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	spanIDs  atomic.Uint64
	recorder atomic.Pointer[Recorder]
	start    time.Time
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family), start: time.Now()}
}

// Start returns when the registry was created (the run epoch the progress
// line and ETA measure from). Zero on nil.
func (r *Registry) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// lookup finds or creates the named family, checking kind agreement.
// Registering one name as two different kinds is a programming error.
func (r *Registry) lookup(name string, k kind, bounds []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, kind: k, bounds: bounds, byLabel: make(map[string]*child)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, k))
	}
	return f
}

// Counter returns the counter for (name, labels), creating it on first use.
// Nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil).get(labels).c
}

// Gauge returns the gauge for (name, labels). Nil registry returns nil.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil).get(labels).g
}

// Histogram returns the histogram for (name, labels) with the given bucket
// upper bounds (the family's first caller fixes them; nil = DurationBuckets).
// Nil registry returns nil.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.lookup(name, kindHistogram, bounds).get(labels).h
}

// Describe attaches a help string to a family, emitted as # HELP in the
// Prometheus exposition. No-op on nil or for unknown names until created.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f != nil {
		f.mu.Lock()
		f.help = help
		f.mu.Unlock()
	}
}

// CounterSum returns the sum of a counter family across all label children
// (0 when absent or nil): the progress line's whole-run totals.
func (r *Registry) CounterSum(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind != kindCounter {
		return 0
	}
	var sum uint64
	for _, ch := range f.children() {
		sum += ch.c.Value()
	}
	return sum
}

// GaugeSum returns the sum of a gauge family across all label children.
func (r *Registry) GaugeSum(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind != kindGauge {
		return 0
	}
	var sum int64
	for _, ch := range f.children() {
		sum += ch.g.Value()
	}
	return sum
}

// sortedFamilies snapshots the family set sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
