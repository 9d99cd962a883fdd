package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	// Every lookup on a nil registry must return a usable nil instrument.
	c := r.Counter("x_total", L("a", "b"))
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("x")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("x_seconds", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if _, _, count := h.Snapshot(); count != 0 {
		t.Errorf("nil histogram count = %d", count)
	}
	r.StartSpan("scan").End(nil)
	if err := r.CloseRecorder(); err != nil {
		t.Errorf("nil CloseRecorder = %v", err)
	}
	if NewSweepMetrics(r) != nil || NewGrabMetrics(r) != nil || NewIDSMetrics(r) != nil || NewSealMetrics(r) != nil {
		t.Error("nil registry produced non-nil metric bundles")
	}
	var sm *SweepMetrics
	sm.flushNothing() // method set below; ensures nil bundle pattern compiles
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteProm = %v, %d bytes", err, buf.Len())
	}
	if r.CounterSum("x_total") != 0 || r.GaugeSum("x") != 0 {
		t.Error("nil sums non-zero")
	}
}

// flushNothing exists only to prove nil method receivers are safe for
// bundle types used from instrumented packages.
func (m *SweepMetrics) flushNothing() {
	if m == nil {
		return
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("probes_total", L("origin", "US1"), L("proto", "http"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same (name, labels) in any order resolves to the same child.
	c2 := r.Counter("probes_total", L("proto", "http"), L("origin", "US1"))
	if c2 != c {
		t.Error("label order produced a different child")
	}
	other := r.Counter("probes_total", L("origin", "AU"), L("proto", "http"))
	other.Add(7)
	if got := r.CounterSum("probes_total"); got != 12 {
		t.Errorf("CounterSum = %d, want 12", got)
	}
	g := r.Gauge("depth")
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Errorf("gauge = %d, want 40", g.Value())
	}
	if got := r.GaugeSum("depth"); got != 40 {
		t.Errorf("GaugeSum = %d, want 40", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter family did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	buckets, sum, count := h.Snapshot()
	// 0.05 and 0.1 land in le=0.1 (upper bounds are inclusive), 0.5 in
	// le=1, 2 in le=10, 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	if len(buckets) != len(want) {
		t.Fatalf("buckets = %v", buckets)
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, buckets[i], want[i])
		}
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if sum < 102.64 || sum > 102.66 {
		t.Errorf("sum = %v, want 102.65", sum)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c_total", L("k", "v"))
			h := r.Histogram("h_seconds", []float64{1})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", L("k", "v")).Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if _, sum, count := r.Histogram("h_seconds", []float64{1}).Snapshot(); count != 8000 || sum != 4000 {
		t.Errorf("histogram = %v/%v, want 4000/8000", sum, count)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := New()
	r.Counter("probes_total", L("origin", "US1")).Add(3)
	r.Describe("probes_total", "probes sent")
	r.Gauge("depth").Set(2)
	r.Histogram("dur_seconds", []float64{1, 10}, L("stage", "sweep")).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP probes_total probes sent",
		"# TYPE probes_total counter",
		`probes_total{origin="US1"} 3`,
		"# TYPE depth gauge",
		"depth 2",
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{stage="sweep",le="1"} 1`,
		`dur_seconds_bucket{stage="sweep",le="10"} 1`,
		`dur_seconds_bucket{stage="sweep",le="+Inf"} 1`,
		`dur_seconds_sum{stage="sweep"} 0.5`,
		`dur_seconds_count{stage="sweep"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output: a second write of unchanged state is identical.
	var buf2 bytes.Buffer
	_ = r.WriteProm(&buf2)
	if buf.String() != buf2.String() {
		t.Error("two expositions of the same state differ")
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	r := New()
	r.Counter("c_total", L("origin", "AU")).Add(9)
	r.Gauge("g").Set(-4)
	r.Histogram("h_seconds", []float64{1}).Observe(2)
	r.StartSpan("scan", L("origin", "AU")).End(errors.New("boom"))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Counters) < 2 { // c_total plus the span's counters
		t.Errorf("counters = %+v", snap.Counters)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"spans"`)) {
		t.Errorf("snapshot carries spans; they belong in the journal:\n%s", buf.String())
	}
}

func TestSpanRecords(t *testing.T) {
	r := New()
	journal := journaled(t, r)
	sp := r.StartSpan("scan_stage", L("stage", "sweep"))
	time.Sleep(time.Millisecond)
	sp.End(nil)
	spans := journal()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Name != "scan_stage" || spans[0].Duration <= 0 {
		t.Errorf("span = %+v", spans[0])
	}
	if got := r.Counter("scan_stage_total", L("stage", "sweep")).Value(); got != 1 {
		t.Errorf("scan_stage_total = %d", got)
	}
	if _, _, count := r.Histogram("scan_stage_duration_seconds", DurationBuckets, L("stage", "sweep")).Snapshot(); count != 1 {
		t.Errorf("duration histogram count = %d", count)
	}
	// Error spans also bump the error counter.
	r.StartSpan("scan_stage", L("stage", "grab")).End(errors.New("x"))
	if got := r.Counter("scan_stage_errors_total", L("stage", "grab")).Value(); got != 1 {
		t.Errorf("errors_total = %d", got)
	}
}

func TestStageTraceHooksRecordStages(t *testing.T) {
	r := New()
	journal := journaled(t, r)
	var nextBefore, nextAfter int
	hooks := NewStageTrace(r, nil, L("origin", "US1")).Hooks(pipeline.Hooks{
		Before: func(_ context.Context, _ pipeline.Stage) { nextBefore++ },
		After:  func(_ context.Context, _ pipeline.Stage, _ error) { nextAfter++ },
	})
	err := pipeline.Runner{Hooks: hooks}.Run(context.Background(),
		pipeline.StageFunc{Stage: pipeline.StageSweep, Run: func(context.Context) error { return nil }},
		pipeline.StageFunc{Stage: pipeline.StageGrab, Run: func(context.Context) error { return errors.New("boom") }},
	)
	if err == nil {
		t.Fatal("expected stage failure")
	}
	if nextBefore != 2 || nextAfter != 2 {
		t.Errorf("wrapped hooks fired %d/%d, want 2/2", nextBefore, nextAfter)
	}
	spans := journal()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if !strings.Contains(spans[0].Labels, `stage="sweep"`) || spans[0].Err != "" {
		t.Errorf("sweep span = %+v", spans[0])
	}
	// The failing stage still records its span, with the error attached.
	if !strings.Contains(spans[1].Labels, `stage="grab"`) || spans[1].Err != "boom" {
		t.Errorf("grab span = %+v", spans[1])
	}
	// Nil registry passes hooks through untouched.
	var nilReg *Registry
	passthrough := pipeline.Hooks{Before: func(context.Context, pipeline.Stage) {}}
	if got := NewStageTrace(nilReg, nil).Hooks(passthrough); got.Before == nil || got.After != nil {
		t.Error("nil-registry stage trace did not pass hooks through")
	}
}

func TestServeMuxEndpoints(t *testing.T) {
	r := New()
	r.Counter("probes_total", L("origin", "US1")).Add(5)
	r.StartSpan("scan").End(nil)
	srv := httptest.NewServer(r.ServeMux())
	defer srv.Close()
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return buf.String()
	}
	if out := get("/metrics"); !strings.Contains(out, `probes_total{origin="US1"} 5`) {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"probes_total"`) {
		t.Errorf("/metrics.json missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "cmdline") {
		t.Errorf("/debug/vars not mounted:\n%s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Errorf("/debug/pprof/ not mounted:\n%s", out)
	}
}

func TestProgressLine(t *testing.T) {
	r := New()
	r.Gauge(MetricScansTotal).Set(9)
	r.Counter(MetricScansDone).Add(3)
	r.Counter(MetricProbesSent, L("origin", "US1")).Add(2_500_000)
	p := &Progress{reg: r, lastT: r.Start(), w: nil}
	line := p.line(r.Start().Add(30 * time.Second))
	for _, want := range []string{"scans 3/9", "2.5M probes", "ETA 1m0s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %q", want, line)
		}
	}
	// Rate window: 2.5M more probes one second later = 2.5M probes/s.
	r.Counter(MetricProbesSent, L("origin", "US1")).Add(2_500_000)
	line = p.line(r.Start().Add(31 * time.Second))
	if !strings.Contains(line, "2.5M probes/s") {
		t.Errorf("progress rate wrong: %q", line)
	}
	// Completed runs say done instead of an ETA.
	r.Counter(MetricScansDone).Add(6)
	line = p.line(r.Start().Add(32 * time.Second))
	if !strings.Contains(line, "done") || strings.Contains(line, "ETA") {
		t.Errorf("completed line = %q", line)
	}
}

func TestProgressStartStop(t *testing.T) {
	r := New()
	var buf syncBuffer
	p := StartProgress(r, &buf, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	p.Stop()
	if out := buf.String(); !strings.Contains(out, "scans 0/0") {
		t.Errorf("progress wrote %q", out)
	}
	if out := buf.String(); !strings.HasSuffix(out, "\n") {
		t.Error("Stop did not terminate the status line")
	}
	// Nil cases: no goroutine, Stop safe.
	StartProgress(nil, &buf, time.Millisecond).Stop()
	StartProgress(r, nil, time.Millisecond).Stop()
}

// syncBuffer is a mutex-guarded bytes.Buffer (Progress writes from its own
// goroutine).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLabelKeyRendersExpositionForm pins the canonical key: labels sorted
// by key, each k="v" with backslash, quote and newline escaped, for sets
// that fit the stack sort and one that does not, and a key longer than the
// stack buffer.
func TestLabelKeyRendersExpositionForm(t *testing.T) {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	render := func(ls []Label) string {
		ls = append([]Label(nil), ls...)
		sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		var parts []string
		for _, l := range ls {
			parts = append(parts, l.Key+`="`+esc.Replace(l.Value)+`"`)
		}
		return strings.Join(parts, ",")
	}
	var many []Label
	for i := stackLabels + 3; i > 0; i-- {
		many = append(many, L(fmt.Sprintf("k%02d", i), fmt.Sprint(i)))
	}
	for name, ls := range map[string][]Label{
		"empty":    nil,
		"one":      {L("origin", "US1")},
		"unsorted": {L("trial", "2"), L("origin", "US64"), L("proto", "https")},
		"escaped":  {L("b", `say "hi"`), L("a", "back\\slash\nnewline")},
		"many":     many,
		"long":     {L("banner", strings.Repeat("x", 2*keyBufSize))},
	} {
		if got, want := labelKey(ls), render(ls); got != want {
			t.Errorf("%s: labelKey = %q, want %q", name, got, want)
		}
	}
}

// TestLabelLookupAllocs holds the labeled-child lookup, which every scan
// makes about twenty times: resolving a child that exists allocates
// nothing, and a new one allocates its key, the child and its counter (map
// growth amortizes below one).
func TestLabelLookupAllocs(t *testing.T) {
	r := New()
	labels := []Label{L("trial", "0"), L("origin", "US1"), L("proto", "http")}
	c := r.Counter("x_total", labels...)
	if n := testing.AllocsPerRun(100, func() {
		if r.Counter("x_total", labels...) != c {
			t.Fatal("a repeat lookup resolved a different child")
		}
	}); n != 0 {
		t.Errorf("a repeat lookup allocates %v times, want 0", n)
	}
	trials := make([]string, 102)
	for i := range trials {
		trials[i] = fmt.Sprint(i)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("y_total", L("trial", trials[i]), L("origin", "US1"))
		i++
	}); n > 3 {
		t.Errorf("a new child allocates %v times, want at most 3 (key, child, counter)", n)
	}
	if got := len(r.lookup("y_total", kindCounter, nil).children()); got != 101 {
		t.Fatalf("%d children, want 101: the lookups did not each create one", got)
	}
}
