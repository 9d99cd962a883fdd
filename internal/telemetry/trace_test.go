package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// journaled attaches a flight recorder in a test directory to r and
// returns a reader for the spans journaled so far: tests read spans where
// the program keeps them.
func journaled(t testing.TB, r *Registry) func() []SpanRecord {
	t.Helper()
	rc, err := NewRecorder(filepath.Join(t.TempDir(), JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	r.AttachRecorder(rc)
	t.Cleanup(func() { _ = r.CloseRecorder() })
	return func() []SpanRecord {
		t.Helper()
		evs, err := ReadJournal(rc.Path())
		if err != nil {
			t.Fatal(err)
		}
		return JournalSpans(evs)
	}
}

// findSpan returns the last journaled record with the given name.
func findSpan(t *testing.T, recs []SpanRecord, name string) SpanRecord {
	t.Helper()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Name == name {
			return recs[i]
		}
	}
	t.Fatalf("no %q span in %d records", name, len(recs))
	return SpanRecord{}
}

func TestSpanHierarchy(t *testing.T) {
	r := New()
	spans := journaled(t, r)
	study := r.StartSpan("study", L("family", "ipv4"))
	scan := study.StartChild("scan", L("origin", "US1"))
	stage := scan.StartChild("scan_stage", L("stage", "sweep"))
	stage.SetAttr("targets", 1024)
	stage.End(nil)
	scan.End(nil)
	study.End(errors.New("boom"))

	recs := spans()
	st := findSpan(t, recs, "study")
	sc := findSpan(t, recs, "scan")
	sg := findSpan(t, recs, "scan_stage")
	if st.ID == 0 || sc.ID == 0 || sg.ID == 0 {
		t.Fatalf("span IDs not allocated: study=%d scan=%d stage=%d", st.ID, sc.ID, sg.ID)
	}
	if st.Parent != 0 {
		t.Errorf("study parent = %d, want 0 (root)", st.Parent)
	}
	if sc.Parent != st.ID {
		t.Errorf("scan parent = %d, want study id %d", sc.Parent, st.ID)
	}
	if sg.Parent != sc.ID {
		t.Errorf("stage parent = %d, want scan id %d", sg.Parent, sc.ID)
	}
	if st.Children != 1 || st.Dropped != 0 {
		t.Errorf("study children/dropped = %d/%d, want 1/0", st.Children, st.Dropped)
	}
	if st.Err != "boom" {
		t.Errorf("study err = %q", st.Err)
	}
	if len(sg.Attrs) != 1 || sg.Attrs[0] != (Attr{Key: "targets", Value: 1024}) {
		t.Errorf("stage attrs = %+v", sg.Attrs)
	}
	// The monotonic offsets order the tree on one timeline: a child starts
	// at or after its parent, and no span starts before the registry epoch.
	if st.StartNS < 0 || sc.StartNS < st.StartNS || sg.StartNS < sc.StartNS {
		t.Errorf("StartNS not monotonic down the tree: study=%d scan=%d stage=%d",
			st.StartNS, sc.StartNS, sg.StartNS)
	}
	// Ending a span feeds the metric families derived from its name.
	if got := r.Counter("study_errors_total", L("family", "ipv4")).Value(); got != 1 {
		t.Errorf("study_errors_total = %d, want 1", got)
	}
	if got := r.Counter("scan_total", L("origin", "US1")).Value(); got != 1 {
		t.Errorf("scan_total = %d, want 1", got)
	}
}

func TestChildTracerBoundedSampling(t *testing.T) {
	r := New()
	spans := journaled(t, r)
	parent := r.StartSpan("scan_stage", L("stage", "sweep"))
	tr := parent.ChildTracer("sweep_batch")
	const units = 100_000
	for i := 0; i < units; i++ {
		tr.Begin()
		tr.End(A("targets", int64(i)))
	}
	parent.End(nil)

	// live when n < sampleFirst or n % sampleEvery == 0 over n = 0..99999:
	// 32 startup exemplars plus 1024,2048,...,99328.
	const wantLive = sampleFirst + (units-1)/sampleEvery
	if got := tr.Count(); got != units {
		t.Errorf("Count = %d, want %d", got, units)
	}
	recs := spans()
	p := findSpan(t, recs, "scan_stage")
	if p.Children != units {
		t.Errorf("parent children = %d, want %d", p.Children, units)
	}
	if p.Dropped != units-wantLive {
		t.Errorf("parent dropped = %d, want %d (=%d recorded)", p.Dropped, units-wantLive, wantLive)
	}
	live := 0
	for _, rec := range recs {
		if rec.Name == "sweep_batch" {
			live++
			if rec.Parent != p.ID {
				t.Fatalf("exemplar parent = %d, want %d", rec.Parent, p.ID)
			}
		}
	}
	if live != wantLive {
		t.Errorf("%d exemplar spans recorded, want %d", live, wantLive)
	}
}

func TestNilRegistryTracingIsInert(t *testing.T) {
	var r *Registry
	sp := r.StartSpan("study")
	if sp != nil {
		t.Fatal("nil registry returned a non-nil span")
	}
	// Every method must be a safe no-op on the nil span and everything
	// derived from it.
	sp.SetAttr("k", 1)
	sp.End(nil)
	if id := sp.ID(); id != 0 {
		t.Errorf("nil span ID = %d", id)
	}
	if child := sp.StartChild("scan"); child != nil {
		t.Error("nil span produced a non-nil child")
	}
	ct := sp.ChildTracer("batch")
	if ct != nil {
		t.Error("nil span produced a non-nil ChildTracer")
	}
	ct.Begin()
	ct.End(A("k", 1))
	if n := ct.Count(); n != 0 {
		t.Errorf("nil tracer Count = %d", n)
	}
	if st := NewStageTrace(nil, nil); st != nil {
		t.Error("NewStageTrace(nil, ...) != nil")
	}
	var st *StageTrace
	if got := st.Span(0); got != nil {
		t.Error("nil StageTrace handed out a non-nil span")
	}
}

// TestConcurrentSpanCreation exercises the span tree under -race: many
// goroutines opening children, attaching attributes, and running child
// tracers against one shared parent.
func TestConcurrentSpanCreation(t *testing.T) {
	r := New()
	spans := journaled(t, r)
	root := r.StartSpan("study")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.StartChild("scan", L("origin", fmt.Sprintf("o%d", w)))
				sp.SetAttr("i", int64(i))
				root.SetAttr("touch", int64(w))
				sp.End(nil)
			}
		}(w)
	}
	wg.Wait()
	root.End(nil)
	recs := spans()
	if len(recs) != workers*perWorker+1 {
		t.Errorf("%d spans journaled, want %d", len(recs), workers*perWorker+1)
	}
	rec := findSpan(t, recs, "study")
	if rec.Children != workers*perWorker {
		t.Errorf("root children = %d, want %d", rec.Children, workers*perWorker)
	}
	ids := map[SpanID]bool{}
	for _, s := range recs {
		if ids[s.ID] && s.ID != 0 {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = true
	}
}

// TestChromeTraceSchema locks the trace_event export shape: complete
// events with pid/tid/ts/dur, microsecond timestamps, and children mapped
// onto their scan-level ancestor's track.
func TestChromeTraceSchema(t *testing.T) {
	r := New()
	spans := journaled(t, r)
	study := r.StartSpan("study")
	scanA := study.StartChild("scan", L("origin", "US1"))
	stage := scanA.StartChild("scan_stage", L("stage", "sweep"))
	time.Sleep(time.Millisecond)
	stage.End(nil)
	scanA.End(nil)
	scanB := study.StartChild("scan", L("origin", "AU"))
	scanB.End(nil)
	study.End(nil)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(trace.TraceEvents) != 4 {
		t.Fatalf("%d trace events, want 4", len(trace.TraceEvents))
	}
	tracks := map[string]uint64{}
	for _, ev := range trace.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.Pid != 1 || ev.Tid == 0 {
			t.Errorf("malformed event %+v", ev)
		}
		if ev.Ts == nil || ev.Dur == nil || *ev.Ts < 0 || *ev.Dur < 0 {
			t.Errorf("event %q missing or negative ts/dur", ev.Name)
		}
		key := ev.Name
		if lb, ok := ev.Args["labels"].(string); ok {
			key += "{" + lb + "}"
		}
		tracks[key] = ev.Tid
	}
	// The stage span renders on its scan's track, and the two scans get
	// distinct tracks.
	if tracks[`scan_stage{stage="sweep"}`] != tracks[`scan{origin="US1"}`] {
		t.Errorf("stage not on its scan's track: %v", tracks)
	}
	if tracks[`scan{origin="US1"}`] == tracks[`scan{origin="AU"}`] {
		t.Errorf("distinct scans share a track: %v", tracks)
	}
	// The stage slept ≥1ms; ts/dur are microseconds, so dur must be ≥1000.
	var stageDur float64
	for _, ev := range trace.TraceEvents {
		if ev.Name == "scan_stage" {
			stageDur = *ev.Dur
		}
	}
	if stageDur < 1000 {
		t.Errorf("stage dur = %vµs, want ≥1000 (timestamps must be microseconds)", stageDur)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := New()
	rec, err := NewRecorder(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	r.AttachRecorder(rec)

	study := r.StartSpan("study")
	scan := study.StartChild("scan", L("origin", "US1"))
	tr := scan.ChildTracer("sweep_batch")
	tr.Begin()
	tr.End(A("targets", 4096))
	scan.End(nil)
	study.End(nil)
	r.Counter("probes_total", L("origin", "US1")).Add(7)
	r.Histogram(MetricSpillFlushSeconds, DurationBuckets).Observe(0.002)
	if err := r.CloseRecorder(); err != nil {
		t.Fatal(err)
	}

	// ReadJournal accepts the directory (it finds JournalFile inside).
	evs, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Ev != "meta" || evs[0].Meta == nil {
		t.Fatalf("journal does not open with a meta event: %+v", evs)
	}
	if !evs[0].Meta.Start.Equal(r.Start()) {
		t.Errorf("meta start %v, want registry epoch %v", evs[0].Meta.Start, r.Start())
	}
	spans := JournalSpans(evs)
	if len(spans) != 3 {
		t.Fatalf("%d journaled spans, want 3", len(spans))
	}
	// Journal order is commit order: exemplar, scan, study — and the ID
	// linkage survives the round trip.
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["scan"].Parent != byName["study"].ID {
		t.Errorf("scan parent %d, want %d", byName["scan"].Parent, byName["study"].ID)
	}
	if byName["sweep_batch"].Parent != byName["scan"].ID {
		t.Errorf("batch parent %d, want %d", byName["sweep_batch"].Parent, byName["scan"].ID)
	}
	snap := JournalSnapshot(evs)
	if snap == nil {
		t.Fatal("journal has no final snapshot")
	}
	foundCounter, foundHist := false, false
	for _, c := range snap.Counters {
		if c.Name == "probes_total" && c.Value == 7 {
			foundCounter = true
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == MetricSpillFlushSeconds && h.Count == 1 {
			foundHist = true
		}
	}
	if !foundCounter || !foundHist {
		t.Errorf("snapshot missing counter/histogram: counter=%v hist=%v", foundCounter, foundHist)
	}

	// CloseRecorder with nothing attached is a no-op.
	if err := r.CloseRecorder(); err != nil {
		t.Errorf("second CloseRecorder: %v", err)
	}
}

// TestRecorderUnclosedJournalReadable holds the recorder to its crash
// promise: every span committed before the process dies is in the file,
// with no close and no flush.
func TestRecorderUnclosedJournalReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFile)
	rc, err := NewRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rc.Close() })
	r := New()
	r.AttachRecorder(rc)
	const n = 40
	for i := 0; i < n; i++ {
		r.StartSpan("scan").End(nil)
	}
	evs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(JournalSpans(evs)); got != n {
		t.Errorf("unclosed journal holds %d spans, want %d", got, n)
	}
}

// TestReadJournalTornFinalLine cuts a sealed journal at every byte: each
// cut reads back every complete event before it, and never fails. A
// malformed line that does end in a newline is still an error.
func TestReadJournalTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, JournalFile)
	rc, err := NewRecorder(src)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.AttachRecorder(rc)
	study := r.StartSpan("study")
	for i := 0; i < 3; i++ {
		study.StartChild("scan", L("origin", fmt.Sprint(i))).End(nil)
	}
	study.End(nil)
	if err := r.CloseRecorder(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ReadJournal(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 6 { // meta, four spans, snapshot
		t.Fatalf("sealed journal has %d events, want 6", len(full))
	}

	cut := filepath.Join(dir, "cut.jsonl")
	for n := 0; n <= len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		evs, err := ReadJournal(cut)
		if err != nil {
			t.Fatalf("journal cut at byte %d: %v", n, err)
		}
		// Every newline-terminated line is an event; the unterminated rest
		// is one more only if it happens to be a whole object.
		complete := bytes.Count(data[:n], []byte("\n"))
		if len(evs) != complete && len(evs) != complete+1 {
			t.Fatalf("journal cut at byte %d: %d events, %d complete lines", n, len(evs), complete)
		}
		for i := range evs {
			if evs[i].Ev != full[i].Ev {
				t.Fatalf("journal cut at byte %d: event %d is %q, want %q", n, i, evs[i].Ev, full[i].Ev)
			}
		}
	}

	// A malformed line in the middle of the file is no torn write.
	line2 := bytes.SplitAfter(data, []byte("\n"))[1]
	bad := bytes.Replace(data, line2, append(line2[:10:10], '\n'), 1)
	if err := os.WriteFile(cut, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(cut); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Errorf("malformed line 2 read as %v, want an error naming line 2", err)
	}
}

// TestProgressGrabPhase pins the readout switch: once the sweep's probe
// counters go quiet while grab completions climb, the rate and ETA are
// reported in grab-host completions.
func TestProgressGrabPhase(t *testing.T) {
	r := New()
	r.Gauge(MetricScansTotal).Set(4)
	r.Counter(MetricProbesSent, L("origin", "US1")).Add(1_000_000)
	p := &Progress{reg: r, lastT: r.Start(), w: nil}

	// Sweep running: probes rising, readout in probes/s.
	line := p.line(r.Start().Add(1 * time.Second))
	if !contains(line, "probes/s") || contains(line, "grabs") {
		t.Errorf("sweep-phase line = %q", line)
	}

	// Sweep done, grab stage working through its backlog.
	r.Gauge(MetricGrabHosts, L("origin", "US1")).Set(1000)
	r.Counter(MetricGrabHostsDone, L("origin", "US1")).Add(500)
	line = p.line(r.Start().Add(2 * time.Second))
	for _, want := range []string{"grabs 500/1.0k", "500 grabs/s", "ETA 1s"} {
		if !contains(line, want) {
			t.Errorf("grab-phase line missing %q: %q", want, line)
		}
	}
	if contains(line, "probes/s") {
		t.Errorf("grab-phase line still reports probe rate: %q", line)
	}

	// Grabs finished too: both rates zero, back to the scan-count ETA path.
	r.Counter(MetricScansDone).Add(4)
	line = p.line(r.Start().Add(3 * time.Second))
	if !contains(line, "done") || contains(line, "grabs ") {
		t.Errorf("completed line = %q", line)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
