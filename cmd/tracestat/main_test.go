package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// printed returns what fn writes.
func printed(fn func(w io.Writer)) string {
	var b strings.Builder
	fn(&b)
	return b.String()
}

func TestQuantile(t *testing.T) {
	// Two observations in (0, 0.1], two in (0.1, 0.2], none in (0.2, 0.4],
	// one above 0.4.
	h := &telemetry.HistogramJSON{Bounds: []float64{0.1, 0.2, 0.4}, Buckets: []uint64{2, 2, 0, 1}, Count: 5}
	for _, tc := range []struct {
		q, want float64
	}{
		{0.2, 0.05},  // halfway through the first bucket
		{0.5, 0.125}, // a quarter into the second
		{0.8, 0.2},   // the second bucket's upper bound
		{0.85, 0.4},  // lands in +Inf: clamps to the highest finite bound
		{1, 0.4},
	} {
		if got := quantile(h, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(&telemetry.HistogramJSON{Bounds: []float64{1}, Buckets: []uint64{0, 0}}, 0.5); got != 0 {
		t.Errorf("empty histogram: quantile = %v, want 0", got)
	}
	// A quantile landing on an empty bucket reads as that bucket's bound.
	lead := &telemetry.HistogramJSON{Bounds: []float64{0.1, 0.2}, Buckets: []uint64{0, 2, 0}, Count: 2}
	if got := quantile(lead, 0); got != 0.1 {
		t.Errorf("q=0 over an empty first bucket = %v, want 0.1", got)
	}
}

func TestMergeHistogram(t *testing.T) {
	bounds := []float64{0.1, 1}
	snap := &telemetry.Snapshot{Histograms: []telemetry.HistogramJSON{
		{Name: "dial", Labels: `origin="US1"`, Bounds: bounds, Buckets: []uint64{1, 2, 0}, Sum: 1.5, Count: 3},
		{Name: "other", Bounds: bounds, Buckets: []uint64{9, 9, 9}, Sum: 99, Count: 27},
		{Name: "dial", Labels: `origin="CEN"`, Bounds: bounds, Buckets: []uint64{0, 1, 4}, Sum: 8.25, Count: 5},
	}}
	got := mergeHistogram(snap, "dial")
	want := &telemetry.HistogramJSON{Name: "dial", Labels: `origin="US1"`, Bounds: bounds, Buckets: []uint64{1, 3, 4}, Sum: 9.75, Count: 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged = %+v, want %+v", got, want)
	}
	if b := snap.Histograms[0].Buckets; !reflect.DeepEqual(b, []uint64{1, 2, 0}) {
		t.Errorf("merging changed the snapshot's first child: %v", b)
	}
	if h := mergeHistogram(snap, "absent"); h != nil {
		t.Errorf("absent family merged to %+v, want nil", h)
	}
}

func TestParseLabels(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]string
	}{
		{``, map[string]string{}},
		{`stage="sweep"`, map[string]string{"stage": "sweep"}},
		{`origin="US1",proto="http",stage="grab"`, map[string]string{"origin": "US1", "proto": "http", "stage": "grab"}},
		{`k="a\"b\\c\nd"`, map[string]string{"k": "a\"b\\c\nd"}},
		{`k=""`, map[string]string{"k": ""}},
		{`a="1",b`, map[string]string{"a": "1"}},
		{`k=v`, map[string]string{}},
	} {
		if got := parseLabels(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseLabels(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// studySpans is a small study → scan → stage tree: scan 2 is the longer
// scan and its sweep the longer stage; a flat record without an ID is
// longer than everything but anchors nothing.
func studySpans() []telemetry.SpanRecord {
	ms := time.Millisecond
	return []telemetry.SpanRecord{
		{Name: "legacy", Duration: time.Second},
		{ID: 1, Name: "study", Duration: 100 * ms},
		{ID: 2, Parent: 1, Name: "scan", Labels: `origin="US1"`, Duration: 60 * ms},
		{ID: 3, Parent: 1, Name: "scan", Labels: `origin="CEN"`, Duration: 30 * ms},
		{ID: 4, Parent: 2, Name: "scan_stage", Labels: `origin="US1",stage="sweep"`, Duration: 40 * ms, Children: 10, Dropped: 7},
		{ID: 5, Parent: 2, Name: "scan_stage", Labels: `origin="US1",stage="grab"`, Duration: 15 * ms},
		{ID: 6, Parent: 3, Name: "scan_stage", Labels: `origin="CEN",stage="sweep"`, Duration: 20 * ms},
		{ID: 7, Parent: 3, Name: "scan_stage", Labels: `origin="CEN",stage="grab"`, Duration: 5 * ms},
		{ID: 8, Parent: 4, Name: "sweep_batch", Duration: 3 * ms, Attrs: []telemetry.Attr{{Key: "targets", Value: 1}, {Key: "targets", Value: 4096}}},
		{ID: 9, Parent: 4, Name: "sweep_batch", Duration: 5 * ms},
		{ID: 10, Parent: 5, Name: "grab_window", Duration: 4 * ms, Attrs: []telemetry.Attr{{Key: "hosts", Value: 12}}},
	}
}

func TestCriticalPath(t *testing.T) {
	out := printed(func(w io.Writer) { criticalPath(w, studySpans()) })
	lines := strings.Split(strings.TrimSpace(out), "\n")
	want := []string{"Critical path", "study", `scan{origin="US1"}`, `scan_stage{origin="US1",stage="sweep"}`, "sweep_batch"}
	if len(lines) != len(want) {
		t.Fatalf("critical path has %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, w := range want {
		if !strings.HasPrefix(strings.TrimSpace(lines[i]), w) {
			t.Errorf("line %d = %q, want it to start with %q", i, lines[i], w)
		}
		if i > 0 && !strings.HasPrefix(lines[i], strings.Repeat("  ", i-1)+w) {
			t.Errorf("line %d = %q is not indented to depth %d", i, lines[i], i-1)
		}
	}
	if !strings.Contains(lines[3], "(3 of 10 children sampled)") || !strings.Contains(lines[3], "40ms") {
		t.Errorf("sweep stage line = %q, want its 40ms and the sampling note", lines[3])
	}
	if strings.Contains(out, "legacy") {
		t.Error("a record without an ID anchored the path")
	}
	if got := printed(func(w io.Writer) { criticalPath(w, studySpans()[:1]) }); got != "" {
		t.Errorf("no tree: printed %q", got)
	}
	// Cycles in a hostile journal end the descent at the first repeated ID.
	for name, tc := range map[string]struct {
		spans []telemetry.SpanRecord
		want  int // lines, the header included
	}{
		"self-parented": {selfParented(), 2},
		"2-cycle":       {twoCycle(), 4},
	} {
		out := printed(func(w io.Writer) { criticalPath(w, tc.spans) })
		if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != tc.want {
			t.Errorf("%s: critical path has %d lines, want %d:\n%s", name, len(lines), tc.want, out)
		}
	}
}

// selfParented is a journal's worth of spans whose only child is its own
// parent.
func selfParented() []telemetry.SpanRecord {
	return []telemetry.SpanRecord{{ID: 1, Name: "study"}, {ID: 1, Parent: 1, Name: "study"}}
}

// twoCycle is a tree whose root leads into two spans that are each other's
// parent.
func twoCycle() []telemetry.SpanRecord {
	return []telemetry.SpanRecord{
		{ID: 1, Name: "study", Duration: 3},
		{ID: 2, Parent: 1, Name: "scan", Duration: 2},
		{ID: 3, Parent: 2, Name: "scan_stage", Duration: 1},
		{ID: 2, Parent: 3, Name: "scan", Duration: 2},
	}
}

func TestStageBreakdown(t *testing.T) {
	out := printed(func(w io.Writer) { stageBreakdown(w, studySpans()) })
	rows := map[string][]string{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 5 {
			rows[f[0]] = f[1:]
		}
	}
	// 60 of the stages' 80 ms in sweeps, 20 in grabs; other spans ignored.
	want := map[string][]string{
		"sweep": {"2", "60ms", "30ms", "75.0%"},
		"grab":  {"2", "20ms", "10ms", "25.0%"},
	}
	for stage, w := range want {
		if got := rows[stage]; !reflect.DeepEqual(got, w) {
			t.Errorf("%s row = %q, want %q\n%s", stage, got, w, out)
		}
	}
	if len(rows) != 3 { // the header, sweep and grab
		t.Errorf("%d table rows, want 3:\n%s", len(rows), out)
	}
	if got := printed(func(w io.Writer) { stageBreakdown(w, nil) }); !strings.Contains(got, "no scan_stage spans") {
		t.Errorf("no stages: printed %q", got)
	}
}

func TestSlowest(t *testing.T) {
	out := printed(func(w io.Writer) { slowest(w, studySpans(), 2) })
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "top 2 of 3 sampled") {
		t.Fatalf("slowest printed:\n%s", out)
	}
	if !strings.Contains(lines[1], "sweep_batch") || !strings.Contains(lines[1], "5ms") {
		t.Errorf("slowest exemplar = %q, want the 5ms sweep_batch", lines[1])
	}
	if !strings.Contains(lines[2], "grab_window") || !strings.HasSuffix(lines[2], "hosts=12") {
		t.Errorf("second exemplar = %q, want the 4ms grab_window with its attrs", lines[2])
	}
	all := printed(func(w io.Writer) { slowest(w, studySpans(), 10) })
	if !strings.Contains(all, "targets=4096") || strings.Contains(all, "targets=1 ") {
		t.Errorf("duplicate attribute keys must keep the last write:\n%s", all)
	}
	if got := printed(func(w io.Writer) { slowest(w, studySpans(), 0) }); got != "" {
		t.Errorf("top 0: printed %q", got)
	}
}

// TestGrabAttributionFromJournal reads a real journal: a tiny study runs
// with a flight recorder attached and a spill store small enough to flush,
// and the final snapshot read back from the file holds one spill-flush and
// one merge observation per scan, which the store-path table prints as one
// row each. The grab path records no histograms, so there is no grab row.
func TestGrabAttributionFromJournal(t *testing.T) {
	dir, scans := studyJournal(t)

	evs, err := telemetry.ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := telemetry.JournalSnapshot(evs)
	if snap == nil {
		t.Fatal("journal has no final snapshot")
	}
	var segments int64
	for _, c := range snap.Counters {
		if c.Name == telemetry.MetricSpillSegments {
			segments += c.Value
		}
	}
	if segments == 0 {
		t.Fatal("the study spilled no segments: the budget does not exercise the spill store")
	}
	out := printed(func(w io.Writer) { storeAttribution(w, snap) })
	rows := map[string]string{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 7 && f[0] != "phase" {
			rows[f[0]] = f[1]
		}
	}
	want := map[string]string{"spill-flush": strconv.Itoa(scans), "merge": strconv.Itoa(scans)}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("attribution rows (phase → count) = %v, want %v, one observation per scan:\n%s", rows, want, out)
	}
	if got := printed(func(w io.Writer) { storeAttribution(w, &telemetry.Snapshot{}) }); !strings.Contains(got, "did not spill") {
		t.Errorf("a snapshot without store histograms printed:\n%s", got)
	}
}

// studyJournal runs a tiny study with a flight recorder attached and every
// scan's results through a spill store whose budget forces flushes, and
// returns the directory holding its journal and the number of scans.
func studyJournal(tb testing.TB) (string, int) {
	tb.Helper()
	dir := tb.TempDir()
	reg := telemetry.New()
	rec, err := telemetry.NewRecorder(filepath.Join(dir, telemetry.JournalFile))
	if err != nil {
		tb.Fatal(err)
	}
	reg.AttachRecorder(rec)
	cfg := experiment.Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00003}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:     origin.Set{origin.US1},
		Parallelism: 1,
		Telemetry:   reg,
		SpillDir:    tb.TempDir(),
		MemBudget:   4 << 10,
	}
	st, err := experiment.NewStudy(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := st.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	if err := reg.CloseRecorder(); err != nil {
		tb.Fatal(err)
	}
	for _, p := range cfg.Protocols {
		if ds.Scan(origin.US1, p, 0).Len() == 0 {
			tb.Fatalf("%v scan sealed no rows", p)
		}
	}
	return dir, len(cfg.Protocols)
}

// journalOf encodes spans as journal lines.
func journalOf(tb testing.TB, spans []telemetry.SpanRecord) []byte {
	tb.Helper()
	var b []byte
	for i := range spans {
		line, err := json.Marshal(telemetry.JournalEvent{Ev: "span", Span: &spans[i]})
		if err != nil {
			tb.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}

// FuzzJournal feeds tracestat hostile journals: whatever a journal file
// holds, reading it either fails or every pass over it returns — no panic,
// no endless descent through a cyclic span tree. Seeded with a real study's
// journal, the same journal torn mid-way through its final line (a killed
// run's last write), and the two cycle shapes.
func FuzzJournal(f *testing.F) {
	dir, _ := studyJournal(f)
	seed, err := os.ReadFile(filepath.Join(dir, telemetry.JournalFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	last := bytes.LastIndexByte(seed[:len(seed)-1], '\n') + 1
	f.Add(seed[:last+(len(seed)-last)/2])
	f.Add(journalOf(f, selfParented()))
	f.Add(journalOf(f, twoCycle()))

	path := filepath.Join(f.TempDir(), telemetry.JournalFile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		evs, err := telemetry.ReadJournal(path)
		if err != nil {
			return
		}
		spans := telemetry.JournalSpans(evs)
		snap := telemetry.JournalSnapshot(evs)
		header(io.Discard, evs, spans, snap)
		stageBreakdown(io.Discard, spans)
		originBreakdown(io.Discard, spans)
		criticalPath(io.Discard, spans)
		slowest(io.Discard, spans, 10)
		storeAttribution(io.Discard, snap)
	})
}
