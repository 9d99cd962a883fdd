// Command tracestat analyzes a flight-recorder journal written by
// originscan -trace-dir: it reconstructs the study→scan→stage→batch trace
// tree and prints where the wall time went — per stage, per origin, along
// the critical path, and in the slowest sampled batch/window exemplars —
// plus the store path's spill-flush and merge distributions from the
// journal's final metrics snapshot. Grab time is read from the per-stage
// table and from the grab_window exemplars, whose hosts attribute says how
// many replies the slot held: the grab path counts, it does not time.
//
// Usage:
//
//	tracestat [-top N] [-chrome out.json] DIR|journal.jsonl
//
// The argument is either a -trace-dir directory (the tool opens
// journal.jsonl inside it) or a journal file directly. The journal is the
// study's one span record and is written a whole line at a time, so the
// tool reads it while the study is still running, or after a kill, up to
// the last completed span; such a journal has no final snapshot yet.
// -chrome additionally converts every journaled span to Chrome
// trace_event JSON — the same conversion originscan makes for its own
// trace.json when the study ends.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

func main() {
	var (
		topN   = flag.Int("top", 10, "how many slowest batch/window exemplars to print")
		chrome = flag.String("chrome", "", "also write the journal's spans as Chrome trace_event JSON to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-top N] [-chrome out.json] DIR|journal.jsonl")
		os.Exit(2)
	}

	evs, err := telemetry.ReadJournal(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	spans := telemetry.JournalSpans(evs)
	snap := telemetry.JournalSnapshot(evs)

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatalf("creating -chrome file: %v", err)
		}
		if err := telemetry.WriteChromeTrace(f, spans); err != nil {
			f.Close()
			fatalf("writing -chrome file: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing -chrome file: %v", err)
		}
		fmt.Printf("Chrome trace (%d spans) written to %s\n\n", len(spans), *chrome)
	}

	header(os.Stdout, evs, spans, snap)
	stageBreakdown(os.Stdout, spans)
	originBreakdown(os.Stdout, spans)
	criticalPath(os.Stdout, spans)
	slowest(os.Stdout, spans, *topN)
	storeAttribution(os.Stdout, snap)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracestat: "+format+"\n", args...)
	os.Exit(1)
}

// header summarizes the journal itself: event and span counts, whether the
// run sealed cleanly (a final snapshot exists), and the trace's wall span.
func header(w io.Writer, evs []telemetry.JournalEvent, spans []telemetry.SpanRecord, snap *telemetry.Snapshot) {
	state := "no final snapshot (run did not close cleanly)"
	if snap != nil {
		state = "final snapshot present"
	}
	fmt.Fprintf(w, "journal: %d events, %d spans, %s\n", len(evs), len(spans), state)
	for _, ev := range evs {
		if ev.Ev == "meta" && ev.Meta != nil {
			fmt.Fprintf(w, "run: pid %d, started %s\n", ev.Meta.PID, ev.Meta.Start.Format(time.RFC3339))
			break
		}
	}
	if len(spans) > 0 {
		var lo, hi int64
		lo = spans[0].StartNS
		for _, s := range spans {
			if s.StartNS < lo {
				lo = s.StartNS
			}
			if end := s.StartNS + int64(s.Duration); end > hi {
				hi = end
			}
		}
		fmt.Fprintf(w, "trace window: %s\n", time.Duration(hi-lo).Round(time.Millisecond))
	}
	fmt.Fprintln(w)
}

// agg accumulates wall time for one grouping key.
type agg struct {
	key   string
	n     int
	total time.Duration
}

// stageBreakdown sums the "scan_stage" spans by their stage label: the
// study-wide answer to "which lifecycle stage costs the wall time".
func stageBreakdown(w io.Writer, spans []telemetry.SpanRecord) {
	byStage := map[string]*agg{}
	var order []string
	var grand time.Duration
	for _, s := range spans {
		if s.Name != "scan_stage" {
			continue
		}
		stage := parseLabels(s.Labels)["stage"]
		a := byStage[stage]
		if a == nil {
			a = &agg{key: stage}
			byStage[stage] = a
			order = append(order, stage)
		}
		a.n++
		a.total += s.Duration
		grand += s.Duration
	}
	if grand == 0 {
		fmt.Fprintln(w, "no scan_stage spans in journal")
		return
	}
	fmt.Fprintln(w, "Per-stage wall time (scan_stage spans, all scans)")
	fmt.Fprintf(w, "%-10s %6s %12s %12s %7s\n", "stage", "spans", "total", "mean", "share")
	for _, k := range order {
		a := byStage[k]
		fmt.Fprintf(w, "%-10s %6d %12s %12s %6.1f%%\n", a.key, a.n,
			a.total.Round(time.Millisecond), (a.total / time.Duration(a.n)).Round(time.Microsecond),
			100*float64(a.total)/float64(grand))
	}
	fmt.Fprintln(w)
}

// originBreakdown crosses origin × stage: the per-vantage-point cost
// matrix, which is the study's own unit of comparison.
func originBreakdown(w io.Writer, spans []telemetry.SpanRecord) {
	type cell struct{ total time.Duration }
	rows := map[string]map[string]*cell{}
	var origins, stages []string
	seenO, seenS := map[string]bool{}, map[string]bool{}
	for _, s := range spans {
		if s.Name != "scan_stage" {
			continue
		}
		ls := parseLabels(s.Labels)
		o, st := ls["origin"], ls["stage"]
		if o == "" || st == "" {
			continue
		}
		if !seenO[o] {
			seenO[o] = true
			origins = append(origins, o)
		}
		if !seenS[st] {
			seenS[st] = true
			stages = append(stages, st)
		}
		if rows[o] == nil {
			rows[o] = map[string]*cell{}
		}
		if rows[o][st] == nil {
			rows[o][st] = &cell{}
		}
		rows[o][st].total += s.Duration
	}
	if len(origins) == 0 {
		return
	}
	fmt.Fprintln(w, "Per-origin wall time by stage")
	fmt.Fprintf(w, "%-10s", "origin")
	for _, st := range stages {
		fmt.Fprintf(w, " %12s", st)
	}
	fmt.Fprintf(w, " %12s\n", "total")
	for _, o := range origins {
		fmt.Fprintf(w, "%-10s", o)
		var tot time.Duration
		for _, st := range stages {
			var d time.Duration
			if c := rows[o][st]; c != nil {
				d = c.total
			}
			tot += d
			fmt.Fprintf(w, " %12s", d.Round(time.Millisecond))
		}
		fmt.Fprintf(w, " %12s\n", tot.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
}

// criticalPath walks the trace tree from its root, descending into the
// longest child at each level: the chain of spans that bounded the run's
// wall time. A hostile journal can make the "tree" cyclic (a span its own
// parent, or two spans each other's), so the walk stops at an ID it has
// already printed.
func criticalPath(w io.Writer, spans []telemetry.SpanRecord) {
	children := map[telemetry.SpanID][]telemetry.SpanRecord{}
	var roots []telemetry.SpanRecord
	for _, s := range spans {
		if s.Parent == 0 {
			if s.ID != 0 { // flat legacy records (no ID) cannot anchor a tree
				roots = append(roots, s)
			}
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	if len(roots) == 0 {
		return
	}
	// The root with the longest duration is the run's backbone (normally
	// the single "study" span).
	root := roots[0]
	for _, r := range roots[1:] {
		if r.Duration > root.Duration {
			root = r
		}
	}
	fmt.Fprintln(w, "Critical path (longest child at each level)")
	cur, depth := root, 0
	visited := map[telemetry.SpanID]bool{}
	for !visited[cur.ID] {
		visited[cur.ID] = true
		name := cur.Name
		if cur.Labels != "" {
			name += "{" + cur.Labels + "}"
		}
		note := ""
		if cur.Dropped > 0 {
			note = fmt.Sprintf("  (%d of %d children sampled)", cur.Children-cur.Dropped, cur.Children)
		}
		fmt.Fprintf(w, "%s%-*s %12s%s\n", strings.Repeat("  ", depth), 60-2*depth, name,
			cur.Duration.Round(time.Microsecond), note)
		kids := children[cur.ID]
		if len(kids) == 0 {
			break
		}
		next := kids[0]
		for _, k := range kids[1:] {
			if k.Duration > next.Duration {
				next = k
			}
		}
		cur = next
		depth++
	}
	fmt.Fprintln(w)
}

// slowest prints the top-N slowest sampled batch/window exemplars — the
// concrete units to stare at when a stage's mean looks wrong.
func slowest(w io.Writer, spans []telemetry.SpanRecord, n int) {
	var ex []telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == "sweep_batch" || s.Name == "grab_window" {
			ex = append(ex, s)
		}
	}
	if len(ex) == 0 || n <= 0 {
		return
	}
	sort.Slice(ex, func(i, j int) bool { return ex[i].Duration > ex[j].Duration })
	total := len(ex)
	if len(ex) > n {
		ex = ex[:n]
	}
	fmt.Fprintf(w, "Slowest batch/window exemplars (top %d of %d sampled)\n", len(ex), total)
	for _, s := range ex {
		line := s.Name
		if s.Labels != "" {
			line += "{" + s.Labels + "}"
		}
		fmt.Fprintf(w, "  %-40s %12s  %s\n", line, s.Duration.Round(time.Microsecond), attrString(s.Attrs))
	}
	fmt.Fprintln(w)
}

// storeAttribution prints the store path's wall-time distributions from
// the journal's final snapshot: each spilled scan's segment flushes and its
// seal's external merge. A study that did not spill has neither.
func storeAttribution(w io.Writer, snap *telemetry.Snapshot) {
	if snap == nil {
		fmt.Fprintln(w, "store-path attribution unavailable: journal has no final snapshot")
		return
	}
	rows := []struct{ label, family string }{
		{"spill-flush", telemetry.MetricSpillFlushSeconds},
		{"merge", telemetry.MetricMergeSeconds},
	}
	fmt.Fprintln(w, "Store-path attribution (final snapshot histograms, one observation per spilled scan)")
	fmt.Fprintf(w, "%-14s %10s %12s %10s %10s %10s %10s\n",
		"phase", "count", "total", "mean", "p50", "p90", "p99")
	any := false
	for _, row := range rows {
		h := mergeHistogram(snap, row.family)
		if h == nil || h.Count == 0 {
			continue
		}
		any = true
		mean := h.Sum / float64(h.Count)
		fmt.Fprintf(w, "%-14s %10d %12s %10s %10s %10s %10s\n", row.label, h.Count,
			secs(h.Sum), secs(mean), secs(quantile(h, 0.5)), secs(quantile(h, 0.9)), secs(quantile(h, 0.99)))
	}
	if !any {
		fmt.Fprintln(w, "  (no store-path histograms in snapshot: the study did not spill)")
	}
}

// mergeHistogram sums every labeled child of one histogram family (the
// children share bounds by construction — one family, one bucket layout).
func mergeHistogram(snap *telemetry.Snapshot, name string) *telemetry.HistogramJSON {
	var out *telemetry.HistogramJSON
	for i := range snap.Histograms {
		h := &snap.Histograms[i]
		if h.Name != name {
			continue
		}
		if out == nil {
			cp := *h
			cp.Buckets = append([]uint64(nil), h.Buckets...)
			out = &cp
			continue
		}
		for j := range h.Buckets {
			if j < len(out.Buckets) {
				out.Buckets[j] += h.Buckets[j]
			}
		}
		out.Sum += h.Sum
		out.Count += h.Count
	}
	return out
}

// quantile estimates the q-quantile from per-bucket counts with linear
// interpolation inside the landing bucket (the Prometheus convention). The
// +Inf bucket clamps to the highest finite bound.
func quantile(h *telemetry.HistogramJSON, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := uint64(0)
	for i, b := range h.Buckets {
		prev := cum
		cum += b
		if float64(cum) < target {
			continue
		}
		if i >= len(h.Bounds) { // +Inf bucket
			if len(h.Bounds) == 0 {
				return 0
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if b == 0 {
			return hi
		}
		return lo + (hi-lo)*(target-float64(prev))/float64(b)
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// secs renders a duration given in (possibly fractional) seconds.
func secs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// attrString renders span attributes as k=v pairs, keeping the last write
// for duplicate keys (SetAttr appends).
func attrString(attrs []telemetry.Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	last := map[string]int64{}
	var order []string
	for _, a := range attrs {
		if _, ok := last[a.Key]; !ok {
			order = append(order, a.Key)
		}
		last[a.Key] = a.Value
	}
	parts := make([]string, 0, len(order))
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s=%d", k, last[k]))
	}
	return strings.Join(parts, " ")
}

// parseLabels decodes the canonical label form k="v",k2="v2" (values
// escape \, ", and newline as \\, \", \n — the Prometheus exposition
// escaping labelKey produces).
func parseLabels(s string) map[string]string {
	out := map[string]string{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || eq+1 >= len(s[i:]) || s[i+eq+1] != '"' {
			break
		}
		key := s[i : i+eq]
		j := i + eq + 2 // first byte of the value
		var b strings.Builder
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' && j+1 < len(s) {
				switch s[j+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[j+1])
				}
				j += 2
				continue
			}
			b.WriteByte(s[j])
			j++
		}
		out[key] = b.String()
		i = j + 1 // past the closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	return out
}
