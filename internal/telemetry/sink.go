// Sinks: Prometheus-style text exposition, a JSON snapshot writer, and an
// http.ServeMux mounting both plus pprof and expvar. The sinks read the
// registry with the same atomics the hot paths write, so they can be
// scraped mid-run; values within one exposition are per-metric consistent
// (each child is read once) but not a cross-metric atomic snapshot, which
// is the standard Prometheus contract.
package telemetry

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// WriteProm writes the registry in the Prometheus text exposition format
// (families sorted by name, children by label set — stable output for
// diffing two scrapes). A nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		f.mu.Lock()
		help := f.help
		f.mu.Unlock()
		if help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range f.children() {
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, "", ch.labels, "", float64(ch.c.Value()))
			case kindGauge:
				writeSample(bw, f.name, "", ch.labels, "", float64(ch.g.Value()))
			case kindHistogram:
				buckets, sum, count := ch.h.Snapshot()
				cum := uint64(0)
				for i, b := range buckets {
					cum += b
					le := "+Inf"
					if i < len(f.bounds) {
						le = formatFloat(f.bounds[i])
					}
					writeSample(bw, f.name, "_bucket", ch.labels, `le="`+le+`"`, float64(cum))
				}
				writeSample(bw, f.name, "_sum", ch.labels, "", sum)
				writeSample(bw, f.name, "_count", ch.labels, "", float64(count))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one exposition line, merging the child's canonical
// label string with an extra label (histogram le).
func writeSample(w io.Writer, name, suffix, labels, extra string, v float64) {
	lb := labels
	if extra != "" {
		if lb != "" {
			lb += ","
		}
		lb += extra
	}
	if lb != "" {
		lb = "{" + lb + "}"
	}
	fmt.Fprintf(w, "%s%s%s %s\n", name, suffix, lb, formatFloat(v))
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is the JSON form of the registry: every family's children with
// their current values. Families and children are sorted, so two
// snapshots of identical state encode identically. Spans are not part of
// it: they live in the flight-recorder journal.
type Snapshot struct {
	// PeakRSSBytes is the process's peak resident set (VmHWM) at snapshot
	// time, 0 where unavailable: memory pressure is visible in a scrape
	// without a separate endpoint.
	PeakRSSBytes int64           `json:"peak_rss_bytes,omitempty"`
	Counters     []SampleJSON    `json:"counters"`
	Gauges       []SampleJSON    `json:"gauges"`
	Histograms   []HistogramJSON `json:"histograms"`
}

// SampleJSON is one counter or gauge child.
type SampleJSON struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// HistogramJSON is one histogram child: cumulative bucket counts aligned
// with Bounds (the final bucket is +Inf).
type HistogramJSON struct {
	Name    string    `json:"name"`
	Labels  string    `json:"labels,omitempty"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Sum     float64   `json:"sum"`
	Count   uint64    `json:"count"`
}

// Snapshot captures the registry's current state. Nil registry returns an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	if b, ok := PeakRSSBytes(); ok {
		snap.PeakRSSBytes = b
	}
	for _, f := range r.sortedFamilies() {
		for _, ch := range f.children() {
			switch f.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters, SampleJSON{Name: f.name, Labels: ch.labels, Value: int64(ch.c.Value())})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, SampleJSON{Name: f.name, Labels: ch.labels, Value: ch.g.Value()})
			case kindHistogram:
				buckets, sum, count := ch.h.Snapshot()
				snap.Histograms = append(snap.Histograms, HistogramJSON{
					Name: f.name, Labels: ch.labels, Bounds: f.bounds,
					Buckets: buckets, Sum: sum, Count: count,
				})
			}
		}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON. Nil registry writes an
// empty snapshot.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeMux returns an http mux exposing the registry and the process
// debug surfaces:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot (counters, gauges, histograms)
//	/debug/vars    expvar
//	/debug/pprof/  pprof index (profile, heap, goroutine, trace, ...)
//
// cmd/originscan serves this on -telemetry-addr. Spans are not served:
// run cmd/tracestat on the flight-recorder journal, which is current even
// while the study runs.
func (r *Registry) ServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
