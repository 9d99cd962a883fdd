// The flight recorder: an append-only JSONL event journal written beside
// the sealed dataset. It is the registry's one span record and a lossless
// one — every committed span goes to it the moment it ends, in a single
// write of one whole line, so a crashed or killed run still leaves a
// readable record up to its last completed span, and a study still
// running can be read as it goes. cmd/tracestat loads a journal and prints
// the wall-time breakdown; the same file converts to Chrome trace_event
// JSON (WriteChromeTrace).
//
// Format: one JSON object per line, discriminated by "ev":
//
//	{"ev":"meta","meta":{...}}        run header, written at attach
//	{"ev":"span","span":{...}}        one SpanRecord, written at span end
//	{"ev":"snapshot","metrics":{...}} full metrics Snapshot, written at close
//
// The final snapshot is what carries the counters and the histogram
// families (the spill store's flush and merge durations) into offline
// analysis — spans alone cannot reconstruct distributions that were
// recorded straight into histograms.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// JournalMeta is the run header event payload.
type JournalMeta struct {
	Start time.Time `json:"start"` // registry epoch, wall clock
	PID   int       `json:"pid"`
}

// JournalEvent is one line of the flight-recorder journal. Exactly one of
// Span, Meta, Metrics is set, matching Ev.
type JournalEvent struct {
	Ev      string       `json:"ev"`
	Span    *SpanRecord  `json:"span,omitempty"`
	Meta    *JournalMeta `json:"meta,omitempty"`
	Metrics *Snapshot    `json:"metrics,omitempty"`
}

// JournalFile is the journal's filename inside a -trace-dir.
const JournalFile = "journal.jsonl"

// Recorder appends journal events to a file, one unbuffered write per
// event. Safe for concurrent use; a nil Recorder is inert.
type Recorder struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error // first write error, reported at Close
}

// NewRecorder creates (or truncates) the journal file at path, creating
// parent directories as needed.
func NewRecorder(path string) (*Recorder, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Recorder{f: f, path: path}, nil
}

// Path returns the journal file's path ("" on nil).
func (rc *Recorder) Path() string {
	if rc == nil {
		return ""
	}
	return rc.path
}

func (rc *Recorder) writeEvent(ev JournalEvent) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.f == nil {
		return
	}
	enc, err := json.Marshal(ev)
	if err == nil {
		_, err = rc.f.Write(append(enc, '\n'))
	}
	if err != nil && rc.err == nil {
		rc.err = err
	}
}

func (rc *Recorder) writeSpan(rec SpanRecord) {
	rc.writeEvent(JournalEvent{Ev: "span", Span: &rec})
}

// Close closes the journal, reporting the first deferred write error if
// any. Safe on nil and idempotent.
func (rc *Recorder) Close() error {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.f == nil {
		return rc.err
	}
	if err := rc.f.Close(); err != nil && rc.err == nil {
		rc.err = err
	}
	rc.f = nil
	if rc.err != nil {
		return fmt.Errorf("telemetry: flight recorder %s: %w", rc.path, rc.err)
	}
	return nil
}

// AttachRecorder starts teeing every committed span to rc and writes the
// run-header event. At most one recorder is active at a time; attaching
// replaces (but does not close) a previous one. No-op on a nil registry.
func (r *Registry) AttachRecorder(rc *Recorder) {
	if r == nil || rc == nil {
		return
	}
	rc.writeEvent(JournalEvent{Ev: "meta", Meta: &JournalMeta{Start: r.start, PID: os.Getpid()}})
	r.recorder.Store(rc)
}

// CloseRecorder writes the final metrics snapshot event, detaches the
// recorder, and closes the journal. Safe when no recorder is attached (and
// on nil): returns nil.
func (r *Registry) CloseRecorder() error {
	if r == nil {
		return nil
	}
	rc := r.recorder.Swap(nil)
	if rc == nil {
		return nil
	}
	snap := r.Snapshot()
	rc.writeEvent(JournalEvent{Ev: "snapshot", Metrics: &snap})
	return rc.Close()
}

// ReadJournal parses a flight-recorder journal back into its events. It
// accepts either the journal file itself or a directory containing
// JournalFile. Unknown event kinds are skipped (forward compatibility). A
// final line with no newline that does not parse is a write torn by a
// crash: it is dropped and the events before it returned. Any other
// malformed line is an error with its line number.
func ReadJournal(path string) ([]JournalEvent, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, JournalFile)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var evs []JournalEvent
	br := bufio.NewReader(f)
	for line := 1; ; line++ {
		b, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("telemetry: %s: %w", path, err)
		}
		last := err == io.EOF // the file ends in this line, unterminated
		b = bytes.TrimSuffix(bytes.TrimSuffix(b, []byte("\n")), []byte("\r"))
		if len(b) > 0 {
			var ev JournalEvent
			if err := json.Unmarshal(b, &ev); err != nil {
				if last {
					return evs, nil // a torn final write
				}
				return nil, fmt.Errorf("telemetry: %s:%d: %w", path, line, err)
			}
			evs = append(evs, ev)
		}
		if last {
			return evs, nil
		}
	}
}

// JournalSpans extracts the span records from a parsed journal, in commit
// order.
func JournalSpans(evs []JournalEvent) []SpanRecord {
	var out []SpanRecord
	for _, ev := range evs {
		if ev.Ev == "span" && ev.Span != nil {
			out = append(out, *ev.Span)
		}
	}
	return out
}

// JournalSnapshot returns the journal's final metrics snapshot, or nil if
// the run ended before one was written (crash, kill -9).
func JournalSnapshot(evs []JournalEvent) *Snapshot {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Ev == "snapshot" && evs[i].Metrics != nil {
			return evs[i].Metrics
		}
	}
	return nil
}
