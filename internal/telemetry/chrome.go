// Chrome trace_event export: renders completed spans as "X" (complete)
// events in the JSON format chrome://tracing, Perfetto, and Speedscope
// load. Timestamps come from each span's monotonic StartNS, so the
// rendered timeline is exactly the run's internal clock regardless of
// wall-clock steps.
//
// Track layout: pid is always 1 (one process); tid groups spans by their
// nearest scan-level ancestor — the span whose parent is a root — so each
// (origin, proto, trial) scan renders as its own horizontal track with its
// stage spans and batch exemplars nested inside, and root spans (the study)
// get their own track.
package telemetry

import (
	"encoding/json"
	"io"
)

// chromeEvent is one trace_event entry. ts and dur are microseconds, per
// the format spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes spans as a Chrome trace_event JSON document
// ({"traceEvents":[...]}).
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	byID := make(map[SpanID]SpanRecord, len(spans))
	for _, s := range spans {
		if s.ID != 0 {
			byID[s.ID] = s
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "scan",
			Ph:   "X",
			Ts:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  int64(trackFor(byID, s)),
		}
		args := make(map[string]any)
		if s.Labels != "" {
			args["labels"] = s.Labels
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		if s.Children > 0 {
			args["children"] = s.Children
		}
		if s.Dropped > 0 {
			args["dropped"] = s.Dropped
		}
		if len(args) > 0 {
			ev.Args = args
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// trackFor picks the rendering track for a span: itself when it is a root
// or a direct child of a root, otherwise its highest non-root ancestor
// (the scan-level span). When the ancestry chain is broken — a killed run
// never journaled the parent, or the span predates the trace tree (ID 0) —
// the deepest reachable ancestor stands in.
func trackFor(byID map[SpanID]SpanRecord, s SpanRecord) SpanID {
	id, parent := s.ID, s.Parent
	for parent != 0 {
		p, ok := byID[parent]
		if !ok {
			break
		}
		if p.Parent == 0 {
			return id
		}
		id, parent = p.ID, p.Parent
	}
	return id
}
