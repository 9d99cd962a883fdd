// Package outage models localized burst outages (§5.3): short windows in
// which a destination AS is unreachable from a subset of origins. The paper
// finds that 14–36% of transient loss coincides with such bursts, that ~60%
// of bursts affect a single origin and ≥91% affect three or fewer, and that
// one extreme event (Brazil, HTTPS trial 3) lost 8% of all transiently
// missing hosts in a single hour across 39% of scanned ASes.
package outage

import (
	"sort"
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/rng"
)

// Event is one burst outage: origins in Origins cannot reach a fraction
// Severity of hosts in AS during [Start, Start+Duration).
type Event struct {
	Trial    int
	Origins  origin.Set
	AS       asn.ASN
	Start    time.Duration
	Duration time.Duration
	// Severity is the fraction of the AS's hosts affected while the
	// event is active.
	Severity float64
}

// Active reports whether the event covers time t in the given trial.
func (e *Event) Active(trial int, t time.Duration) bool {
	return trial == e.Trial && t >= e.Start && t < e.Start+e.Duration
}

// Config tunes schedule generation.
type Config struct {
	// ScanDuration is the trial length (default 21h, as in the paper).
	ScanDuration time.Duration
	// EventsPerTrial is the mean number of ordinary burst events per
	// trial (default 40).
	EventsPerTrial int
	// MeanDuration is the mean event duration (default 45m; the paper
	// detects bursts at hour granularity).
	MeanDuration time.Duration
	// OriginCountWeights[i] is the relative probability an event affects
	// i+1 origins (default {60, 20, 11, 5, 3, 1}: 60% single-origin,
	// ≥91% within three origins).
	OriginCountWeights []float64
	// WideEvents injects paper-style extreme events that affect one
	// origin across a large fraction of all ASes for about an hour
	// (Brazil HTTPS trial 3).
	WideEvents []WideEvent
}

// WideEvent is an extreme event affecting many ASes at once from one origin.
type WideEvent struct {
	Trial    int
	Origin   origin.ID
	Start    time.Duration
	Duration time.Duration
	// ASFraction is the fraction of all ASes affected.
	ASFraction float64
	Severity   float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ScanDuration == 0 {
		out.ScanDuration = 21 * time.Hour
	}
	if out.EventsPerTrial == 0 {
		out.EventsPerTrial = 40
	}
	if out.MeanDuration == 0 {
		out.MeanDuration = 45 * time.Minute
	}
	if len(out.OriginCountWeights) == 0 {
		out.OriginCountWeights = []float64{60, 20, 11, 5, 3, 1}
	}
	return out
}

// Schedule is the set of burst events of a study, indexed for fast lookup.
type Schedule struct {
	cfg    Config
	events []Event
	wide   []WideEvent
	// Sub-keys of the schedule's key, derived once in Generate (Derive
	// hashes its label on every call): the per-host severity draw of an
	// ordinary event, a wide event's AS selection, and its per-host
	// severity draw.
	sevKey, wideASKey, wideSevKey rng.Key
	// byTrialAS indexes ordinary events.
	byTrialAS map[trialAS][]int
}

type trialAS struct {
	trial int
	as    asn.ASN
}

// Generate builds a deterministic schedule for the given trials, origins,
// and AS population. Event ASes are picked proportionally to weight (host
// count), matching the paper's observation that large providers (Akamai,
// Amazon) appear in bursts.
func Generate(key rng.Key, cfg Config, trials int, origins origin.Set, ases []asn.ASN, weights []uint64) *Schedule {
	cfg = cfg.withDefaults()
	s := &Schedule{
		cfg:    cfg,
		sevKey: key.Derive("sev"), wideASKey: key.Derive("wide-as"), wideSevKey: key.Derive("wide-sev"),
		byTrialAS: make(map[trialAS][]int),
	}
	if len(ases) == 0 {
		return s
	}

	// Cumulative weights for proportional AS sampling.
	cum := make([]uint64, len(ases))
	var total uint64
	for i := range ases {
		w := uint64(1)
		if i < len(weights) && weights[i] > 0 {
			w = weights[i]
		}
		total += w
		cum[i] = total
	}
	pickAS := func(r *rng.SplitMix64) asn.ASN {
		x := r.Uint64n(total)
		i := sort.Search(len(cum), func(i int) bool { return cum[i] > x })
		return ases[i]
	}

	var wTotal float64
	for _, w := range cfg.OriginCountWeights {
		wTotal += w
	}

	for trial := 0; trial < trials; trial++ {
		r := key.Stream(uint64(trial))
		n := cfg.EventsPerTrial/2 + r.Intn(cfg.EventsPerTrial+1) // ~mean EventsPerTrial
		for e := 0; e < n; e++ {
			// How many origins does this event touch?
			x := r.Float64() * wTotal
			count := 1
			for i, w := range cfg.OriginCountWeights {
				if x < w {
					count = i + 1
					break
				}
				x -= w
			}
			if count > len(origins) {
				count = len(origins)
			}
			perm := r.Perm(len(origins))
			var who origin.Set
			for _, idx := range perm[:count] {
				who = append(who, origins[idx])
			}
			dur := time.Duration((0.25 + 1.5*r.Float64()) * float64(cfg.MeanDuration))
			start := time.Duration(r.Float64() * float64(cfg.ScanDuration-dur))
			ev := Event{
				Trial:    trial,
				Origins:  who,
				AS:       pickAS(r),
				Start:    start,
				Duration: dur,
				Severity: 0.5 + 0.5*r.Float64(),
			}
			s.add(ev)
		}
	}
	s.wide = cfg.WideEvents
	return s
}

func (s *Schedule) add(ev Event) {
	s.events = append(s.events, ev)
	k := trialAS{ev.Trial, ev.AS}
	s.byTrialAS[k] = append(s.byTrialAS[k], len(s.events)-1)
}

// Events returns all ordinary events (for tests and reporting).
func (s *Schedule) Events() []Event { return s.events }

// Affected reports whether origin o's path to host dst in AS as is inside a
// burst outage at time t, considering both ordinary and wide events.
// Severity is applied per host with a stable keyed draw.
func (s *Schedule) Affected(trial int, o origin.ID, as asn.ASN, dst ip.Addr, t time.Duration) bool {
	for _, idx := range s.byTrialAS[trialAS{trial, as}] {
		ev := &s.events[idx]
		if !ev.Active(trial, t) || !ev.Origins.Contains(o) {
			continue
		}
		if s.sevKey.Bool(ev.Severity, uint64(idx), dst.Word64()) {
			return true
		}
	}
	for i := range s.wide {
		w := &s.wide[i]
		if w.Trial != trial || w.Origin != o || t < w.Start || t >= w.Start+w.Duration {
			continue
		}
		// Is this AS in the affected fraction?
		if !s.wideASKey.Bool(w.ASFraction, uint64(i), uint64(as)) {
			continue
		}
		if s.wideSevKey.Bool(w.Severity, uint64(i), dst.Word64()) {
			return true
		}
	}
	return false
}

// PathOutages is a Schedule narrowed to one (trial, origin, AS) path: only
// the events that can cover it, with the trial, origin and wide-event AS
// selection already applied, so the per-probe question left is "is t inside
// one of these windows, and is this host in the affected share". Most paths
// have none and the zero value answers false. Affected agrees with
// Schedule.Affected for every (dst, t) on the path.
type PathOutages struct {
	events []pathEvent
}

// pathEvent is one event's window and per-host severity draw. id is the
// event's index in its Schedule list, the coordinate the draw is keyed by.
type pathEvent struct {
	start, end time.Duration // active over [start, end)
	severity   float64
	key        rng.Key
	id         uint64
}

// Path resolves the events that can cover origin o's path to AS as in a
// trial. The schedule is immutable after Generate, so the result stays
// valid for the schedule's lifetime. It allocates only when the path has
// events.
func (s *Schedule) Path(trial int, o origin.ID, as asn.ASN) PathOutages {
	var p PathOutages
	for _, idx := range s.byTrialAS[trialAS{trial, as}] {
		if ev := &s.events[idx]; ev.Origins.Contains(o) {
			p.events = append(p.events, pathEvent{ev.Start, ev.Start + ev.Duration, ev.Severity, s.sevKey, uint64(idx)})
		}
	}
	for i := range s.wide {
		w := &s.wide[i]
		if w.Trial == trial && w.Origin == o && s.wideASKey.Bool(w.ASFraction, uint64(i), uint64(as)) {
			p.events = append(p.events, pathEvent{w.Start, w.Start + w.Duration, w.Severity, s.wideSevKey, uint64(i)})
		}
	}
	return p
}

// Affected reports whether host dst is inside one of the path's outages at
// time t.
func (p *PathOutages) Affected(dst ip.Addr, t time.Duration) bool {
	for i := range p.events {
		ev := &p.events[i]
		if t >= ev.start && t < ev.end && ev.key.Bool(ev.severity, ev.id, dst.Word64()) {
			return true
		}
	}
	return false
}

// ActiveEvents returns the ordinary events covering (trial, as, t) for any
// origin; used by analysis ground-truthing in tests.
func (s *Schedule) ActiveEvents(trial int, as asn.ASN, t time.Duration) []Event {
	var out []Event
	for _, idx := range s.byTrialAS[trialAS{trial, as}] {
		if s.events[idx].Active(trial, t) {
			out = append(out, s.events[idx])
		}
	}
	return out
}
