package policy

import (
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/telemetry"
)

// SrcSchedule is the precomputed IDS fate of one scanner source IP during
// one scan: either already blocked when the scan starts, or detected at a
// specific (virtual time, probe index) point mid-scan, or never detected.
type SrcSchedule struct {
	// BlockedAtStart marks sources a Persistent IDS had already blocked
	// before this scan began (e.g. detected in an earlier trial).
	BlockedAtStart bool
	// Detected marks sources that cross the threshold during this scan,
	// at virtual base time T on probe index Probe of that target.
	Detected bool
	T        time.Duration
	Probe    int
}

// ScheduledIDS is a read-only Detector for one (origin, protocol, trial)
// scan, derived by replaying the study's canonical scan order against
// clones of the live IDS before any scan runs. Because ZMap's probe order
// and times are fully seed-determined, "the source crosses the threshold at
// probe k of target visited at time t" is computable in advance; the
// schedule then answers RecordProbe/Evaluate without any shared mutable
// state, which is what lets scans that share an IDS run concurrently and
// still drop exactly the probes a serial run would have dropped.
type ScheduledIDS struct {
	RuleName   string
	AS         asn.ASN
	Protos     DestMatch
	Action     Verdict
	ProbeDelay time.Duration
	// Schedules maps each of the scan's source IPs to its fate; sources
	// absent from the map are never detected.
	Schedules map[ip.Addr]*SrcSchedule
	// Metrics, when set, counts block activations and dropped probes.
	// The detector itself stays read-only — the counters are atomic and
	// nil-safe, and an activation is counted exactly when a probe lands
	// on its source's precomputed detection point.
	Metrics *telemetry.IDSMetrics
}

// NewScheduledIDS builds the per-scan view of live, with the given
// detection schedules.
func NewScheduledIDS(live *IDS, probeDelay time.Duration, schedules map[ip.Addr]*SrcSchedule) *ScheduledIDS {
	return &ScheduledIDS{
		RuleName:   live.RuleName,
		AS:         live.AS,
		Protos:     live.Protos,
		Action:     live.Action,
		ProbeDelay: probeDelay,
		Schedules:  schedules,
	}
}

// Name implements Detector.
func (d *ScheduledIDS) Name() string { return d.RuleName }

func (d *ScheduledIDS) covers(q *Query) bool {
	return q.DstAS == d.AS && d.Protos.Matches(q)
}

// CanMatch implements ScanGated, as the live IDS does.
func (d *ScheduledIDS) CanMatch(q *Query) bool {
	return q.DstAS == d.AS && d.Protos.canMatch(q)
}

// RecordProbe implements Detector: the probe is dropped iff it lies at or
// after the source's precomputed detection point. Query.Time includes the
// probe's delay offset, so the target's base time is recovered first;
// ordering is then lexicographic on (base time, probe index), matching the
// order the serial scan would have counted probes in.
func (d *ScheduledIDS) RecordProbe(q *Query) bool {
	if !d.covers(q) {
		return false
	}
	s := d.Schedules[q.SrcIP]
	if s == nil {
		return false
	}
	if s.BlockedAtStart {
		if m := d.Metrics; m != nil {
			m.Drops.Inc()
		}
		return true
	}
	if !s.Detected {
		return false
	}
	tBase := q.Time - time.Duration(q.Probe)*d.ProbeDelay
	if tBase > s.T || (tBase == s.T && q.Probe >= s.Probe) {
		if m := d.Metrics; m != nil {
			if tBase == s.T && q.Probe == s.Probe {
				// This probe is the one that crossed the threshold: the
				// moment the dynamic block activates for this source.
				m.Activations.Inc()
			}
			m.Drops.Inc()
		}
		return true
	}
	return false
}

// Evaluate implements Detector. L7 grabs run after the L4 sweep completes,
// so a source detected at any point during the scan is blocked for all of
// the scan's L7 connections — exactly the state a serial run's live IDS
// would hold by grab time.
func (d *ScheduledIDS) Evaluate(q *Query) (Verdict, bool) {
	if !d.covers(q) {
		return 0, false
	}
	if s := d.Schedules[q.SrcIP]; s != nil && (s.BlockedAtStart || s.Detected) {
		return d.Action, true
	}
	return 0, false
}
