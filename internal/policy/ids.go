package policy

import (
	"sync"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/telemetry"
)

// IDS models a destination network's intrusion detection system that counts
// probes per scanner source IP and, once a source crosses the detection
// threshold, blocks that source for the remainder of the study (the paper
// confirms Ruhr-Universität Bochum blocked all single-IP origins two hours
// into the first HTTPS scan and kept them blocked in all later scans).
//
// Detection is per source IP, which is exactly why 64-IP scanning evades it:
// each of US64's addresses sends 1/64th of the probes and stays under the
// threshold.
//
// The IDS is stateful; RecordProbe must be called for every probe reaching
// the protected AS (the fabric does this). State is shared across trials
// when Persistent is true.
type IDS struct {
	RuleName string
	// AS is the protected network.
	AS asn.ASN
	// Threshold is the number of probes from a single source IP that
	// triggers detection.
	Threshold int
	// Protos restricts which scans trigger and are blocked (zero = all).
	Protos DestMatch
	// Persistent keeps a detected source blocked in subsequent trials.
	Persistent bool
	// Action is the treatment of blocked sources (typically Silent).
	Action Verdict
	// Metrics, when set, counts block activations (a source crossing the
	// threshold) and dropped probes in RecordProbe. Nil-safe; set it only
	// while no probe is being recorded.
	Metrics *telemetry.IDSMetrics

	mu      sync.Mutex
	counts  map[idsKey]int
	blocked map[idsBlockKey]bool
}

type idsKey struct {
	src   ip.Addr
	trial int
}

type idsBlockKey struct {
	src   ip.Addr
	trial int // -1 when Persistent
}

// Name implements Detector.
func (d *IDS) Name() string { return d.RuleName }

// Covers reports whether the query targets this IDS's protected AS with a
// protocol the IDS monitors. RecordProbe and ConnVerdict share this gate.
func (d *IDS) Covers(q *Query) bool {
	return q.DstAS == d.AS && d.Protos.Matches(q)
}

// CanMatch implements ScanGated: the protected AS and the monitored
// protocols.
func (d *IDS) CanMatch(q *Query) bool {
	return q.DstAS == d.AS && d.Protos.canMatch(q)
}

func (d *IDS) blockKey(src ip.Addr, trial int) idsBlockKey {
	if d.Persistent {
		return idsBlockKey{src: src, trial: -1}
	}
	return idsBlockKey{src: src, trial: trial}
}

// RecordProbe counts a probe from src toward the protected AS and returns
// true if the source is (now) blocked. The triggering probe itself is
// already dropped: real IDSes fire mid-scan, and the paper observes
// networks going dark partway into a trial.
func (d *IDS) RecordProbe(q *Query) bool {
	if !d.Covers(q) {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.counts == nil {
		d.counts = make(map[idsKey]int)
		d.blocked = make(map[idsBlockKey]bool)
	}
	bk := d.blockKey(q.SrcIP, q.Trial)
	if d.blocked[bk] {
		if m := d.Metrics; m != nil {
			m.Drops.Inc()
		}
		return true
	}
	k := idsKey{src: q.SrcIP, trial: q.Trial}
	d.counts[k]++
	if d.counts[k] >= d.Threshold {
		d.blocked[bk] = true
		if m := d.Metrics; m != nil {
			m.Activations.Inc()
			m.Drops.Inc()
		}
		return true
	}
	return false
}

// ConnVerdict implements Detector: it reports the verdict for
// already-detected sources. It does not count the probe; the fabric calls
// RecordProbe for that on the L4 path. Its verdict hangs on detection
// state, not on q alone, so it is deliberately not named Evaluate: an IDS
// cannot be a Rule (rules are pure functions of the query), only a
// fabric's Detector.
func (d *IDS) ConnVerdict(q *Query) (Verdict, bool) {
	if !d.Covers(q) {
		return 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.blocked[d.blockKey(q.SrcIP, q.Trial)] {
		return d.Action, true
	}
	return 0, false
}

// Reset clears all detection state (between independent experiments).
func (d *IDS) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counts = nil
	d.blocked = nil
}

// BlockedState reports whether src is currently blocked for trial, without
// counting anything.
func (d *IDS) BlockedState(src ip.Addr, trial int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocked[d.blockKey(src, trial)]
}

// CloneEmpty returns an IDS with the same rule parameters, no detection
// state and no Metrics. A study scans each origin against clones of its
// own, so scans of different origins never share detector state.
func (d *IDS) CloneEmpty() *IDS {
	return &IDS{
		RuleName:   d.RuleName,
		AS:         d.AS,
		Threshold:  d.Threshold,
		Protos:     d.Protos,
		Persistent: d.Persistent,
		Action:     d.Action,
	}
}

// MergeStateFrom folds other's counts and blocks into d. Sources are
// disjoint across a study's per-origin clones (detection is per source IP
// and origins never share addresses), so merging the clones reproduces the
// exact state scanning one IDS with every origin would have left.
func (d *IDS) MergeStateFrom(other *IDS) {
	other.mu.Lock()
	defer other.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.counts == nil {
		d.counts = make(map[idsKey]int)
		d.blocked = make(map[idsBlockKey]bool)
	}
	for k, n := range other.counts {
		d.counts[k] += n
	}
	for k, b := range other.blocked {
		if b {
			d.blocked[k] = true
		}
	}
}

// Detector is the fabric's view of an IDS: something that counts L4 probes
// and renders verdicts on L7 connections. *IDS implements it.
type Detector interface {
	Name() string
	// RecordProbe observes one L4 probe and reports whether the source is
	// blocked for it (the probe is then dropped).
	RecordProbe(q *Query) bool
	// ConnVerdict reports the verdict for an L7 connection attempt.
	ConnVerdict(q *Query) (Verdict, bool)
}

// Detectors adapts live IDSes to the Detector interface.
func Detectors(idses []*IDS) []Detector {
	out := make([]Detector, len(idses))
	for i, d := range idses {
		out[i] = d
	}
	return out
}
