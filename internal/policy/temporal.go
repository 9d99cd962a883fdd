package policy

import (
	"sync/atomic"
	"time"

	"repro/internal/asn"
	"repro/internal/proto"
	"repro/internal/rng"
)

// TemporalRST models Alibaba's network-wide SSH scan detection (§6): partway
// into a scan the network detects a single-IP scanner and causes *all* SSH
// hosts in the AS to reset connections immediately after the TCP handshake.
// Detection is non-deterministic — it fires at different times in different
// trials and origins (about two-thirds into trial 1) — and intermittent:
// blocked windows alternate with clear windows (Figure 12).
//
// Origins scanning with many source IPs dilute per-IP rates below the
// detector's trigger and are not blocked (US64 sees 64.4% of the hosts that
// are exclusively accessible on SSH).
type TemporalRST struct {
	RuleName string
	ASes     []asn.ASN
	Proto    proto.Protocol
	// MaxSrcIPs: origins scanning with more source IPs evade detection.
	MaxSrcIPs int
	// ScanDuration is the trial length on the virtual clock.
	ScanDuration time.Duration
	// DetectFraction brackets when detection fires, as fractions of the
	// scan duration; the actual time is drawn per (origin, trial).
	DetectMin, DetectMax float64
	// BlockedWindow / ClearWindow are mean durations of the alternating
	// intermittent phases after detection.
	BlockedWindow time.Duration
	ClearWindow   time.Duration
	Key           rng.Key
}

// Name implements Rule.
func (t *TemporalRST) Name() string { return t.RuleName }

// detectTime returns when detection fires for this origin and trial, or
// false if this origin is never detected.
func (t *TemporalRST) detectTime(q *Query) (time.Duration, bool) {
	if t.MaxSrcIPs != 0 && q.NumSrcIPs > t.MaxSrcIPs {
		return 0, false
	}
	span := t.DetectMax - t.DetectMin
	u := t.Key.Float64(uint64(q.Origin), uint64(q.Trial))
	frac := t.DetectMin + span*u
	return time.Duration(frac * float64(t.ScanDuration)), true
}

// Blocked reports whether the network is in a blocked window for this
// origin at the query's time.
func (t *TemporalRST) Blocked(q *Query) bool {
	detect, ok := t.detectTime(q)
	if !ok || q.Time < detect {
		return false
	}
	if t.BlockedWindow <= 0 {
		return true
	}
	cycle := t.BlockedWindow + t.ClearWindow
	if cycle <= 0 {
		return true
	}
	// Alternate blocked/clear windows after detection; jitter the phase
	// per (origin, trial) so timelines differ across trials as observed.
	since := q.Time - detect
	phase := time.Duration(t.Key.Float64(uint64(q.Origin), uint64(q.Trial), 1) * float64(cycle))
	pos := (since + phase) % cycle
	return pos < t.BlockedWindow
}

// CanMatch implements ScanGated: protocol, AS, and the source-IP count that
// lets an origin evade detection altogether.
func (t *TemporalRST) CanMatch(q *Query) bool {
	return q.Proto == t.Proto && containsAS(t.ASes, q.DstAS) &&
		(t.MaxSrcIPs == 0 || q.NumSrcIPs <= t.MaxSrcIPs)
}

// Evaluate implements Rule.
func (t *TemporalRST) Evaluate(q *Query) (Verdict, bool) {
	if q.Proto != t.Proto || !containsAS(t.ASes, q.DstAS) {
		return 0, false
	}
	if !t.Blocked(q) {
		return 0, false
	}
	return ResetAfterAccept, true
}

// MaxStartups models OpenSSH's MaxStartups start:rate:full setting (§6): a
// host with pending unauthenticated connections refuses new ones
// probabilistically — with probability rate% once `start` connections are
// pending, scaling linearly to 100% at `full`. The affected host closes the
// TCP connection before the SSH banner. Retrying the handshake (the paper
// retries up to 8×) eventually wins unless the host is saturated.
//
// In the simulation, each affected host has a background load level (its
// typical number of pending unauthenticated connections, drawn per host),
// and each simultaneous scanning origin adds one more.
type MaxStartups struct {
	RuleName string
	// HostFraction is the fraction of SSH hosts (per covered dest) that
	// run a restrictive MaxStartups configuration.
	HostFraction float64
	Dests        DestMatch
	// Start, Rate, Full mirror sshd_config MaxStartups (e.g. 10:30:100).
	Start int
	Rate  float64 // refusal probability at Start pending connections
	Full  int
	// MeanLoad is the mean background pending-connection count for
	// affected hosts (per-host level drawn in [0, 2×MeanLoad]).
	MeanLoad float64
	Key      rng.Key

	// sub holds Key's three sub-keys. Derive hashes its label on every
	// call and Evaluate needs all three per query, so they are derived
	// once, on first use (the rule is built as a struct literal).
	sub atomic.Pointer[maxStartupsKeys]
}

// maxStartupsKeys are the derived keys of one MaxStartups rule: which hosts
// run the restrictive config, each host's background load, and the
// per-attempt refusal draw.
type maxStartupsKeys struct {
	hosts, load, draw rng.Key
}

// keys returns the rule's sub-keys, deriving them on first use. Racing first
// uses derive identical values, so whichever store wins is the same.
func (m *MaxStartups) keys() *maxStartupsKeys {
	if k := m.sub.Load(); k != nil {
		return k
	}
	m.sub.CompareAndSwap(nil, &maxStartupsKeys{
		hosts: m.Key.Derive("hosts"), load: m.Key.Derive("load"), draw: m.Key.Derive("draw"),
	})
	return m.sub.Load()
}

// Name implements Rule.
func (m *MaxStartups) Name() string { return m.RuleName }

// CanMatch implements ScanGated: SSH only, within the covered ASes.
func (m *MaxStartups) CanMatch(q *Query) bool {
	return q.Proto == proto.SSH && m.Dests.canMatch(q)
}

// Affected reports whether dst is one of the restrictive-config hosts.
func (m *MaxStartups) Affected(q *Query) bool {
	if q.Proto != proto.SSH || !m.Dests.Matches(q) {
		return false
	}
	return hostFraction(m.keys().hosts, q.Dst, m.HostFraction)
}

// RefusalProbability returns the probability this host refuses one more
// unauthenticated connection given the query's concurrency.
func (m *MaxStartups) RefusalProbability(q *Query) float64 {
	// Per-host stable background load.
	load := m.keys().load.Float64(q.Dst.Word64()) * 2 * m.MeanLoad
	pending := load + float64(maxInt(q.ConcurrentOrigins, 1))
	if pending < float64(m.Start) {
		return 0
	}
	if pending >= float64(m.Full) {
		return 1
	}
	// Linear scale from Rate at Start to 1.0 at Full, per sshd_config(5).
	span := float64(m.Full - m.Start)
	return m.Rate + (1-m.Rate)*(pending-float64(m.Start))/span
}

// Evaluate implements Rule. Refusal is drawn independently per attempt, so
// immediate retries succeed with increasing cumulative probability
// (Figure 13).
func (m *MaxStartups) Evaluate(q *Query) (Verdict, bool) {
	if !m.Affected(q) {
		return 0, false
	}
	p := m.RefusalProbability(q)
	if p <= 0 {
		return 0, false
	}
	refuse := m.keys().draw.Bool(p,
		q.Dst.Word64(), uint64(q.Origin), uint64(q.Trial), uint64(q.Attempt))
	if !refuse {
		return 0, false
	}
	return CloseAfterAccept, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
