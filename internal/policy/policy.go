// Package policy implements the destination-side filtering behaviours that
// the paper identifies as root causes of missing hosts: static per-origin
// blocking (Censys's blockers), geographic allow/deny fences, rate-triggered
// intrusion-detection blocking (evaded by 64-IP scanning), Alibaba-style
// temporal network-wide SSH resets, and OpenSSH MaxStartups probabilistic
// connection refusal.
//
// Each behaviour is an independent Rule; an Engine composes them in priority
// order. All probabilistic decisions are keyed hashes of the query
// coordinates, so evaluation is deterministic, order-independent, and safe
// for concurrent use (except the IDS, which is inherently stateful and
// synchronizes internally).
package policy

import (
	"time"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Verdict is the destination's treatment of a connection attempt.
type Verdict uint8

const (
	// Allow lets the connection proceed normally.
	Allow Verdict = iota
	// Silent drops all packets (firewall DROP): no SYN-ACK, L4-dead.
	Silent
	// RefuseTCP answers the SYN with a RST: L4 explicitly refused.
	RefuseTCP
	// ResetAfterAccept completes the TCP handshake, then resets the
	// connection before any application data (Alibaba's SSH behaviour).
	ResetAfterAccept
	// CloseAfterAccept completes the TCP handshake, then closes with
	// FIN before the application banner (MaxStartups-style refusal).
	CloseAfterAccept
)

var verdictNames = [...]string{"allow", "silent", "refuse-tcp", "reset-after-accept", "close-after-accept"}

// String returns a short verdict name.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "verdict(?)"
}

// L4Responsive reports whether a ZMap SYN probe elicits a SYN-ACK under
// this verdict. ResetAfterAccept and CloseAfterAccept hosts are L4-alive;
// the paper notes Alibaba's blocked SSH hosts still complete TCP handshakes.
func (v Verdict) L4Responsive() bool {
	return v == Allow || v == ResetAfterAccept || v == CloseAfterAccept
}

// Query carries the coordinates of one connection attempt.
//
// Callers on the probe hot path recycle queries (the fabric fills one from
// a pool per Send/Dial and releases it on return), so a *Query is only
// valid for the duration of the Rule/Detector call it is passed to. Rules
// that need any of its coordinates later must copy the field values, never
// the pointer.
type Query struct {
	Origin     origin.ID
	SrcIP      ip.Addr
	SrcCountry geo.Country
	NumSrcIPs  int // how many source IPs the origin scans with
	Rep        origin.Reputation

	Dst        ip.Addr
	DstAS      asn.ASN
	DstCountry geo.Country
	Proto      proto.Protocol

	Trial   int           // 0-based trial index
	Time    time.Duration // virtual time since trial start (the probe's or dial's)
	Attempt int           // 0-based L7 retry number

	// ConcurrentOrigins is how many origins are attempting an L7
	// handshake with this host at approximately the same time
	// (synchronized scans probe the same target simultaneously), which
	// drives MaxStartups refusal probability.
	ConcurrentOrigins int
}

// Rule is one destination-side behaviour. Evaluate returns (verdict, true)
// when the rule has an opinion about the query, or (_, false) to defer.
// Evaluate must not retain q: the caller may reuse it for the next probe
// the moment Evaluate returns (see Query). Evaluate must also be a pure
// function of *q: the fabric's ProbeBatch asks once for the probes of a
// target that share a time and reuses the verdict for all of them, so
// behaviour that changes with what a source has already sent belongs in a
// Detector, not a Rule.
type Rule interface {
	// Name identifies the rule in diagnostics and cause attribution.
	Name() string
	Evaluate(q *Query) (Verdict, bool)
}

// ScanGated is implemented by rules and detectors some of whose match
// conditions are fixed for a whole scan toward one destination AS. CanMatch
// reports whether the rule can have an opinion on any query that shares q's
// scan coordinates — Origin, SrcCountry, NumSrcIPs, Rep, Proto, Trial and
// DstAS; it must not consult any other field (the caller leaves them zero).
// A false answer promises Evaluate (and RecordProbe) return "no opinion",
// without side effects, for every destination, time and attempt of that
// scan; a true answer promises nothing. Everything keyed by the destination
// host or country, the time, or the attempt stays in Evaluate.
type ScanGated interface {
	CanMatch(q *Query) bool
}

// Engine composes rules; the first rule with an opinion wins.
type Engine struct {
	rules []Rule
}

// Plan is an Engine narrowed to one scan × destination AS: the rules whose
// scan-constant gates can still hold, in priority order. The fabric compiles
// one per (scan, AS) so a probe is evaluated against the two or three rules
// that could decide it instead of the whole list. The zero Plan allows
// everything.
type Plan struct {
	rules []Rule
	// MayRefuse reports whether some surviving rule can answer RefuseTCP —
	// the one verdict that makes an address with no host behind it answer a
	// SYN (with the firewall's RST).
	MayRefuse bool
}

// Plan appends to backing the rules that can have an opinion on queries
// sharing q's scan coordinates (see ScanGated; rules that do not implement
// it always survive) and returns the Plan over them along with the grown
// backing array, so a caller compiling many plans carves their rule lists
// out of one allocation. Plans stay valid when backing later reallocates.
// The engine's rules must not change while plans compiled from it are in
// use.
func (e *Engine) Plan(q *Query, backing []Rule) (Plan, []Rule) {
	start := len(backing)
	var p Plan
	for _, r := range e.rules {
		if g, ok := r.(ScanGated); ok && !g.CanMatch(q) {
			continue
		}
		backing = append(backing, r)
		p.MayRefuse = p.MayRefuse || mayRefuse(r)
	}
	p.rules = backing[start:len(backing):len(backing)]
	return p, backing
}

// Evaluate is Engine.Evaluate over the plan's rules: for any query of the
// plan's scan it returns the engine's verdict and deciding rule.
func (p *Plan) Evaluate(q *Query) (Verdict, string) {
	for _, r := range p.rules {
		if v, ok := r.Evaluate(q); ok {
			return v, r.Name()
		}
	}
	return Allow, ""
}

// Len returns how many rules survived into the plan.
func (p *Plan) Len() int { return len(p.rules) }

// mayRefuse reports whether r can answer RefuseTCP: the configured action
// for the action-carrying rules, never for the two fixed-verdict ones, and
// conservatively yes for a rule type this package does not know.
func mayRefuse(r Rule) bool {
	switch r := r.(type) {
	case *StaticBlock:
		return r.Action == RefuseTCP
	case *GeoFence:
		return r.Action == RefuseTCP
	case *ReputationScatter:
		return r.Action == RefuseTCP
	case *TemporalRST, *MaxStartups:
		return false
	}
	return true
}

// NewEngine returns an engine evaluating the given rules in order.
func NewEngine(rules ...Rule) *Engine {
	return &Engine{rules: rules}
}

// Add appends a rule at the lowest priority.
func (e *Engine) Add(r Rule) { e.rules = append(e.rules, r) }

// Evaluate returns the effective verdict and the deciding rule's name
// ("" when allowed by default).
func (e *Engine) Evaluate(q *Query) (Verdict, string) {
	all := Plan{rules: e.rules}
	return all.Evaluate(q)
}

// Rules returns the engine's rules in priority order.
func (e *Engine) Rules() []Rule { return e.rules }

// hostFraction deterministically selects a stable fraction of destination
// hosts: host dst is "selected" iff a keyed hash of (dst) falls below frac.
// The same host is selected for every origin, trial, and probe, which is
// what makes the resulting inaccessibility long-term.
func hostFraction(key rng.Key, dst ip.Addr, frac float64) bool {
	return key.Bool(frac, dst.Word64())
}
