// Plans and the decision kernel. What an origin misses is decided per
// (origin, destination AS) path — blocking, path loss and burst outages are
// all keyed that way — and a fabric serves one origin in one trial, so
// everything about a probe's fate that does not depend on the destination
// host, the time or the attempt is the same for every probe toward one AS.
// The fabric compiles that part once per (protocol, AS), on first touch,
// into a plan; Send and Predial then run one kernel (decide) over the
// plan instead of each re-deriving path state and walking every rule.
package fabric

import (
	"sync/atomic"
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/loss"
	"repro/internal/outage"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/world"
)

// plan is the decision chain compiled for this fabric's scan toward one
// destination AS: the path's resolved loss state, the burst outages that can
// cover it, the engine rules whose scan-constant gates can still hold, and
// the detectors watching the AS. Checks keyed by the destination host or
// country, the time, or the attempt stay dynamic inside those parts.
//
// A plan is written once, under Fabric.planMu, before ready is set, and only
// read afterwards; it is compiled from scenario state (engine rules, loss
// parameters, outage schedule, detector list) that must not change while a
// scan runs.
type plan struct {
	ready atomic.Bool
	// darkSilent: no detector watches the AS and no surviving rule can
	// answer RefuseTCP, so a SYN to an address with no host behind it draws
	// silence whatever policy and the path do, with no side effect to
	// account for — Send answers it before any draw.
	darkSilent bool
	path       loss.Path
	outages    outage.PathOutages
	policy     policy.Plan
	detectors  []policy.Detector
}

// planFor returns the plan for protocol p toward the AS of a routed
// destination, compiling it on first touch. Safe for concurrent use: a
// protocol's table is one slab indexed by the FIB's interned AS index,
// published atomically, and each slot is published by its ready flag.
func (f *Fabric) planFor(p proto.Protocol, d *world.Dest) *plan {
	tab := f.plans[p].Load()
	if tab == nil {
		tab = f.newPlanTable(p)
	}
	pl := &(*tab)[d.ASIdx]
	if !pl.ready.Load() {
		f.compile(pl, p, d.AS.Number)
	}
	return pl
}

// newPlanTable allocates protocol p's slab (a scan uses one protocol, so a
// fabric normally owns one).
func (f *Fabric) newPlanTable(p proto.Protocol) *[]plan {
	f.planMu.Lock()
	defer f.planMu.Unlock()
	if tab := f.plans[p].Load(); tab != nil {
		return tab
	}
	tab := make([]plan, f.fib.NumASes())
	f.plans[p].Store(&tab)
	return &tab
}

// compile fills pl for (p, as). Rule sub-lists are carved from one backing
// array shared by all of the fabric's plans, and the gate is the fabric's
// own, so compiling costs no allocation per AS beyond that array's
// occasional growth (and a small slice for the rare AS with an outage or a
// detector).
func (f *Fabric) compile(pl *plan, p proto.Protocol, as asn.ASN) {
	f.planMu.Lock()
	defer f.planMu.Unlock()
	if pl.ready.Load() {
		return
	}
	gate := &f.gate
	*gate = f.scan
	gate.Proto, gate.DstAS = p, as

	matrix := f.cfg.Loss
	pl.path = matrix.Path(f.org.ID, as, f.trial)
	if sched := f.cfg.Outages; sched != nil {
		pl.outages = sched.Path(f.trial, f.org.ID, as)
	}
	pl.policy, f.ruleBuf = f.cfg.Engine.Plan(gate, f.ruleBuf)
	for _, det := range f.cfg.IDSes {
		if g, ok := det.(policy.ScanGated); ok && !g.CanMatch(gate) {
			continue
		}
		pl.detectors = append(pl.detectors, det)
	}
	pl.darkSilent = len(pl.detectors) == 0 && !pl.policy.MayRefuse
	pl.ready.Store(true)
}

// Watched reports whether any detector watches dst's AS in a scan of
// protocol p — the slice decide iterates, so a plan-time fact, fixed before
// the scan's first probe. It is the one thing the grab stage needs to know
// to run under the sweep: a dial toward a watched AS reads detector state
// the walk is still writing, and has to wait for the walk to end; every
// other dial is a function of its own coordinates. Safe for concurrent use.
func (f *Fabric) Watched(p proto.Protocol, dst ip.Addr) bool {
	d := f.fib.Resolve(dst)
	return d.Routed && len(f.planFor(p, &d).detectors) > 0
}

// fate holds the draws one target's L4 probes share (DESIGN § 8.2): whether
// the host is churned offline this trial, whether the path is in a loss
// episode, the policy verdict at one probe time, and the path's loss draws
// (loss.TargetDraws). Each is drawn the first time a probe needs it, so a
// probe draws nothing its own chain would not, and each is a keyed hash of
// coordinates the probes have in common, so reusing it is what drawing it
// again would give. What can differ between a target's probes stays per
// probe: detector counts, the outages at the probe's time, the per-packet
// loss draws, and the verdict when the probe time moves. The zero value
// has drawn nothing: Send and Predial use a fresh one per probe or dial,
// ProbeBatch one per target.
type fate struct {
	known     uint8 // know* bits: which draws below are filled
	offline   bool
	episode   bool
	verdict   policy.Verdict
	verdictAt time.Duration
	loss      loss.TargetDraws
}

const (
	knowOffline uint8 = 1 << iota
	knowEpisode
	knowVerdict
)

// decide is the one decision chain under Send (l4), ProbeBatch and Predial:
// host churn, the detectors watching the AS, the plan's policy rules, then
// the path's burst outages and loss episode, taking fm's draws where a
// probe before this one filled them. It returns the policy verdict and
// whether packets get through at all; with through false (machine offline,
// source blocked, Silent policy, path down) the caller answers with silence
// or a timeout and the verdict is moot. What follows differs by layer —
// per-packet loss and the reply packet at L4, handshake loss and connection
// effects at L7 — and stays with the callers.
//
// The two layers differ inside the chain in two ways, both inherited:
// detectors count an L4 probe (RecordProbe drops it once the source is
// blocked, whatever the detector's action) but only render a verdict on an
// L7 connection (and only Silent blocks it); and a refusing policy answers
// an L7 connect before the path is consulted, while at L4 the RST still has
// to survive the path.
func (f *Fabric) decide(pl *plan, fm *fate, l4 bool, src, dst ip.Addr, d *world.Dest, p proto.Protocol, t time.Duration, attempt int) (v policy.Verdict, through bool) {
	if d.Host {
		if fm.known&knowOffline == 0 {
			fm.offline, fm.known = f.cfg.Churn.Offline(dst, f.trial), fm.known|knowOffline
		}
		if fm.offline {
			// The machine is down this trial: silence, from every origin.
			return policy.Allow, false
		}
	}
	if len(pl.detectors) > 0 || pl.policy.Len() > 0 {
		q := f.queries.Get().(*policy.Query)
		*q = f.scan
		q.SrcIP, q.Dst, q.DstAS, q.DstCountry, q.Proto = src, dst, d.AS.Number, d.Country, p
		q.Time, q.Attempt = t, attempt
		blocked := false
		for i := 0; i < len(pl.detectors) && !blocked; i++ {
			if l4 {
				// Detectors observe every probe that reaches their AS,
				// even ones that will go unanswered.
				blocked = pl.detectors[i].RecordProbe(q)
			} else {
				dv, ok := pl.detectors[i].ConnVerdict(q)
				blocked = ok && dv == policy.Silent
			}
		}
		if !blocked {
			// Rules are pure functions of the query, and a target's probes
			// at one time pose the same query.
			if fm.known&knowVerdict == 0 || fm.verdictAt != t {
				fm.verdict, _ = pl.policy.Evaluate(q)
				fm.verdictAt, fm.known = t, fm.known|knowVerdict
			}
			v = fm.verdict
		}
		f.queries.Put(q)
		if blocked || v == policy.Silent {
			return v, false
		}
		if v == policy.RefuseTCP && !l4 {
			return v, true
		}
	}
	// Both probes of a target and the follow-up connection share the path's
	// outage and episode state — loss is not independent.
	if pl.outages.Affected(dst, t) {
		return v, false
	}
	if fm.known&knowEpisode == 0 {
		fm.episode, fm.known = pl.path.EpisodeActive(dst), fm.known|knowEpisode
	}
	return v, !fm.episode
}
