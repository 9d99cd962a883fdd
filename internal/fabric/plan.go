// Plans and the decision kernel. What an origin misses is decided per
// (origin, destination AS) path — blocking, path loss and burst outages are
// all keyed that way — and a fabric serves one origin in one trial, so
// everything about a probe's fate that does not depend on the destination
// host, the time or the attempt is the same for every probe toward one AS.
// The fabric compiles that part once per (protocol, AS), on first touch,
// into a plan; Send, ProbeBatch and Predial then run one kernel (decide)
// over the plan instead of each re-deriving path state and walking every
// rule.
package fabric

import (
	"math/bits"
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

// A protocol's plans are split by how often they are read. Every target
// reads its AS's hot byte: whether the plan is compiled, and the three
// facts a target that needs no decision is answered from (planTable.hot).
// Only a decision reads the cold plan: the AS's loss parameters and the
// index of its gate — the rule list, detector list and outages it shares
// with every AS whose scan-constant checks come out the same. An AS keeps
// typically 1–3 of the scenario's rules, so a fabric's thousands or
// millions of ASes share a handful of gates, and only their loss
// parameters differ.
//
// Everything in a plan is written once, under Fabric.planMu, before its
// hot byte is published (an atomic store), and only read afterwards; it is
// compiled from scenario state (engine rules, loss parameters, outage
// schedule, detector list) that must not change while a scan runs.

// The hot bits of an AS's plan: one byte per AS, four to a word.
const (
	// hotReady: the plan is compiled.
	hotReady uint8 = 1 << iota
	// hotDarkSilent: no detector watches the AS and no surviving rule can
	// answer RefuseTCP, so a SYN to an address with no host behind it draws
	// silence whatever policy and the path do, with no side effect to
	// account for — Send and ProbeBatch answer it before any draw.
	hotDarkSilent
	// hotWatched: a detector watches the AS (its gate's detector list is
	// not empty).
	hotWatched
	// hotMayRefuse: a surviving rule can answer RefuseTCP.
	hotMayRefuse
)

// planTable is one protocol's plans, indexed by the FIB's interned AS
// index. It is filled lazily: hot and cold are allocated on the protocol's
// first touch (a scan uses one protocol, so a fabric normally fills one
// table), published by made, and each AS's entry on its first touch.
type planTable struct {
	made atomic.Bool
	// hot holds AS i's hot bits in byte i&3 of word i>>2: 1.9 MB at Scale
	// 1.0, against 73 MiB of cold plans.
	hot  []atomic.Uint32
	cold []plan
}

// plan is the cold part of the plan toward one destination AS, 40 B: the
// path's loss parameters (a decision rebuilds its loss.Path from them on
// the stack) and the index of the AS's gate in Fabric.gates.
type plan struct {
	params loss.Params
	gate   uint32
}

// gate is what a plan shares with other ASes: the engine rules whose
// scan-constant checks can still hold, the detectors watching the AS, and
// the burst outages that can cover the path. Checks keyed by the
// destination host or country, the time, or the attempt stay dynamic
// inside those parts. An AS without outages gets the fabric's one gate for
// its (protocol, surviving rules, detectors); one with outages, which are
// keyed by the AS, gets a gate of its own.
type gate struct {
	policy    policy.Plan
	detectors []policy.Detector
	outages   outage.PathOutages
}

// gateKey names an interned gate: which of the engine's rules and of the
// detectors survive, as bit masks over their lists. The masks decide the
// gate's rule list, MayRefuse and detector list whatever the protocol.
type gateKey struct {
	rules, dets uint64
	idx         uint32 // the gate's index in Fabric.gates
}

// maxInterned bounds a fabric's interned gates. The v4 scenario's scans
// have 7–16 each at every scale; an AS whose key finds no room gets a gate
// of its own.
const maxInterned = 32

// gateList holds a fabric's gates. It only grows, under planMu, and a gate
// never moves, so a decision reads a published gate without a lock: gate i
// lives in a block of firstGates << b entries, the blocks doubling, so the
// list costs one allocation per doubling and no copy.
type gateList struct {
	n      uint32
	blocks [gateBlocks][]gate
}

const (
	gateShift  = 3
	firstGates = 1 << gateShift
	// gateBlocks holds firstGates·(2^gateBlocks − 1) ≈ 268 M gates: at most
	// one per AS and protocol, 5.8 M at Scale 1.0.
	gateBlocks = 25
)

// at returns gate i, which must have been added.
func (l *gateList) at(i uint32) *gate {
	j := i + firstGates
	top := bits.Len32(j) - 1
	return &l.blocks[top-gateShift][j-1<<top]
}

// view is a plan as a decision reads it: the AS's gate, and its loss path
// rebuilt on the stack from the cold plan's parameters.
type view struct {
	*gate
	path loss.Path
}

// hotFor returns the hot bits of protocol p's plan toward the AS of a
// routed destination, compiling the plan on first touch. Safe for
// concurrent use.
func (f *Fabric) hotFor(p proto.Protocol, d *world.Dest) uint8 {
	t := &f.plans[p]
	if !t.made.Load() {
		f.newPlanTable(t)
	}
	i := uint32(d.ASIdx)
	if h := uint8(t.hot[i>>2].Load() >> (8 * (i & 3))); h&hotReady != 0 {
		return h
	}
	return f.compile(t, p, i, d.AS.Number)
}

// planFor returns protocol p's cold plan toward the AS of a routed
// destination, compiling it on first touch. Safe for concurrent use.
func (f *Fabric) planFor(p proto.Protocol, d *world.Dest) *plan {
	f.hotFor(p, d)
	return &f.plans[p].cold[d.ASIdx]
}

// view returns a compiled plan as a decision reads it.
func (f *Fabric) view(pl *plan) view {
	return view{gate: f.gates.at(pl.gate), path: f.lossPath.With(pl.params)}
}

// newPlanTable allocates t's hot words and cold plans.
func (f *Fabric) newPlanTable(t *planTable) {
	f.planMu.Lock()
	defer f.planMu.Unlock()
	if t.made.Load() {
		return
	}
	n := f.fib.NumASes()
	t.hot = make([]atomic.Uint32, (n+3)/4)
	t.cold = make([]plan, n)
	t.made.Store(true)
}

// compile fills AS i's plan in t for (p, as) and publishes its hot bits,
// which it returns. An AS whose gate key is interned costs no allocation:
// a new key's rule list is carved from ruleBuf, the backing array shared by
// all of the fabric's gates, unless a gate with the same rules carved it
// already, and a new gate goes into gates' current block. An AS with
// outages adds a gate of its own (and the outage schedule's small slice).
func (f *Fabric) compile(t *planTable, p proto.Protocol, i uint32, as asn.ASN) uint8 {
	f.planMu.Lock()
	defer f.planMu.Unlock()
	word, shift := &t.hot[i>>2], 8*(i&3)
	if h := uint8(word.Load() >> shift); h&hotReady != 0 {
		return h
	}
	q := &f.planQ
	*q = f.scan
	q.Proto, q.DstAS = p, as
	// add appends a gate, allocating the next block when the last is full.
	add := func(g gate) uint32 {
		n := f.gates.n
		if b := bits.Len32(n+firstGates) - 1 - gateShift; f.gates.blocks[b] == nil {
			f.gates.blocks[b] = make([]gate, firstGates<<b)
		}
		*f.gates.at(n) = g
		f.gates.n++
		return n
	}

	rules := f.cfg.Engine.Rules()
	keyed := len(rules) <= 64 && len(f.cfg.IDSes) <= 64
	var key gateKey
	idx, found, carved := uint32(0), false, false
	var g gate
	if keyed {
		key.rules, key.dets = survivors(rules, q), survivors(f.cfg.IDSes, q)
		for _, k := range f.interned[:f.nInterned] {
			if k.rules != key.rules {
				continue
			}
			if k.dets == key.dets {
				idx, found = k.idx, true
				break
			}
			g.policy, carved = f.gates.at(k.idx).policy, true
		}
	}
	var outs outage.PathOutages
	if sched := f.cfg.Outages; sched != nil {
		outs = sched.Path(f.trial, f.org.ID, as)
	}
	if found {
		g = *f.gates.at(idx)
	} else {
		if !carved {
			g.policy, f.ruleBuf = f.cfg.Engine.Plan(q, f.ruleBuf)
		}
		for _, det := range f.cfg.IDSes {
			if canMatch(det, q) {
				g.detectors = append(g.detectors, det)
			}
		}
		if keyed && f.nInterned < len(f.interned) {
			key.idx = add(g)
			f.interned[f.nInterned] = key
			f.nInterned++
			idx = key.idx
		} else if outs.Len() == 0 {
			idx = add(g)
		}
	}
	if outs.Len() > 0 {
		g.outages = outs
		idx = add(g)
	}

	h := hotReady
	if len(g.detectors) > 0 {
		h |= hotWatched
	}
	if g.policy.MayRefuse {
		h |= hotMayRefuse
	}
	if h&(hotWatched|hotMayRefuse) == 0 {
		h |= hotDarkSilent
	}
	t.cold[i] = plan{params: f.cfg.Loss.Params(f.org.ID, as, f.trial), gate: idx}
	// Only compile writes hot words, under planMu, so setting the byte is a
	// load and a store.
	word.Store(word.Load() | uint32(h)<<shift)
	return h
}

// canMatch reports whether a rule or detector x can have an opinion on a
// query of q's scan (policy.ScanGated; one that is not gated always can).
func canMatch(x any, q *policy.Query) bool {
	g, ok := x.(policy.ScanGated)
	return !ok || g.CanMatch(q)
}

// survivors returns which of xs (at most 64) can match a query of q's scan,
// as a bit mask: the rules Engine.Plan keeps, or the detectors a plan
// lists.
func survivors[T any](xs []T, q *policy.Query) uint64 {
	var m uint64
	for i, x := range xs {
		if canMatch(x, q) {
			m |= 1 << i
		}
	}
	return m
}

// Watched reports whether any detector watches dst's AS in a scan of
// protocol p — the list decide iterates, so a plan-time fact, fixed before
// the scan's first probe. It is the one thing the grab stage needs to know
// to run under the sweep: a dial toward a watched AS reads detector state
// the walk is still writing, and has to wait for the walk to end; every
// other dial is a function of its own coordinates. Safe for concurrent use.
func (f *Fabric) Watched(p proto.Protocol, dst ip.Addr) bool {
	d := f.fib.Resolve(dst)
	return d.Routed && f.hotFor(p, &d)&hotWatched != 0
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
func (f *Fabric) decide(pl *view, fm *fate, l4 bool, src, dst ip.Addr, d *world.Dest, p proto.Protocol, t time.Duration, attempt int) (v policy.Verdict, through bool) {
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
