// Package fabric is the simulated network connecting scanners to the
// synthetic Internet. It implements zmap.PacketSink (L4: evaluates real SYN
// packet bytes against routing, policy, outages, and loss, answering with
// real SYN-ACK/RST bytes), zmap.BatchProber (the same decisions for a whole
// batch, typed, without the packets) and zgrab.Dialer (L7: a dial's verdict
// under the same path conditions, and for an accepted connection the Result
// of one real byte exchange with hostsim's server for the host's software
// class, run once per process; see grab.go).
//
// Every probabilistic decision is a keyed hash of the event coordinates, so
// a scan through the fabric is deterministic and independent of goroutine
// scheduling.
package fabric

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/loss"
	"repro/internal/origin"
	"repro/internal/outage"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/world"
)

// Config assembles a fabric for one study.
type Config struct {
	World  *world.World
	Engine *policy.Engine
	// IDSes are the stateful detectors observing this scan's probes: the
	// live *policy.IDS machines, or a study origin's clones of them.
	IDSes   []policy.Detector
	Loss    *loss.Matrix
	Outages *outage.Schedule
	// Churn marks hosts offline for whole trials (nil = no churn).
	Churn *world.Churn
	// NumOrigins is how many origins scan simultaneously (drives
	// MaxStartups concurrency).
	NumOrigins int
	// Host server personalities.
	Hosts *hostsim.Server
}

// Fabric carries packets between one origin's scanner and the world during
// one trial. Create one per (origin, trial); fabrics share the underlying
// Config (including stateful IDSes).
type Fabric struct {
	cfg   *Config
	org   *origin.Origin
	trial int
	fib   *world.FIB
	// isnKey draws a host's initial sequence number per answered probe;
	// derived once here, not per SYN-ACK.
	isnKey rng.Key

	// scan is the policy query with this scan's constant coordinates filled
	// in (origin identity, trial, concurrency): the template each probe's
	// query starts from and the gate plans are compiled against.
	scan policy.Query
	// queries recycles policy.Query scratch space: the kernel fills a pooled
	// query, hands it to the plan's detectors and rules, and releases it
	// before returning, so probe evaluation allocates nothing. Rules must
	// not retain queries (see policy.Rule). A pool rather than a single
	// per-fabric query because the scan's grab stage dials while its sweep
	// is still probing.
	queries sync.Pool

	// plans holds one lazily filled table of per-destination-AS plans per
	// protocol: a hot byte per AS and a cold plan per AS over the fabric's
	// interned gates (see plan.go). planMu serializes compilation and
	// guards what only compile touches: ruleBuf, the backing array the
	// gates' rule lists are carved from; planQ, the scan query with one
	// (protocol, AS) filled in that compile hands the engine and the
	// detectors (a field, not a local, because a local passed by pointer
	// through those interfaces escapes, one heap query per AS compiled);
	// the gate list's length and blocks; and interned, the keys of the
	// gates ASes share. Published plans, their gates and lossPath, the
	// template a decision's loss path is rebuilt from, are read without it.
	plans     [proto.N]planTable
	planMu    sync.Mutex
	ruleBuf   []policy.Rule
	planQ     policy.Query
	gates     gateList
	interned  [maxInterned]gateKey
	nInterned int
	lossPath  loss.Path

	// opened counts served connections over the fabric's lifetime (the
	// grab stage's span attribute).
	opened atomic.Uint64
}

// New returns a fabric for one (origin, trial) scan.
func New(cfg *Config, org *origin.Origin, trial int) *Fabric {
	return &Fabric{
		cfg:    cfg,
		org:    org,
		trial:  trial,
		fib:    cfg.World.FIB(),
		isnKey: cfg.World.Key.Derive("isn"),
		scan: policy.Query{
			Origin:            org.ID,
			SrcCountry:        org.Country,
			NumSrcIPs:         len(org.SourceIPs),
			Rep:               org.ScanReputation,
			Trial:             trial,
			ConcurrentOrigins: cfg.NumOrigins,
		},
		queries:  sync.Pool{New: func() any { return new(policy.Query) }},
		lossPath: cfg.Loss.Base(org.ID, trial),
	}
}

// Routed implements zmap.Routability: the scanner consults the FIB's routed
// bit before paying for a probe's encode/decode round trip into unannounced
// space (which Send would silently eat anyway).
func (f *Fabric) Routed(dst ip.Addr) bool { return f.fib.Routed(dst) }

// RoutedBatch implements zmap.BatchRoutability: the batched sweep kernel
// evaluates a whole 4096-address batch against the FIB in one call, letting
// the FIB reuse its directory rank across same-/24 neighbors.
func (f *Fabric) RoutedBatch(dst []ip.Addr, routed []bool) { f.fib.RoutedBatch(dst, routed) }

// RoutedBlocks implements zmap.BlockRoutability: the FIB's /24 directory,
// which the space sweep tests on raw offsets before asking RoutedBatch.
func (f *Fabric) RoutedBlocks() []uint64 { return f.fib.RoutedBlocks() }

// Send implements zmap.PacketSink: evaluate one SYN probe. Nothing on the
// way allocates — headers decode into stack scratch, the FIB resolves the
// destination with array reads, the plan for its AS is a table slot, the
// policy query comes from the fabric's pool — and the answer, when there is
// one, is built in the spare capacity behind the caller's probe (see
// zmap.PacketSink; with no room there it costs one allocation).
func (f *Fabric) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	var dst ip.Addr
	var tcph packet.TCPHeader
	var probeIdx uint64
	if packet.Version(pkt) == 6 {
		var ip6 packet.IPv6Header
		if _, err := packet.DecodeTCP6Into(&ip6, &tcph, pkt); err != nil ||
			!tcph.HasFlag(packet.FlagSYN) || tcph.HasFlag(packet.FlagACK) {
			return nil // the network silently eats malformed probes
		}
		dst = ip6.Dst
		probeIdx = uint64(ip6.FlowLabel) // v6 probes stamp the index in FlowLabel
	} else {
		var iph packet.IPv4Header
		if _, err := packet.DecodeTCP4Into(&iph, &tcph, pkt); err != nil ||
			!tcph.HasFlag(packet.FlagSYN) || tcph.HasFlag(packet.FlagACK) {
			return nil // the network silently eats malformed probes
		}
		dst = iph.Dst
		probeIdx = uint64(iph.ID) // scanner stamps the probe index in IP ID
	}
	d := f.fib.Resolve(dst)
	if !d.Routed {
		return nil // unannounced space: no route, no answer
	}
	p, isProto := proto.FromPort(tcph.DstPort)
	if !isProto {
		return nil
	}
	if h := f.hotFor(p, &d); !d.Host && h&hotDarkSilent != 0 {
		return nil // empty space nothing in this AS would answer for
	}
	v := f.view(&f.plans[p].cold[d.ASIdx])
	reply := pkt[len(pkt):]
	switch f.probe(&v, &fate{}, src, dst, &d, p, t, probeIdx) {
	case answerRST:
		return packet.MakeRSTInto(reply, dst, src, tcph.DstPort, tcph.SrcPort, 0, tcph.Seq+1)
	case answerSYNACK:
		seq := f.isnKey.Uint64(dst.Word64(), uint64(t))
		return packet.MakeSYNACKInto(reply, dst, src, tcph.DstPort, tcph.SrcPort, uint32(seq), tcph.Seq+1)
	}
	return nil
}

// What probe returns: one SYN's answer, before either encoding.
const (
	answerNone uint8 = iota
	answerSYNACK
	answerRST
)

// probe is the one per-probe L4 decision: Send encodes its answer as packet
// bytes, ProbeBatch as mask bits. The callers have resolved dst, taken its
// plan and answered dark-silent empty space; fm carries the draws earlier
// probes of the same target made (fresh for Send).
func (f *Fabric) probe(pl *view, fm *fate, src, dst ip.Addr, d *world.Dest, p proto.Protocol, t time.Duration, probeIdx uint64) uint8 {
	verdict, through := f.decide(pl, fm, true, src, dst, d, p, t, 0)
	// Independent per-packet loss on top of the shared path state: the
	// probe and its response can each be dropped.
	if !through || pl.path.ProbeLost(&fm.loss, dst, probeIdx, t) {
		return answerNone
	}
	switch {
	case verdict == policy.RefuseTCP, d.Host && !d.Services.Has(p):
		// A refusing firewall answers for the whole network; otherwise
		// closed ports draw an RST only when a machine owns the address.
		return answerRST
	case !d.Host:
		return answerNone // empty space stays silent
	}
	// Host answers. ResetAfterAccept/CloseAfterAccept hosts still
	// SYN-ACK (they kill the connection later, as Alibaba's SSH hosts
	// do).
	return answerSYNACK
}

// held marks a target ProbeBatch left undecided: every bit set in both
// answer masks, as the zmap.BatchProber contract spells it (zmap.Held), so
// the fabric satisfies the contract without importing the scanner.
const held = ^uint8(0)

// ProbeBatch implements zmap.BatchProber: Send's decisions for a batch
// without the packets — the FIB resolved in bulk, one hot byte per target,
// and only for a target that needs a decision its plan, then probe per SYN.
// A target's probes share one fate, so what they have in common is drawn
// once. A target in an AS a detector watches is marked held instead: those
// are the only probes whose answers depend on what was probed before them
// (DESIGN § 8.2), and the caller decides them through Send, in target
// order. So ProbeBatch calls no detector, and with the resolve scratch and
// the fates on the stack, concurrent calls on one fabric share nothing.
func (f *Fabric) ProbeBatch(srcs []ip.Addr, port uint16, probes int, delay time.Duration, dsts []ip.Addr, ts []time.Duration, synAcks, rsts []uint8) {
	p, isProto := proto.FromPort(port)
	var dests [256]world.Dest
	for base := 0; base < len(dsts); base += len(dests) {
		chunk := dsts[base:min(base+len(dests), len(dsts))]
		f.fib.ResolveBatch(chunk, dests[:len(chunk)])
		for i, dst := range chunk {
			var sa, rst uint8
			if d := &dests[i]; d.Routed && isProto {
				if h := f.hotFor(p, d); h&hotWatched != 0 {
					sa, rst = held, held
				} else if d.Host || h&hotDarkSilent == 0 {
					v := f.view(&f.plans[p].cold[d.ASIdx])
					src := origin.SourceFor(srcs, dst)
					var fm fate
					for j := 0; j < probes; j++ {
						switch f.probe(&v, &fm, src, dst, d, p, ts[base+i]+time.Duration(j)*delay, uint64(j)) {
						case answerSYNACK:
							sa |= 1 << j
						case answerRST:
							rst |= 1 << j
						}
					}
				}
			}
			synAcks[base+i], rsts[base+i] = sa, rst
		}
	}
}

// ConnsOpened reports how many served connections the fabric has opened in
// total (connections refused, reset, or half-closed before serving are not
// counted — no server ever answered on them).
func (f *Fabric) ConnsOpened() uint64 { return f.opened.Load() }
