package zmap

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// sweepBatch is a sweep's block: how many group elements of the shard's walk
// (in-space or not) one batch step covers, so a block holds at most
// sweepBatch targets. The context is checked before each block, so a
// canceled sweep stops after at most one more block instead of walking the
// rest of the address space. The check is a pure read, so an uncancelled
// sweep emits a bit-identical schedule.
const sweepBatch = 4096

// PacketSink is the transport the scanner sends probes through. The
// simulation fabric implements it; a raw-socket implementation would attach
// at the same seam for scans of real networks. The simulated network is
// instantaneous, so Send synchronously returns the response packet bytes
// elicited by the probe (nil when the probe or its response was dropped).
//
// The probe buffer is reused between Send calls: pkt is only valid for the
// duration of the call, and implementations that keep packet bytes (pcap
// tees) must copy them.
//
// The response may live in the probe buffer's spare capacity
// (pkt[len(pkt):cap(pkt)]) — the fabric answers there when the room
// suffices, so an answered probe allocates nothing — and is therefore valid
// only until the caller next writes that buffer. A caller that must not have
// its buffer's tail written passes a slice with no spare capacity.
type PacketSink interface {
	Send(src ip.Addr, pkt []byte, t time.Duration) []byte
}

// Routability is an optional PacketSink capability: a sink that knows the
// announced address space ahead of time (the simulation fabric's sparse
// FIB; a real deployment's routing-table snapshot) exposes it so the sweep
// can skip the SYN encode and Send round trip for destinations that can
// never answer. The scanner still counts the skipped probes in Stats and
// telemetry exactly as if they had been sent and lost into the void, so
// statistics, metrics, and loss accounting are identical with or without
// the short-circuit. Routed must be safe for concurrent use and must agree
// with Send: an address reported unrouted must be one Send answers with
// silence before any observable side effect (IDS counting, pcap capture).
// Wrapper sinks that need to observe every probe (the pcap tee) simply do
// not implement Routability.
type Routability interface {
	Routed(dst ip.Addr) bool
}

// BatchRoutability is the batch form of Routability: fill routed[i] with
// Routed(dst[i]) for a whole sweep batch in one call, so the question costs
// one interface call per batch and the sink answers in a loop of its own
// (the FIB's tests the directory bit inline). The batch step asks it before
// anything else is computed for a target: an unrouted address never gets a
// probe time. len(routed) == len(dst); both slices are caller-owned and
// only valid for the duration of the call. Implementations must be safe for
// concurrent use and must agree with Routed answer-for-answer — the sweep
// treats the two as interchangeable.
type BatchRoutability interface {
	RoutedBatch(dst []ip.Addr, routed []bool)
}

// BlockRoutability is an optional PacketSink capability: the sink's
// routing table at /24 granularity, one bit per /24 of v4 space (block
// b = addr>>8 is bit b&63 of word b>>6). A clear bit, or a word past the
// end of the slice, means every address of that /24 is unrouted, with the
// same promise Routability makes about Send; a set bit promises nothing
// (the sweep still asks RoutedBatch about each address under it). The
// space sweep tests the bit on the walk's raw offsets, before any ip.Addr
// exists, so a dark address costs one bit test; hitlist scans never
// consult it. The slice is read-only and must not change while a scan
// runs: a sweep over 64 blocks or more reads it from two goroutines at once
// (the sweep's and its walker's). A v6-only sink returns an empty one.
type BlockRoutability interface {
	RoutedBlocks() []uint64
}

// BatchProber is an optional PacketSink capability: a sink that is the
// network (the in-process fabric) answers a routed batch in one typed call
// instead of a packet round trip per probe. Target i gets probes (≤ 8) SYNs
// from origin.SourceFor(srcs, dsts[i]) to port, probe j at ts[i]+j·delay;
// the sink writes every synAcks[i] and rsts[i], bit j set when probe j drew
// that answer. It must decide each probe as its Send decides the packet
// MakeSYNInto builds for it. Sinks that speak bytes (pcap tee, raw socket)
// lack it.
//
// A call decides only the targets whose answers are a function of their own
// coordinates. It leaves each target a live detector watches undecided,
// every bit set in both masks (synAcks[i] = rsts[i] = Held), for the caller
// to decide through Send in target order; so a call touches no shared
// state, and calls must be safe for concurrent use (the sweep splits a
// batch across two goroutines, see splitter).
type BatchProber interface {
	ProbeBatch(srcs []ip.Addr, port uint16, probes int, delay time.Duration, dsts []ip.Addr, ts []time.Duration, synAcks, rsts []uint8)
}

// Held is what BatchProber.ProbeBatch writes into both answer masks of a
// target it left undecided: every bit, so a sink can write ^uint8(0)
// without importing this package. A decided target never shows a bit in
// both masks: each probe draws one answer or none.
const Held uint8 = 0xff

// Config configures one scan.
type Config struct {
	// SourceIPs are the scanner's source addresses; probes rotate over
	// them by target (US64 scans with a /26, everyone else with one).
	SourceIPs []ip.Addr
	// SourcePortBase is the first source port; probe i of a target uses
	// SourcePortBase+i so responses attribute to the probe that
	// elicited them (ZMap uses its source-port range the same way).
	SourcePortBase uint16
	// TargetPort is the scanned TCP port.
	TargetPort uint16
	// Probes is the number of SYNs per target (the paper sends 2).
	Probes int
	// ProbeDelay spaces the probes to one target apart in time instead
	// of sending them back-to-back; the paper's §7 recommends this
	// (after Bano et al.) because consecutive probes share loss fate.
	ProbeDelay time.Duration
	// SpaceBits sizes the scanned address space (2^SpaceBits addresses).
	// Ignored when Hitlist is set.
	SpaceBits uint8
	// Hitlist, when non-empty, switches the scan from a space sweep to a
	// hitlist scan: the targets are exactly the listed addresses (any
	// family), visited in a seed-determined permuted order, with the
	// virtual clock spread over the list instead of the space. This is
	// the IPv6 scan strategy — a 2^128 permutation sweep is meaningless,
	// so v6 scanning is driven by externally gathered target lists. The
	// slice is not copied; callers must not modify it during the scan.
	Hitlist []ip.Addr
	// Seed drives the permutation and validation cookies. Synchronized
	// scans share the seed so all origins probe the same target at the
	// same scan position.
	Seed uint64
	// Shard / Shards split the scan across processes.
	Shard, Shards int
	// ScanDuration is the virtual wall-clock length of the scan; target
	// k is probed at k/targets × ScanDuration, modelling a constant
	// probe rate (the paper scans at 100Kpps for ~21 hours).
	ScanDuration time.Duration
	// Blocklist addresses are never probed (the paper excludes 17.8M
	// addresses by request); Allowlist, when non-nil, restricts the scan
	// to its prefixes.
	Blocklist *ip.Set
	Allowlist *ip.Set
	// Deprecated: ExpectedReplies is ignored; the sweep keeps no reply
	// buffer to size.
	ExpectedReplies int
	// Telemetry, when set, receives live sweep counters. The sweep
	// accumulates into its private Stats as always and flushes deltas
	// into these counters once per block of the walk (and once at sweep
	// end), so the per-probe hot path is unchanged and a nil bundle
	// costs one pointer check per block.
	Telemetry *telemetry.SweepMetrics
}

func (c *Config) validate() error {
	if len(c.SourceIPs) == 0 {
		return pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("zmap: no source IPs"))
	}
	if c.Probes <= 0 || c.Probes > 8 {
		// Reply.ProbeMask and the batch answer masks are eight bits wide.
		return pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("zmap: probes must be in 1..8, got %d", c.Probes))
	}
	if c.ScanDuration <= 0 {
		return pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("zmap: scan duration must be positive"))
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.SourcePortBase == 0 {
		c.SourcePortBase = 40000
	}
	return nil
}

// Reply is one validated response from a live host.
type Reply struct {
	Dst ip.Addr
	// ProbeMask has bit i set when probe i elicited a valid SYN-ACK.
	ProbeMask uint8
	// RST is true when the host answered with RST (port closed or
	// administratively refused) instead of SYN-ACK.
	RST bool
	// T is the virtual time the host was probed.
	T time.Duration
}

// Stats summarizes a completed scan.
type Stats struct {
	Targets    uint64 // addresses probed (after lists)
	Blocked    uint64 // addresses skipped by blocklist/allowlist
	ProbesSent uint64
	SynAcks    uint64 // valid SYN-ACK packets received
	Rsts       uint64 // valid RST packets received
	Invalid    uint64 // responses failing cookie/port validation
	Duplicates uint64 // extra SYN-ACKs beyond the first per target
}

// statsFlusher pushes Stats deltas into a scan's telemetry counters at
// sweep-batch granularity. A nil flusher or bundle is a no-op, keeping the
// disabled-telemetry sweep free of per-event work.
type statsFlusher struct {
	m    *telemetry.SweepMetrics
	last Stats
}

// flush publishes the counters accumulated since the previous flush.
func (f *statsFlusher) flush(st *Stats) {
	if f == nil || f.m == nil {
		return
	}
	m, d := f.m, *st
	m.Targets.Add(d.Targets - f.last.Targets)
	m.Blocked.Add(d.Blocked - f.last.Blocked)
	m.ProbesSent.Add(d.ProbesSent - f.last.ProbesSent)
	m.SynAcks.Add(d.SynAcks - f.last.SynAcks)
	m.Rsts.Add(d.Rsts - f.last.Rsts)
	m.Invalid.Add(d.Invalid - f.last.Invalid)
	m.Duplicates.Add(d.Duplicates - f.last.Duplicates)
	// A probe whose response never arrived is the scanner-visible loss
	// class: sent minus every validated or invalid response.
	lost := d.ProbesSent - d.SynAcks - d.Rsts - d.Invalid
	lastLost := f.last.ProbesSent - f.last.SynAcks - f.last.Rsts - f.last.Invalid
	m.Lost.Add(lost - lastLost)
	f.last = d
}

// Scanner performs one scan per Run call.
type Scanner struct {
	cfg      Config
	perm     *Permutation
	hitlist  []ip.Addr  // non-nil for hitlist scans
	validate rng.SipKey // cookie key, derived once (hot path)
	trace    *telemetry.Span
}

// SetTraceSpan attaches the sweep-stage trace span the next Run reports
// into: per-batch "sweep_batch" exemplars become its children
// (bounded sampling) and the sweep's target/unrouted totals its
// attributes. A nil span (tracing off) keeps the sweep untraced at the
// cost of nil checks at batch granularity. Not safe to call mid-Run.
func (s *Scanner) SetTraceSpan(sp *telemetry.Span) { s.trace = sp }

// NewScanner validates the config and prepares the permutation.
func NewScanner(cfg Config) (*Scanner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	key := rng.NewKey(cfg.Seed).Derive("zmap")
	var perm *Permutation
	var err error
	if len(cfg.Hitlist) > 0 {
		perm, err = NewPermutationN(key, uint64(len(cfg.Hitlist)), cfg.Shard, cfg.Shards)
	} else {
		perm, err = NewPermutation(key, cfg.SpaceBits, cfg.Shard, cfg.Shards)
	}
	if err != nil {
		return nil, err
	}
	return &Scanner{cfg: cfg, perm: perm, hitlist: cfg.Hitlist,
		validate: key.Derive("validate").Sip()}, nil
}

// cookie computes the validation value embedded in the probe's sequence
// number: a keyed hash of the flow 4-tuple, so responses can be validated
// statelessly (ZMap's core trick).
func (s *Scanner) cookie(src, dst ip.Addr, srcPort uint16) uint32 {
	if dst.Is4() {
		// The v4 flow word is the historical layout; changing it would
		// change every probe's sequence number and break byte-identity.
		return uint32(rng.SipHash24Words(s.validate,
			uint64(src.V4())<<32|uint64(dst.V4()), uint64(srcPort)<<16|uint64(s.cfg.TargetPort)))
	}
	return uint32(rng.SipHash24Words(s.validate,
		src.Hi()^dst.Lo(), src.Lo()^dst.Hi(), dst.Lo(),
		uint64(srcPort)<<16|uint64(s.cfg.TargetPort)))
}

// srcFor picks the source IP for a target.
func (s *Scanner) srcFor(dst ip.Addr) ip.Addr {
	return origin.SourceFor(s.cfg.SourceIPs, dst)
}

// sweepKernel is one sweep's state: where its targets go (the sink
// and its routability, the per-reply or per-target callback), what it has
// counted, and the caller-owned batch arrays the walk, the lists, the
// routability call and the clock stamp work in. A kernel is one ~175 KiB
// object reused for the whole sweep, so the per-address cost is array
// writes — no per-batch allocation, no interface call per address — and
// recycled across sweeps through kernels, so a study of many small scans
// allocates it a few times, not once per scan.
type sweepKernel struct {
	s *Scanner
	// sink receives the probes; reply is invoked for every target that
	// answered. A nil sink makes the kernel a schedule enumerator (Targets):
	// nothing is sent and visit is invoked for every target instead.
	sink  PacketSink
	brt   BatchRoutability // nil: every candidate is routed
	bp    BatchProber
	reply func(Reply)
	visit func(ip.Addr, time.Duration)
	// splits: the typed path may split a batch across a second goroutine
	// (GOMAXPROCS > 1), started by the first batch large enough to share.
	splits bool
	split  splitter

	// sv is the space sweep's filter over its walk: the lists and the
	// sink's /24 directory, recording candidates into own and widening
	// them into dsts and pos.
	sv sieve
	// w walks every other block of a long space sweep on a second
	// goroutine (see walker).
	w        walker
	st       Stats
	unrouted uint64
	fl       *statsFlusher
	bt       *telemetry.ChildTracer
	synBuf   []byte

	own    [sweepBatch]cand   // the candidates of a block this goroutine walked
	pos    [sweepBatch]uint64 // 1-based scan positions of the candidates (a hitlist block's list indices first)
	dsts   [sweepBatch]ip.Addr
	times  [sweepBatch]time.Duration
	routed [sweepBatch]bool
	// The batch prober's answers for the compacted routed slice.
	synAcks, rsts [sweepBatch]uint8
}

// routedEach adapts a Routability-only sink to the batch form, so the
// kernel asks one question per batch whatever the sink offers.
type routedEach struct{ Routability }

func (r routedEach) RoutedBatch(dst []ip.Addr, routed []bool) {
	for i, a := range dst {
		routed[i] = r.Routed(a)
	}
}

// kernels recycles sweep kernels: a free list of at most keptKernels,
// which, unlike a sync.Pool, a garbage collection does not empty, so a
// study allocates one kernel per sweep running at once, however often
// the collector runs. A kernel goes back only once no goroutine holds it:
// its sweep has returned (halting the walker), the splitter has stopped,
// and the caller has read its Stats (release).
var kernels struct {
	sync.Mutex
	free []*sweepKernel
}

// keptKernels bounds the free list: ≈ 1.4 MiB of kernels kept for a
// study that ran that many sweeps at once.
const keptKernels = 8

// newKernel returns a sweep's kernel over sink (nil for Targets),
// reporting batch exemplars through bt and, when the scan has telemetry,
// flushing its counters per batch through a flusher of its own. The kernel
// comes from kernels reset whole, so nothing of an earlier sweep survives
// in it but the walker ring slots' empty candidate arrays; the caller owes
// it a release.
func (s *Scanner) newKernel(sink PacketSink, bt *telemetry.ChildTracer) *sweepKernel {
	var k *sweepKernel
	kernels.Lock()
	if n := len(kernels.free); n > 0 {
		k = kernels.free[n-1]
		kernels.free = kernels.free[:n-1]
	}
	kernels.Unlock()
	if k == nil {
		k = new(sweepKernel)
	}
	slots := k.ringSlots()
	*k = sweepKernel{s: s, sink: sink, bt: bt}
	k.keepRingSlots(slots)
	k.sv = sieve{allow: s.cfg.Allowlist, block: s.cfg.Blocklist, span: sweepBatch,
		cands: k.own[:0], dsts: k.dsts[:], pos: k.pos[:]}
	if sink != nil {
		if brt, ok := sink.(BatchRoutability); ok {
			k.brt = brt
		} else if rt, ok := sink.(Routability); ok {
			k.brt = routedEach{rt}
		}
		if br, ok := sink.(BlockRoutability); ok {
			k.sv.dir, k.sv.hasDir = br.RoutedBlocks(), true
		}
		k.bp, _ = sink.(BatchProber)
		k.splits = k.bp != nil && runtime.GOMAXPROCS(0) > 1
		// Room for the SYN (as large as a SYN-ACK: both carry only the MSS
		// option) plus the sink's response behind it (see PacketSink).
		k.synBuf = make([]byte, 0, 2*packet.ReplyCap)
		if s.cfg.Telemetry != nil {
			k.fl = &statsFlusher{m: s.cfg.Telemetry}
		}
	}
	return k
}

// release hands the kernel back to kernels, dropping what it references
// (the scanner, the sink, the callbacks) so a pooled kernel pins nothing of
// its sweep. Only after the sweep has returned and stopSplit has: no other
// goroutine may still hold it.
func (k *sweepKernel) release() {
	slots := k.ringSlots()
	*k = sweepKernel{}
	k.keepRingSlots(slots)
	kernels.Lock()
	if len(kernels.free) < keptKernels {
		kernels.free = append(kernels.free, k)
	}
	kernels.Unlock()
}

// ringSlots returns the walker ring slots' candidate arrays, emptied: what
// a kernel carries across its resets, so a recycled kernel's walker does
// not grow its ring from nothing again. A cand holds no pointer, so the
// arrays pin nothing of the sweep that filled them.
func (k *sweepKernel) ringSlots() (slots [ringDepth][]cand) {
	for i := range k.w.ring {
		slots[i] = k.w.ring[i].cands[:0]
	}
	return slots
}

// keepRingSlots puts ringSlots' arrays back into a reset kernel's ring.
func (k *sweepKernel) keepRingSlots(slots [ringDepth][]cand) {
	for i := range k.w.ring {
		k.w.ring[i].cands = slots[i]
	}
}

// sweep walks the scanner's permutation block by block through the batch
// step, numbering its targets as it goes. The permutation walk, context
// check and telemetry flush all amortize to once per block; a canceled
// sweep returns pipeline.ErrCanceled with the walk stopped at a block
// boundary. A space sweep of helperBlocks blocks or more with GOMAXPROCS >
// 1 has a walker sieve the odd blocks ahead on a second goroutine; the
// sweep goroutine walks the even ones and numbers and steps every block in
// walk order, so the schedule, the probes and the replies are those of the
// walk on one goroutine.
func (k *sweepKernel) sweep(ctx context.Context) error {
	defer func() { k.fl.flush(&k.st) }()
	// How a block is fetched is the only thing a hitlist scan and a space
	// sweep differ in: list entries by permuted index, or the walk's
	// offsets sieved as it visits them (the lists and the directory rule
	// most out before they become addresses).
	var it *Iterator
	var hit *HitlistIterator
	if k.s.hitlist != nil {
		hit = k.s.perm.IterateHitlist(k.s.hitlist)
		it = hit.it
	} else {
		it = k.s.perm.Iterate()
	}
	blocks := it.blocks()
	var w *walker
	if hit == nil && blocks >= helperBlocks && runtime.GOMAXPROCS(0) > 1 {
		w = k.startWalker(it)
		defer w.halt()
	}
	var position uint64
	for b := uint64(0); ; b++ {
		if err := ctx.Err(); err != nil {
			return pipeline.Canceled(err)
		}
		k.fl.flush(&k.st)
		var n, blocked, cands int
		switch {
		case hit != nil:
			n = hit.block(k.dsts[:], k.pos[:])
			cands = k.admitListed(n, position)
			blocked = n - cands
		case w != nil && b%2 == 1:
			wb := w.take(b / 2)
			n, blocked = wb.n, wb.blocked
			cands = widen(wb.cands, position, k.dsts[:], k.pos[:])
			w.release(b / 2)
		default:
			n = k.sv.next(it, position)
			blocked, cands = k.sv.blocked, k.sv.kept
			if w != nil {
				it.skip() // the walker's block
			}
		}
		k.st.Blocked += uint64(blocked)
		k.step(n-blocked, cands)
		position += uint64(n)
		if b+1 == blocks {
			return nil
		}
	}
}

// admitListed runs the allow/blocklists over the n hitlist entries in
// k.dsts (scan positions base+1…), compacting the survivors to the front of
// k.dsts with their positions in k.pos, and returns how many survived:
// every one of them is a candidate.
func (k *sweepKernel) admitListed(n int, base uint64) int {
	kept := 0
	for i, dst := range k.dsts[:n] {
		if !k.sv.listed(dst) {
			continue
		}
		k.dsts[kept], k.pos[kept] = dst, base+uint64(i)+1
		kept++
	}
	return kept
}

// helperBlocks is the fewest blocks a shard's walk must span for its sweep
// to start a walker. A walker costs a goroutine and a ring whose slots grow
// to hold a dense block's candidates, which a short walk does not repay; the
// floor keeps it off the study's scans (a 2^14 scan spans four blocks).
const helperBlocks = 64

// ringDepth is how many walked blocks the walker may hold ahead of the
// sweep goroutine. The walker refills the ring half a ring at a time, so it
// parks at most once per half ring, and a wake-up costs about as much as the
// ~10 µs walk of a block; shallower rings measured slower and less steady
// (DESIGN § 8.1).
const ringDepth = 8

// takeSpins is how many times the sweep goroutine yields, looking for the
// walker's next block, before it parks. Over dark space both goroutines
// walk at one rate, so the block is usually a moment away, and parking
// for it would cost a wake-up per block.
const takeSpins = 64

// walker is a long space sweep's second goroutine over the permutation.
// The walk is a geometric sequence, so block b's first element is
// first·step^{b·sweepBatch} and any block can be walked without walking
// to it: the walker walks the odd blocks (its block j is the walk's block
// 2j+1), each through its own copy of the kernel's sieve, and leaves each
// in a ring slot as cands with the block's in-space and Blocked counts.
// Nothing it does depends on the blocks before it, so no scan position has
// to be recovered and nothing is merged: the sweep goroutine takes the
// slots in walk order and numbers them as it numbers its own blocks. The
// mutex orders every slot hand-over; its two conditions are where each side
// parks.
type walker struct {
	sv    sieve    // the kernel's lists and directory; its own cands
	it    Iterator // moved to the start of each block it walks
	start uint64   // first element of its next window's first block
	ring  [ringDepth]walked

	mu          sync.Mutex
	ready, room sync.Cond // a slot was filled; the sweep freed half the ring
	taken       uint64    // blocks the sweep goroutine has numbered
	stop        bool      // the sweep is over: exit
	done        chan struct{}
}

// walked is a ring slot: one block the walker walked and sieved.
type walked struct {
	cands      []cand        // grown on demand, kept across blocks
	n, blocked int           // in-space values visited; of them, list drops
	seq        atomic.Uint64 // j+1 once the slot holds the walker's block j
}

// testHookWalkOrder, when set, reorders each window of blocks the walker
// is about to walk; tests shuffle it to show the walk order of the walker's
// blocks does not reach the schedule.
var testHookWalkOrder func(window []uint64)

// startWalker starts the walker on the odd blocks of the sweep's walk; it,
// the sweep's iterator, must sit at the start of block 0.
func (k *sweepKernel) startWalker(it *Iterator) *walker {
	pm := it.pm
	w := &k.w
	w.sv = k.sv
	w.sv.cands, w.sv.dsts, w.sv.pos = nil, nil, nil
	w.it = *it
	w.start = mulmodShoup(it.current, pm.stepBlk, pm.stepBlkShp, pm.p)
	w.ready.L, w.room.L = &w.mu, &w.mu
	w.done = make(chan struct{})
	go w.run()
	return w
}

// run walks the walker's blocks half a ring (a window) at a time, once the
// sweep goroutine has numbered the blocks whose slots the window reuses.
func (w *walker) run() {
	defer close(w.done)
	const half = ringDepth / 2
	pm, count := w.it.pm, w.it.blocks()/2 // the walk's odd blocks
	var order, starts [half]uint64
	for lo := uint64(0); lo < count; lo += half {
		win := order[:min(half, count-lo)]
		for i := range win {
			win[i], starts[i] = lo+uint64(i), w.start
			w.start = mulmodShoup(w.start, pm.stepBlk2, pm.stepBlk2Shp, pm.p)
		}
		if testHookWalkOrder != nil {
			testHookWalkOrder(win)
		}
		w.mu.Lock()
		for !w.stop && w.taken+half < lo {
			w.room.Wait()
		}
		stop := w.stop
		w.mu.Unlock()
		for _, j := range win {
			if stop {
				return
			}
			wb := &w.ring[j%ringDepth]
			w.it.current, w.it.emitted = starts[j-lo], (2*j+1)*sweepBatch
			w.sv.cands = wb.cands
			wb.n = w.sv.walk(&w.it)
			wb.cands, wb.blocked = w.sv.cands, w.sv.blocked
			w.mu.Lock()
			wb.seq.Store(j + 1)
			stop = w.stop
			w.mu.Unlock()
			w.ready.Signal()
		}
	}
}

// take waits for the walker's block j and returns its slot.
func (w *walker) take(j uint64) *walked {
	wb := &w.ring[j%ringDepth]
	for range takeSpins {
		if wb.seq.Load() == j+1 {
			return wb
		}
		runtime.Gosched()
	}
	w.mu.Lock()
	for wb.seq.Load() != j+1 {
		w.ready.Wait()
	}
	w.mu.Unlock()
	return wb
}

// release hands block j's slot back, waking the walker when half the ring
// is free.
func (w *walker) release(j uint64) {
	w.mu.Lock()
	w.taken = j + 1
	w.mu.Unlock()
	if (j+1)%(ringDepth/2) == 0 {
		w.room.Signal()
	}
}

// halt stops the walker after the block it is walking, if any, and waits
// for it to exit.
func (w *walker) halt() {
	w.mu.Lock()
	w.stop = true
	w.mu.Unlock()
	w.room.Signal()
	<-w.done
}

// step is the sweep's one batch step, over targets the lists left, of which
// the first cands sit in k.dsts with their scan positions in k.pos (the
// rest are unrouted for certain). In order: one routability call for the
// candidates; the virtual-clock stamp, for routed candidates only,
// compacting them to the front; the unrouted remainder counted in bulk; the
// probes, over the dense routed slice (one BatchProber call, or a packet
// round trip per probe). Most of a real sweep is dark, and the directory
// has dropped most of it before this runs, so nothing here runs for dark
// /24s but the counting.
//
// The clock expression is the schedule: target k of the scan is probed at
// k/space × ScanDuration, and its float64 rounding is part of every
// dataset's bytes.
func (k *sweepKernel) step(targets, cands int) {
	if targets == 0 {
		return
	}
	s := k.s
	k.st.Targets += uint64(targets)
	k.bt.Begin()
	dsts, routed := k.dsts[:cands], k.routed[:cands]
	if k.brt != nil {
		k.brt.RoutedBatch(dsts, routed)
	} else {
		for i := range routed {
			routed[i] = true
		}
	}
	space, dur := float64(s.perm.Space()), float64(s.cfg.ScanDuration)
	kept := 0
	for i, ok := range routed {
		if !ok {
			continue
		}
		k.dsts[kept] = dsts[i]
		k.times[kept] = time.Duration(float64(k.pos[i]) / space * dur)
		kept++
	}
	if u := uint64(targets - kept); u > 0 {
		// Unrouted space: count the probes as sent and lost without the
		// encode/Send round trip — exactly what sending them would have
		// produced.
		k.st.ProbesSent += uint64(s.cfg.Probes) * u
		k.unrouted += u
		if s.cfg.Telemetry != nil {
			s.cfg.Telemetry.Unrouted.Add(u)
		}
	}
	switch {
	case k.sink == nil:
		for i, dst := range k.dsts[:kept] {
			k.visit(dst, k.times[i])
		}
	case k.bp != nil:
		// Typed answers, counted as probeTarget counts validated packets
		// (Invalid stays 0: no answer can arrive on the wrong flow).
		if k.splits && kept > probeChunk {
			k.probeSplit(kept)
		} else {
			k.probe(0, kept)
		}
		held := 0
		sa, rst := k.synAcks[:kept], k.rsts[:kept]
		for i, m := range sa {
			if m&rst[i] != 0 {
				// Held: decided here through the packet path, in target
				// order, so the detectors see the serial sequence.
				held++
				if r, ok := s.probeTarget(k.sink, k.dsts[i], k.times[i], &k.st, &k.synBuf); ok {
					k.reply(r)
				}
				continue
			}
			if m|rst[i] == 0 {
				continue
			}
			acks := uint64(bits.OnesCount8(m))
			k.st.SynAcks += acks
			k.st.Rsts += uint64(bits.OnesCount8(rst[i]))
			if acks > 1 {
				k.st.Duplicates += acks - 1
			}
			k.reply(Reply{Dst: k.dsts[i], ProbeMask: m, RST: rst[i] != 0, T: k.times[i]})
		}
		k.st.ProbesSent += uint64(s.cfg.Probes) * uint64(kept-held) // probeTarget counted the held
	default:
		for i, dst := range k.dsts[:kept] {
			if r, ok := s.probeTarget(k.sink, dst, k.times[i], &k.st, &k.synBuf); ok {
				k.reply(r)
			}
		}
	}
	k.bt.End(telemetry.A("targets", int64(targets)), telemetry.A("unrouted", int64(targets-kept)))
}

// probe is the typed path's one call: targets [lo, hi) of the routed slice
// through the sink's ProbeBatch, answers into the kernel's masks.
func (k *sweepKernel) probe(lo, hi int) {
	c := &k.s.cfg
	k.bp.ProbeBatch(c.SourceIPs, c.TargetPort, c.Probes, c.ProbeDelay, k.dsts[lo:hi], k.times[lo:hi], k.synAcks[lo:hi], k.rsts[lo:hi])
}

// probeChunk is how many routed targets one claim of a split batch covers.
const probeChunk = 256

// splitter is a typed sweep's second goroutine. The walk, the clock stamp
// and the reply order stay on the sweep goroutine; only the ProbeBatch
// calls over a batch's routed slice are shared. The two goroutines claim
// probeChunk-target chunks from next. ProbeBatch leaves a target whose
// answer hangs on evaluation order (one a live detector watches) Held for
// the sweep goroutine to decide afterwards, in target order, as an unsplit
// batch does; everything else is a keyed hash of its own coordinates and
// may be decided anywhere, in any order. The goroutine lives for one Run,
// and the channels are its only synchronization: a split batch costs two
// channel operations and no allocation.
type splitter struct {
	next        atomic.Int64 // the next chunk to claim
	kept        int          // routed targets in the batch being split
	start, done chan struct{}
}

// probeSplit decides the kernel's first kept routed targets on both
// goroutines, starting the helper on first use. The sweep goroutine takes
// chunk 0 itself, so a sink sees each batch's first call on the scan's own
// goroutine, starting at the batch's first target.
func (k *sweepKernel) probeSplit(kept int) {
	sp := &k.split
	if sp.start == nil {
		sp.start, sp.done = make(chan struct{}), make(chan struct{})
		go k.help()
	}
	sp.kept = kept
	sp.next.Store(1)
	sp.start <- struct{}{}
	k.probe(0, probeChunk)
	k.claim()
	<-sp.done
}

// claim decides chunks of the batch being split until none is left.
func (k *sweepKernel) claim() {
	sp := &k.split
	for {
		lo := int(sp.next.Add(1)-1) * probeChunk
		if lo >= sp.kept {
			return
		}
		k.probe(lo, min(lo+probeChunk, sp.kept))
	}
}

// help is the helper goroutine: one claim loop per batch it is woken for.
func (k *sweepKernel) help() {
	sp := &k.split
	for range sp.start {
		k.claim()
		sp.done <- struct{}{}
	}
	close(sp.done)
}

// stopSplit ends the helper, if a batch started one, and waits for it.
func (k *sweepKernel) stopSplit() {
	if sp := &k.split; sp.start != nil {
		close(sp.start)
		<-sp.done
	}
}

// Targets invokes fn for every address the scan will probe, in scan order,
// with its base virtual probe time — the scan's schedule without sending a
// packet. With no sink there is no routability to consult, so every
// listed-in target is visited, dark space included.
func (s *Scanner) Targets(ctx context.Context, fn func(dst ip.Addr, t time.Duration)) error {
	k := s.newKernel(nil, nil)
	k.visit = fn
	err := k.sweep(ctx)
	k.release()
	return err
}

// probeTarget sends the configured probes for one target, validates the
// responses, and reports the target's reply. synBuf is reused across calls
// to keep the per-probe hot path allocation-free. Routedness is evaluated
// per batch before this runs; the batch step counts unrouted targets as
// sent-and-lost without calling it.
func (s *Scanner) probeTarget(sink PacketSink, dst ip.Addr, t time.Duration, st *Stats, synBuf *[]byte) (Reply, bool) {
	reply := Reply{Dst: dst, T: t}
	src := s.srcFor(dst)
	for probe := 0; probe < s.cfg.Probes; probe++ {
		srcPort := s.cfg.SourcePortBase + uint16(probe)
		seq := s.cookie(src, dst, srcPort)
		*synBuf = packet.MakeSYNInto(*synBuf, src, dst, srcPort, s.cfg.TargetPort, seq, uint16(probe))
		st.ProbesSent++
		resp := sink.Send(src, *synBuf, t+time.Duration(probe)*s.cfg.ProbeDelay)
		if resp == nil {
			continue
		}
		ok, rst := s.validateResp(resp, src, dst, srcPort, seq)
		if !ok {
			st.Invalid++
			continue
		}
		if rst {
			st.Rsts++
			reply.RST = true
			continue
		}
		st.SynAcks++
		if reply.ProbeMask != 0 {
			st.Duplicates++
		}
		reply.ProbeMask |= 1 << probe
	}
	return reply, reply.ProbeMask != 0 || reply.RST
}

// Run executes the scan against sink, invoking handler for every target
// that sent at least one valid response. Probes for one target are sent
// back-to-back, as ZMap does; the virtual clock advances linearly with scan
// position. Cancelling ctx stops the sweep within one batch; the returned
// statistics then cover only the probes actually sent, and the error
// matches pipeline.ErrCanceled.
func (s *Scanner) Run(ctx context.Context, sink PacketSink, handler func(Reply)) (Stats, error) {
	k := s.newKernel(sink, s.trace.ChildTracer("sweep_batch"))
	k.reply = handler
	err := k.sweep(ctx)
	k.stopSplit()
	if s.trace != nil {
		s.trace.SetAttr("targets", int64(k.st.Targets))
		s.trace.SetAttr("unrouted", int64(k.unrouted))
	}
	st := k.st
	k.release()
	return st, err
}

// validateResp checks a response packet against the probe's cookie, exactly
// as ZMap validates: correct 4-tuple and ack == seq+1 for SYN-ACKs; RSTs
// may ack either seq+0 or seq+1 (stacks differ). Headers decode into stack
// scratch for either family, so validating a reply allocates nothing.
func (s *Scanner) validateResp(resp []byte, src, dst ip.Addr, srcPort uint16, seq uint32) (ok, rst bool) {
	var tcph packet.TCPHeader
	var from, to ip.Addr
	if dst.Is4() {
		var iph packet.IPv4Header
		if _, err := packet.DecodeTCP4Into(&iph, &tcph, resp); err != nil {
			return false, false
		}
		from, to = iph.Src, iph.Dst
	} else {
		var iph packet.IPv6Header
		if _, err := packet.DecodeTCP6Into(&iph, &tcph, resp); err != nil {
			return false, false
		}
		from, to = iph.Src, iph.Dst
	}
	if from != dst || to != src {
		return false, false
	}
	if tcph.SrcPort != s.cfg.TargetPort || tcph.DstPort != srcPort {
		return false, false
	}
	if tcph.HasFlag(packet.FlagRST) {
		if tcph.Ack != seq && tcph.Ack != seq+1 {
			return false, false
		}
		return true, true
	}
	if !tcph.HasFlag(packet.FlagSYN | packet.FlagACK) {
		return false, false
	}
	if tcph.Ack != seq+1 {
		return false, false
	}
	return true, false
}
