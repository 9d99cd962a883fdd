package experiment

import (
	"context"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

// The grab stage's shape: constants, not options — sealed bytes do not
// depend on them (TestGrabStageMatchesStagedOracle runs other shapes through
// Study.grabShape), only how much of the grab runs under the walk does.
const (
	// grabSlot is how many replies the sweep hands over at a time: one
	// PredialBatch and one in-order AddBatch per slot. Small enough that a
	// 2,000-reply scan hands off early, large enough to amortize the
	// hand-off.
	grabSlot = 512
	// grabRing is how many slots exist — the one being filled plus those
	// queued or being grabbed. A sweep that gets that far ahead blocks: the
	// stage's back-pressure, and the bound on buffered replies whatever the
	// scan's size.
	grabRing = 4
)

// grabShape is a stage's slot and ring sizes. Study.grabShape overrides
// grabSlot and grabRing where non-zero; only tests set it.
type grabShape struct{ slot, ring int }

// grabStage is one scan's L7 half, running under its L4 half instead of
// after it — ZMap piped into ZGrab. The sweep's reply handler (offer) fills
// a slot and hands full slots through a bounded ring to the stage's one
// goroutine, which per slot runs one PredialBatch, grabs the slot's replies
// in order and appends their records with one AddBatch. The walk goes on
// meanwhile on the caller's goroutine; there is no reply log. When the walk
// returns, the caller closes the ring with the scan's tail, and the stage's
// goroutine drains the ring and then runs it: grabs the partial last slot
// and the held-back replies (finish) and seals the store, while the caller
// goes on to its next scan.
//
// One kind of reply cannot be grabbed under the walk. Every grab-time
// decision is a keyed hash of the connection's own coordinates except the
// detectors': a live policy.IDS answers Evaluate from what it has counted so
// far, and a source detected at any point of a scan is blocked for all of
// the scan's connections. So replies from an AS a detector watches
// (fabric.Watched, a plan-time fact) are held back — for live and scheduled
// detectors alike — and are grabbed once the walk has returned (finish).
// Sealed bytes cannot tell: Seal sorts by address, and keep-last dedup only
// compares rows of one address, all held back or all not.
//
// The grabber re-checks ctx before each host and a partially grabbed slot
// is never appended; after the first error it keeps receiving slots and
// recycles them ungrabbed, so a sweep blocked on a full ring always wakes
// and observes the cancellation itself at its next batch boundary.
type grabStage struct {
	ctx     context.Context
	p       proto.Protocol
	fab     *fabric.Fabric
	dialer  zgrab.Dialer
	grabber zgrab.Grabber
	res     *results.ScanResult
	// slots records per-slot exemplars under the scan span (slots straddle
	// the stage spans); owned by the grabbing goroutine.
	slots *telemetry.ChildTracer

	// The sweep's side, owned by the walking goroutine until close hands
	// what is left to the stage's goroutine: the slot being filled, the
	// held-back replies, and the ring — full slots go out on full, recycled
	// ones come back on free, each channel a whole ring deep — and the tail
	// the stage's goroutine runs once the ring has drained.
	cur, held  []zmap.Reply
	full, free chan []zmap.Reply
	handed     int // slots handed off so far
	tail       *scan

	// The grabbing side: the hosts offered so far, and the first error,
	// read by the tail or after done closes.
	hosts int64
	err   error
	done  chan struct{}

	// The buffers behind cur, the ring's slots and the grabbing side's
	// per-slot scratch; the stage's goroutine hands them back to
	// grabBufSets as it exits.
	*grabBufs
}

// grabBufs is a grab stage's fixed scratch, sized by its shape: the ring's
// slot slices (the first becomes cur) and the grabbing side's per-slot
// scratch — records, and attempt 0's verdicts, one per reply with a
// SYN-ACK (a reply without one is recorded but never grabbed). It outlives
// its scan through grabBufSets, so a study of many small scans allocates a
// few sets, not one per scan.
type grabBufs struct {
	shape     grabShape
	ringSlots [][]zmap.Reply
	win       []results.HostRecord
	preDst    []ip.Addr
	preT      []time.Duration
	pre       []zgrab.DialVerdict
}

// grabBufSets recycles grab stages' buffers: a free list of at most
// keptGrabBufs sets, which, unlike a sync.Pool, a garbage collection does
// not empty, so a study allocates one set per grab stage running at once
// (two per worker: a scan's tail beside the next scan's sweep), however
// often the collector runs. A set whose shape differs from the one a stage
// needs is dropped, not resized: every scan of a study has one shape, and
// only tests and tiny worlds make others.
var grabBufSets struct {
	sync.Mutex
	free []*grabBufs
}

// keptGrabBufs bounds the free list: ≈ 0.8 MiB of default-shape sets kept
// for a study that ran that many grab stages at once.
const keptGrabBufs = 8

// getGrabBufs returns a set of buffers of the given shape, a recycled one
// when the free list's last set has that shape.
func getGrabBufs(shape grabShape) *grabBufs {
	var b *grabBufs
	grabBufSets.Lock()
	if n := len(grabBufSets.free); n > 0 {
		b = grabBufSets.free[n-1]
		grabBufSets.free[n-1] = nil
		grabBufSets.free = grabBufSets.free[:n-1]
	}
	grabBufSets.Unlock()
	if b != nil && b.shape == shape {
		return b
	}
	slot := shape.slot
	b = &grabBufs{shape: shape, ringSlots: make([][]zmap.Reply, shape.ring),
		win:    make([]results.HostRecord, slot),
		preDst: make([]ip.Addr, slot),
		preT:   make([]time.Duration, slot),
		pre:    make([]zgrab.DialVerdict, slot),
	}
	for i := range b.ringSlots {
		b.ringSlots[i] = make([]zmap.Reply, 0, slot)
	}
	return b
}

// release hands the stage's buffers back once its goroutine is done with
// them, clearing the records first so no banner outlives its scan. The
// stage keeps no reference to them.
func (g *grabStage) release() {
	clear(g.win)
	grabBufSets.Lock()
	if len(grabBufSets.free) < keptGrabBufs {
		grabBufSets.free = append(grabBufSets.free, g.grabBufs)
	}
	grabBufSets.Unlock()
	g.grabBufs, g.cur = nil, nil
}

// newGrabStage builds the scan's store — its MemBudget share one of
// stores — dialer and grabber and starts the stage's goroutine, the only
// one a scan's grab ever starts. The caller owes it a close or a stop.
func (st *Study) newGrabStage(ctx context.Context, k scanKey, stores int, fab *fabric.Fabric, scanSpan *telemetry.Span, labels []telemetry.Label) (*grabStage, error) {
	cfg := st.Config
	p := k.p
	hosts := st.replyHint()
	res, err := st.newScanResult(k, hosts, stores)
	if err != nil {
		return nil, err
	}
	var dialer zgrab.Dialer = fab
	if cfg.DialWrapper != nil {
		dialer = cfg.DialWrapper(fab)
	}
	// A world smaller than a slot sizes the buffers: together they stay
	// below the reply log they replace. They are recycled from scan to scan
	// (grabBufs).
	shape := grabShape{slot: min(grabSlot, max(hosts, 1)), ring: grabRing}
	if st.grabShape.slot > 0 {
		shape.slot = st.grabShape.slot
	}
	if st.grabShape.ring > 0 {
		shape.ring = st.grabShape.ring
	}
	b := getGrabBufs(shape)
	g := &grabStage{
		ctx: ctx, p: p, fab: fab, dialer: dialer, res: res,
		grabber: zgrab.Grabber{
			Dialer:  dialer,
			Retries: cfg.Retries,
			Metrics: telemetry.NewGrabMetrics(cfg.Telemetry, labels...),
		},
		slots:    scanSpan.ChildTracer("grab_window"),
		cur:      b.ringSlots[0],
		full:     make(chan []zmap.Reply, shape.ring),
		free:     make(chan []zmap.Reply, shape.ring),
		done:     make(chan struct{}),
		grabBufs: b,
	}
	for _, s := range b.ringSlots[1:] {
		g.free <- s
	}
	go g.run()
	return g, nil
}

// offer is the sweep's reply handler.
func (g *grabStage) offer(r zmap.Reply) {
	if g.fab.Watched(g.p, r.Dst) {
		g.held = append(g.held, r)
		return
	}
	g.push(r)
}

// push appends r to the slot being filled and hands the slot off when it is
// full, blocking while every other slot is queued or being grabbed.
func (g *grabStage) push(r zmap.Reply) {
	g.cur = append(g.cur, r)
	if len(g.cur) == cap(g.cur) {
		g.full <- g.cur
		g.handed++
		g.cur = <-g.free
	}
}

// finish is the Grab stage, run by the stage's goroutine once the walk has
// returned and the ring has drained: the held-back replies join the partial
// last slot and are grabbed slot by slot. It returns the store, ready to
// seal.
func (g *grabStage) finish(span *telemetry.Span) (*results.ScanResult, error) {
	span.SetAttr("held_back", int64(len(g.held)))
	for _, r := range g.held {
		g.cur = append(g.cur, r)
		if len(g.cur) == cap(g.cur) {
			g.grab(g.cur)
			g.cur = g.cur[:0]
		}
	}
	if len(g.cur) > 0 {
		g.grab(g.cur)
	}
	span.SetAttr("hosts", g.hosts)
	return g.res, g.err
}

// close ends the sweep's side: the ring closes, and the stage's goroutine
// drains it, runs the scan's tail (when non-nil) and exits. After it the
// sweep's side belongs to the stage's goroutine.
func (g *grabStage) close(tail *scan) {
	g.tail = tail
	close(g.full)
}

// stop closes the ring with no tail and waits for the stage's goroutine to
// exit, dropping what the sweep's side still holds; after it the stage's
// store and error belong to the caller.
func (g *grabStage) stop() {
	g.close(nil)
	<-g.done
}

// run is the stage's goroutine: it receives slots in hand-off order until
// the ring closes, then runs the tail. After an error it keeps receiving and
// recycles without grabbing: the sweep's side must never block on a ring
// nobody drains.
func (g *grabStage) run() {
	defer close(g.done)
	for slot := range g.full {
		g.grab(slot)
		g.free <- slot[:0]
	}
	if g.tail != nil {
		g.tail.tail()
	}
	g.release()
}

// grab grabs one slot unless an earlier one failed.
func (g *grabStage) grab(slot []zmap.Reply) {
	if g.err == nil {
		g.err = g.grabSlot(slot)
	}
}

// grabSlot grabs one slot: attempt 0's verdicts in one batch, so the grabs
// never touch connection setup for L4 failures; the grabs, in slot order;
// then the in-order append, which may sort, dedup and spill — where
// result-store back-pressure on the grab path becomes visible. Only the
// sampled grab_window exemplar, which covers all three, reads the clock.
func (g *grabStage) grabSlot(slot []zmap.Reply) error {
	n := len(slot)
	g.hosts += int64(n)
	if gm := g.grabber.Metrics; gm != nil {
		gm.Hosts.Add(int64(n))
	}
	g.slots.Begin()
	m := 0
	for i := range slot {
		if r := &slot[i]; r.ProbeMask != 0 {
			g.preDst[m], g.preT[m] = r.Dst, r.T
			m++
		}
	}
	g.dialer.PredialBatch(g.preDst[:m], g.preT[:m], g.p.Port(), g.pre[:m])
	pre := g.pre[:m]
	for i := range slot {
		if err := g.ctx.Err(); err != nil {
			return err
		}
		r := &slot[i]
		rec := results.HostRecord{Addr: r.Dst, ProbeMask: r.ProbeMask, RST: r.RST, T: r.T}
		if r.ProbeMask != 0 {
			res := g.grabber.GrabFast(g.ctx, g.p, r.Dst, r.T, pre[0])
			pre = pre[1:]
			rec.L7, rec.Fail, rec.Attempts, rec.Banner = res.Success, res.Fail, res.Attempts, res.Banner
		}
		g.win[i] = rec
	}
	if err := g.ctx.Err(); err != nil {
		return err
	}
	g.res.AddBatch(g.win[:n])
	if gm := g.grabber.Metrics; gm != nil {
		gm.HostsDone.Add(uint64(n))
	}
	g.slots.End(telemetry.A("hosts", int64(n)))
	return nil
}
