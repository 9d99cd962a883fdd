package experiment

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

// The grab stage's shape: constants, not options — sealed bytes do not
// depend on them (TestGrabStageMatchesStagedOracle runs other shapes through
// Study.grabShape), only how much of the grab runs under the walk does.
const (
	// grabSlot is how many replies the sweep hands over at a time: one
	// PredialBatch, one barrier, one in-order AddBatch per slot. Small enough
	// that a 2,000-reply scan hands off early, large enough to amortize the
	// wake-up and the barrier.
	grabSlot = 512
	// grabRing is how many slots exist — the one being filled plus those
	// queued or being grabbed. A sweep that gets that far ahead blocks: the
	// stage's back-pressure, and the bound on buffered replies whatever the
	// scan's size.
	grabRing = 4
	// grabWorkers is how many goroutines share one slot.
	grabWorkers = 16
)

// grabShape overrides grabSlot and grabRing where non-zero; only tests set it.
type grabShape struct{ slot, ring int }

// grabStage is one scan's L7 half, running under its L4 half instead of
// after it — ZMap piped into ZGrab. The sweep's reply handler (offer) fills
// a slot and hands full slots through a bounded ring to a coordinator
// goroutine, which per slot runs one PredialBatch (single-caller, as the
// FastDialer contract asks), lets workers that live for the whole scan claim
// indices inside the slot, and after the barrier appends the slot's records
// in reply order. The walk goes on meanwhile on the caller's goroutine;
// there is no reply log.
//
// One kind of reply cannot be grabbed under the walk. Every grab-time
// decision is a keyed hash of the connection's own coordinates except the
// detectors': a live policy.IDS answers Evaluate from what it has counted so
// far, and a source detected at any point of a scan is blocked for all of
// the scan's connections. So replies from an AS a detector watches
// (fabric.Watched, a plan-time fact) are held back — for live and scheduled
// detectors alike — and go through the ring once the walk has returned
// (finish). Sealed bytes cannot tell: Seal sorts by address, and keep-last
// dedup only compares rows of one address, all held back or all not.
//
// Workers re-check ctx per claim and a partially grabbed slot is never
// appended; after the first error the coordinator keeps receiving slots and
// recycles them ungrabbed, so a sweep blocked on a full ring always wakes
// and observes the cancellation itself at its next batch boundary.
type grabStage struct {
	ctx     context.Context
	p       proto.Protocol
	fab     *fabric.Fabric
	dialer  zgrab.FastDialer
	grabber zgrab.Grabber
	res     *results.ScanResult
	pool    *telemetry.GrabPoolMetrics
	// slots records per-slot exemplars under the scan span (slots straddle
	// the stage spans); owned by the coordinator.
	slots *telemetry.ChildTracer

	// The sweep's side, owned by the scan's goroutine: the slot being
	// filled, the held-back replies, and the ring — full slots go out on
	// full, recycled ones come back on free, each channel a whole ring deep.
	cur, held  []zmap.Reply
	full, free chan []zmap.Reply
	handed     int // slots handed off so far
	closed     bool

	// The coordinator's side: per-slot scratch (records; attempt 0's
	// verdicts and the slot index → verdict index map, -1 for a reply with no
	// SYN-ACK, which is recorded but never grabbed), the hosts offered so
	// far, and the first error, read after done closes.
	win    []results.HostRecord
	preDst []ip.Addr
	preT   []time.Duration
	pre    []zgrab.DialVerdict
	preIdx []int32
	hosts  int64
	err    error
	done   chan struct{}

	// What the coordinator shares with the workers for one slot, published
	// by the wake sends (one token per worker wanted) and collected by the
	// barrier. slotStart anchors queue wait at the hand-off to the workers.
	slot      []zmap.Reply
	slotStart time.Time
	next      atomic.Int64
	wake      chan struct{}
	barrier   sync.WaitGroup
	workers   sync.WaitGroup
}

// newGrabStage builds the scan's store, dialer and grabber and starts the
// coordinator and the workers — the only goroutines a scan's grab ever
// starts. The caller owes it a stop.
func (st *Study) newGrabStage(ctx context.Context, o origin.ID, p proto.Protocol, trial int, fab *fabric.Fabric, scanSpan *telemetry.Span, labels []telemetry.Label) (*grabStage, error) {
	cfg := st.Config
	hosts := st.replyHint()
	res, err := st.newScanResult(o, p, trial, hosts)
	if err != nil {
		return nil, err
	}
	var dialer zgrab.FastDialer = fab
	if cfg.DialWrapper != nil {
		dialer = cfg.DialWrapper(fab)
	}
	// A world smaller than a slot sizes the buffers: together they stay
	// below the reply log they replace.
	slot, ring := min(grabSlot, max(hosts, 1)), grabRing
	if st.grabShape.slot > 0 {
		slot = st.grabShape.slot
	}
	if st.grabShape.ring > 0 {
		ring = st.grabShape.ring
	}
	g := &grabStage{
		ctx: ctx, p: p, fab: fab, dialer: dialer, res: res,
		grabber: zgrab.Grabber{
			Dialer:  dialer,
			Retries: cfg.Retries,
			Key:     rng.NewKey(st.World.Spec.Seed).Derive("grab").DeriveN("origin", uint64(o)),
			Metrics: telemetry.NewGrabMetrics(cfg.Telemetry, labels...),
		},
		pool:   telemetry.NewGrabPoolMetrics(cfg.Telemetry, grabWorkers, labels...),
		slots:  scanSpan.ChildTracer("grab_window"),
		cur:    make([]zmap.Reply, 0, slot),
		full:   make(chan []zmap.Reply, ring),
		free:   make(chan []zmap.Reply, ring),
		win:    make([]results.HostRecord, slot),
		preDst: make([]ip.Addr, slot),
		preT:   make([]time.Duration, slot),
		pre:    make([]zgrab.DialVerdict, slot),
		preIdx: make([]int32, slot),
		done:   make(chan struct{}),
		wake:   make(chan struct{}, grabWorkers),
	}
	for i := 1; i < ring; i++ {
		g.free <- make([]zmap.Reply, 0, slot)
	}
	locals := g.pool.Workers(g.grabber.Metrics)
	g.workers.Add(grabWorkers)
	for w := 0; w < grabWorkers; w++ {
		var gw *telemetry.GrabWorker
		if locals != nil {
			gw = &locals[w]
		}
		go g.work(gw)
	}
	go g.coordinate()
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

// finish is the Grab stage, run once the walk has returned: the held-back
// replies join the partial last slot and go through the ring, the ring
// closes, the coordinator drains it. It returns the store, ready to seal.
func (g *grabStage) finish(span *telemetry.Span) (*results.ScanResult, error) {
	span.SetAttr("held_back", int64(len(g.held)))
	for _, r := range g.held {
		g.push(r)
	}
	if len(g.cur) > 0 {
		g.full <- g.cur
	}
	g.stop()
	span.SetAttr("hosts", g.hosts)
	return g.res, g.err
}

// stop closes the ring and waits for the coordinator and the workers to
// exit, dropping what the sweep's side still holds. Idempotent; after it the
// stage's store and error belong to the caller.
func (g *grabStage) stop() {
	if g.closed {
		return
	}
	g.closed = true
	close(g.full)
	<-g.done
}

// coordinate receives slots in hand-off order until the ring closes. After
// an error it keeps receiving and recycles without grabbing: the sweep's
// side must never block on a ring nobody drains.
func (g *grabStage) coordinate() {
	defer close(g.done)
	for slot := range g.full {
		if g.err == nil {
			g.err = g.grabSlot(slot)
		}
		g.free <- slot[:0]
	}
	close(g.wake)
	g.workers.Wait()
}

// grabSlot grabs one slot: attempt 0's verdicts in one batch, so the
// workers never touch connection setup for L4 failures; the grabs, on the
// workers; then the in-order append, which may sort, dedup and spill — where
// result-store back-pressure on the grab path becomes visible.
func (g *grabStage) grabSlot(slot []zmap.Reply) error {
	n := len(slot)
	g.hosts += int64(n)
	m := 0
	for i := range slot {
		r := &slot[i]
		if r.ProbeMask == 0 {
			g.preIdx[i] = -1
			continue
		}
		g.preDst[m], g.preT[m], g.preIdx[i] = r.Dst, r.T, int32(m)
		m++
	}
	// Clock reads are gated on a live pool bundle, so disabled telemetry
	// costs a nil check per slot and per claim.
	var began time.Time
	if g.pool != nil {
		g.pool.Hosts.Add(int64(n))
		began = time.Now()
	}
	g.dialer.PredialBatch(g.preDst[:m], g.preT[:m], g.p.Port(), g.pre[:m])
	if g.pool != nil {
		g.slotStart = time.Now()
		g.pool.Predial.ObserveDuration(g.slotStart.Sub(began))
	}
	g.slots.Begin()
	workers := min(grabWorkers, n)
	g.slot = slot
	g.next.Store(0)
	g.barrier.Add(workers)
	for w := 0; w < workers; w++ {
		g.wake <- struct{}{}
	}
	g.barrier.Wait()
	if err := g.ctx.Err(); err != nil {
		return err
	}
	if g.pool != nil {
		began = time.Now()
	}
	g.res.AddBatch(g.win[:n])
	if g.pool != nil {
		g.pool.WindowAppend.ObserveDuration(time.Since(began))
	}
	g.slots.End(telemetry.A("hosts", int64(n)), telemetry.A("workers", int64(workers)))
	return nil
}

// work is one worker, for the life of the scan: per wake-up it claims
// indices of the current slot until none is left. Its telemetry accumulates
// privately in gw (nil when telemetry is off), flushed once per slot.
func (g *grabStage) work(gw *telemetry.GrabWorker) {
	defer g.workers.Done()
	grabber := g.grabber
	grabber.Timing = gw
	for range g.wake {
		slot := g.slot
		// One clock read per claim: a worker's serve-end is its next claim
		// (claimed stays zero when telemetry is off).
		var claimed time.Time
		for g.ctx.Err() == nil {
			i := int(g.next.Add(1)) - 1
			if i >= len(slot) {
				break
			}
			if gw != nil {
				now := time.Now()
				if !claimed.IsZero() {
					gw.Served(now.Sub(claimed))
				}
				gw.Claimed(now.Sub(g.slotStart))
				claimed = now
			}
			r := slot[i]
			rec := results.HostRecord{Addr: r.Dst, ProbeMask: r.ProbeMask, RST: r.RST, T: r.T}
			if r.ProbeMask != 0 {
				res := grabber.GrabFast(g.ctx, g.p, r.Dst, r.T, g.pre[g.preIdx[i]])
				rec.L7, rec.Fail, rec.Attempts, rec.Banner = res.Success, res.Fail, res.Attempts, res.Banner
			}
			g.win[i] = rec
		}
		if gw != nil {
			if !claimed.IsZero() {
				gw.Served(time.Since(claimed))
			}
			gw.Flush()
		}
		g.barrier.Done()
	}
}
