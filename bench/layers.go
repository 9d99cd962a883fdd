package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/report"
	"repro/internal/results"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/world"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

const (
	// grabWindow mirrors the engine's grab hand-off window, so the replay
	// calls PredialBatch and AddBatch with the batches the engine does.
	grabWindow = 4096
	// defaultLoopCap bounds each isolated unit-cost loop. The traced pass
	// has to fit the same per-run time cap as an untraced run, so the loops
	// get half a second each rather than the ~2 s a standalone pass could.
	defaultLoopCap = 500 * time.Millisecond
	// sampleDests is how many destinations of one class a Send or grab
	// loop cycles over: enough that the FIB and loss tables are not
	// served from one cache line.
	sampleDests = 4096
	// sinkSampleMask times every 64th Send of the traced engine run.
	sinkSampleMask = 63
)

// layerOptions configures the traced pass of one workload.
type layerOptions struct {
	w     *workload
	seed  uint64
	smoke bool
	dir   string // scratch directory, left empty
	// spanPath is where the span tree is written when the pass ends.
	spanPath string
	// loopCap bounds each isolated unit-cost loop (tests shorten it).
	loopCap time.Duration
}

// layerResult is what the traced pass measured. Metrics holds every
// per-layer metric the pass can compute alone; the speed-ups, the rates and
// the tracing overhead need the untraced run_s and are derived by the
// caller (see deriveLayerMetrics) from the raw times below.
type layerResult struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Metrics    map[string]float64 `json:"metrics"`
	TracedRunS float64            `json:"traced_run_s"`
	PoolRunS   []float64          `json:"pool_run_s,omitempty"`
	ShardRunS  float64            `json:"shard_run_s,omitempty"`
	Rows       uint64             `json:"rows"`
	Targets    uint64             `json:"targets"`
	// Failures lists what makes the layer numbers invalid: a replayed
	// scan, a spilled store or a pooled dataset that does not Equal the
	// engine's.
	Failures []string `json:"failures,omitempty"`
}

// stageTimer turns the engine's lifecycle hooks into spans and per-stage
// totals. Parallelism is 1 in the traced run, so hooks fire sequentially;
// they carry no scan identity and could not attribute a pooled run. Stages
// nest (report.All's report stage runs the SSH-retry scans inside it), so
// open spans are a stack.
type stageTimer struct {
	rec    *spanRecorder
	parent int   // span a stage hangs under when none is open
	open   []int // open scan and stage spans, innermost last
	totals [pipeline.NumStages]time.Duration
	scans  []float64 // per-scan sweep→seal time, ms
}

func (t *stageTimer) pop() time.Duration {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	return t.rec.end(id)
}

func (t *stageTimer) hooks() pipeline.Hooks {
	return pipeline.Hooks{
		Before: func(_ context.Context, s pipeline.Stage) {
			parent := t.parent
			if len(t.open) > 0 {
				parent = t.open[len(t.open)-1]
			}
			if s == pipeline.StageSweep {
				parent = t.rec.start("scan", parent)
				t.open = append(t.open, parent)
			}
			t.open = append(t.open, t.rec.start("stage."+s.String(), parent))
		},
		After: func(_ context.Context, s pipeline.Stage, err error) {
			t.totals[s] += t.pop()
			inScan := s == pipeline.StageSweep || s == pipeline.StageGrab || s == pipeline.StageSeal
			if inScan && (s == pipeline.StageSeal || err != nil) {
				t.scans = append(t.scans, float64(t.pop())/1e6)
			}
		},
	}
}

// routedSink is what the engine hands a SinkWrapper: the fabric.
type routedSink interface {
	zmap.PacketSink
	zmap.Routability
	zmap.BatchRoutability
}

// samplingSink counts every Send of the engine run and times every 64th.
// It forwards the routability short-circuit, so the engine's sweep takes
// the path an unwrapped run takes. Single-goroutine (ScanShards = 1).
type samplingSink struct {
	inner     routedSink
	calls     uint64
	answered  uint64
	sampled   uint64
	sampledNS int64
}

func (s *samplingSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	s.calls++
	var resp []byte
	if s.calls&sinkSampleMask == 0 {
		begin := time.Now()
		resp = s.inner.Send(src, pkt, t)
		s.sampledNS += time.Since(begin).Nanoseconds()
		s.sampled++
	} else {
		resp = s.inner.Send(src, pkt, t)
	}
	if resp != nil {
		s.answered++
	}
	return resp
}

func (s *samplingSink) Routed(dst ip.Addr) bool { return s.inner.Routed(dst) }
func (s *samplingSink) RoutedBatch(dst []ip.Addr, routed []bool) {
	s.inner.RoutedBatch(dst, routed)
}

// darkSink reports every destination unrouted: Scanner.Run against it is the
// permutation walk, the filter and the routed short-circuit, nothing else.
type darkSink struct{}

func (darkSink) Send(ip.Addr, []byte, time.Duration) []byte { return nil }
func (darkSink) RoutedBatch(_ []ip.Addr, routed []bool) {
	for i := range routed {
		routed[i] = false
	}
}

// nullSink has no Routability, so the scanner encodes and sends every probe;
// Send answers nothing. Run against it is walk + SYN encode + the Send call.
type nullSink struct{}

func (nullSink) Send(ip.Addr, []byte, time.Duration) []byte { return nil }

// engineCounts are the traced engine run's exact counts, read from the
// dataset: what the grab model multiplies the unit costs by.
type engineCounts struct {
	targets, probes, rows uint64
	grabbed, rejected     uint64
	accepted              [proto.N]uint64
}

func countEngine(cfg experiment.Config, ds *results.Dataset) engineCounts {
	var c engineCounts
	forEachScan(cfg, ds, func(s *results.ScanResult) {
		c.targets += s.Targets
		c.probes += s.ProbesSent
		s.Each(func(r results.HostRecord) {
			c.rows++
			switch {
			case !r.L4():
			case r.L7:
				c.grabbed++
				c.accepted[s.Proto]++
			default:
				c.grabbed++
				c.rejected++
			}
		})
	})
	return c
}

// tracer is the state of one traced pass.
type tracer struct {
	o      layerOptions
	rec    *spanRecorder
	stages *stageTimer
	out    *layerResult
	m      map[string]float64
}

// runLayers is the traced pass of one workload: the engine run with hooks
// and the sampling sink attached, a replay of the first scan through the
// layers' public calls, the isolated unit-cost loops, and the scaling runs.
func runLayers(ctx context.Context, o layerOptions) (*layerResult, error) {
	t := &tracer{o: o, rec: newSpanRecorder(o.w.name), m: map[string]float64{}}
	for _, d := range perLayer {
		t.m[d.name] = 0
	}
	t.out = &layerResult{Workload: o.w.name, Seed: o.seed, Metrics: t.m}
	root := t.rec.start("traced-pass", -1)
	err := t.run(ctx, root)
	t.rec.end(root)
	if err == nil && len(t.m) != len(perLayer) {
		err = fmt.Errorf("the traced pass set a metric perLayer does not name: %d set, %d named", len(t.m), len(perLayer))
	}
	t.rec.finish()
	if werr := writeSpans(o.spanPath, t.rec.spans); werr != nil && err == nil {
		err = werr
	}
	return t.out, err
}

func (t *tracer) run(ctx context.Context, root int) error {
	spill, err := os.MkdirTemp(t.o.dir, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)
	newConfig := func() experiment.Config { return t.o.w.studyConfig(t.o.seed, t.o.smoke, spill) }

	// --- The engine run, traced from outside. ---
	engSpan := t.rec.start("engine", root)
	st := &stageTimer{rec: t.rec, parent: engSpan}
	t.stages = st // reportLoops re-parents the hooks report.All fires
	sink := &samplingSink{}
	cfg := newConfig()
	cfg.Hooks = st.hooks()
	cfg.SinkWrapper = func(s zmap.PacketSink) zmap.PacketSink {
		sink.inner = s.(routedSink)
		return sink
	}
	study, err := core.New(ctx, cfg)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	runSpan := t.rec.start("Study.Run", engSpan)
	st.parent = runSpan
	err = study.Run(ctx)
	t.out.TracedRunS = t.rec.end(runSpan).Seconds()
	t.rec.end(engSpan)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	cfg = study.Exp.Config
	ds := study.DS
	counts := countEngine(cfg, ds)
	t.out.Rows, t.out.Targets = counts.rows, counts.targets

	t.m["experiment.worldgen_s"] = st.totals[pipeline.StageWorldgen].Seconds()
	t.m["experiment.sweep_s"] = st.totals[pipeline.StageSweep].Seconds()
	t.m["experiment.grab_s"] = st.totals[pipeline.StageGrab].Seconds()
	t.m["experiment.seal_s"] = st.totals[pipeline.StageSeal].Seconds()
	t.m["experiment.scan_p50_ms"] = median(st.scans)
	t.m["experiment.scan_p85_ms"] = percentile(st.scans, 0.85)
	t.m["zmap.sweep_targets"] = float64(counts.targets)
	t.m["zmap.sweep_probes"] = float64(counts.probes)
	t.m["zmap.replies"] = float64(counts.rows)
	t.m["zmap.reply_share"] = ratio(float64(counts.rows), float64(counts.targets))
	t.m["fabric.send_calls"] = float64(sink.calls)
	t.m["fabric.send_sampled_ns"] = ratio(float64(sink.sampledNS), float64(sink.sampled))
	t.m["fabric.send_answered_share"] = ratio(float64(sink.answered), float64(sink.calls))

	// --- The replay: one scan through the layers' public calls. ---
	rp, err := t.replay(ctx, root, cfg, ds, spill)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	// --- Isolated unit costs. ---
	loops := t.rec.start("loops", root)
	t.sweepLoops(ctx, loops, rp)
	t.packetLoops(loops, rp)
	t.sendLoops(loops, rp)
	t.grabLoops(ctx, loops, rp)
	if err := t.reportLoops(ctx, loops, study, rp); err != nil {
		return err
	}
	t.rec.end(loops)

	// Layers × counts against the hooked stage times: checked, not
	// asserted. Every target pays the walk and the routed lookup; every
	// Send of an unanswered probe is priced as routed-empty space, every
	// answered one as a host plus the scanner's decode.
	probes := float64(cfg.Probes)
	unanswered := float64(sink.calls - sink.answered)
	sweepModel := float64(counts.targets)*(t.m["zmap.walk_ns_per_target"]+t.m["world.routed_ns_per_addr"]) +
		float64(sink.calls)/probes*t.m["zmap.encode_ns_per_target"] +
		float64(sink.answered)*(t.m["fabric.send_host_ns"]+t.m["packet.decode_ns"]) +
		unanswered*t.m["fabric.send_empty_ns"]
	t.m["bench.layer_sum_ratio_sweep"] = ratio(sweepModel, float64(st.totals[pipeline.StageSweep].Nanoseconds()))
	grabModel := float64(counts.grabbed)*t.m["fabric.predial_ns_per_host"] +
		float64(counts.accepted[proto.HTTP])*t.m["zgrab.grab_accept_http_ns"] +
		float64(counts.accepted[proto.HTTPS])*t.m["zgrab.grab_accept_https_ns"] +
		float64(counts.accepted[proto.SSH])*t.m["zgrab.grab_accept_ssh_ns"] +
		float64(counts.rejected)*t.m["zgrab.grab_reject_ns"] +
		float64(counts.rows)*t.m["results.add_ns_per_row"]
	t.m["bench.layer_sum_ratio_grab"] = ratio(grabModel, float64(st.totals[pipeline.StageGrab].Nanoseconds()))

	// --- Scaling: the same study on the pool, the same scan sharded. ---
	return t.scaling(ctx, root, newConfig, ds)
}

// replayed is what the replay hands the loops: the world and scenario it
// built, the scan's wiring, and the replies and records it produced.
type replayed struct {
	cfg     experiment.Config
	w       *world.World
	sc      *scenario.Scenario
	org     *origin.Origin
	p       proto.Protocol
	zcfg    zmap.Config
	fabCfg  *fabric.Config
	grabKey rng.Key
	replies []zmap.Reply
}

// replay builds a fresh world and scenario (timing both) and runs the
// study's first scan — (first origin, first protocol, trial 0), the one
// tuple whose IDS state is the initial one — as the sequence of public
// calls experiment.scanOne makes, with a span around each. The result must
// Equal the engine's; otherwise the wiring here has drifted from the
// engine's and the layer numbers are marked invalid.
func (t *tracer) replay(ctx context.Context, root int, cfg experiment.Config, ds *results.Dataset, spillDir string) (*replayed, error) {
	rs := t.rec.start("replay", root)
	defer t.rec.end(rs)
	rp := &replayed{cfg: cfg, p: cfg.Protocols[0]}
	o, seed := cfg.Origins[0], cfg.WorldSpec.Seed

	var err error
	d := t.rec.timed("world.Build", rs, func() {
		if cfg.Family == world.FamilyIPv6 {
			rp.w, err = world.BuildV6(ctx, cfg.V6Spec)
		} else {
			rp.w, err = world.Build(ctx, cfg.WorldSpec)
		}
	})
	if err != nil {
		return nil, err
	}
	t.m["world.build_s"] = d.Seconds()
	t.m["world.hosts_per_s"] = ratio(float64(rp.w.NumHosts()), d.Seconds())
	t.m["world.fib_mib"] = float64(rp.w.FIB().MemFootprint()) / (1 << 20)
	d = t.rec.timed("scenario.New", rs, func() {
		scfg := cfg.ScenarioConfig
		scfg.Trials = cfg.Trials
		scfg.NumOrigins = len(cfg.Origins)
		rp.sc = scenario.New(rp.w, scfg)
	})
	t.m["scenario.build_s"] = d.Seconds()

	rp.org = rp.w.Origins.Get(o)
	rp.fabCfg = &fabric.Config{
		World:      rp.w,
		Engine:     rp.sc.Engine,
		IDSes:      policy.Detectors(rp.sc.IDSes),
		Loss:       rp.sc.Loss,
		Outages:    rp.sc.Outages[rp.p],
		Churn:      rp.sc.Churn,
		NumOrigins: len(cfg.Origins),
		Hosts:      rp.sc.Hosts,
	}
	var hitlist []ip.Addr
	if rp.w.Family == world.FamilyIPv6 {
		hitlist = rp.w.Hitlist()
	}
	rp.zcfg = zmap.Config{
		SourceIPs:       rp.org.SourceIPs,
		TargetPort:      rp.p.Port(),
		Probes:          cfg.Probes,
		SpaceBits:       rp.w.SpaceBits,
		Hitlist:         hitlist,
		Seed:            rng.NewKey(seed).Derive("scan-seed").Uint64(uint64(rp.p), 0),
		ScanDuration:    scenario.ScanDuration,
		ExpectedReplies: len(rp.w.Hosts()),
	}
	rp.grabKey = rng.NewKey(seed).Derive("grab").DeriveN("origin", uint64(o))

	var fab *fabric.Fabric
	t.rec.timed("fabric.New", rs, func() { fab = fabric.New(rp.fabCfg, rp.org, 0) })
	var scanner *zmap.Scanner
	t.rec.timed("zmap.NewScanner", rs, func() { scanner, err = zmap.NewScanner(rp.zcfg) })
	if err != nil {
		return nil, err
	}
	var stats zmap.Stats
	rp.replies = make([]zmap.Reply, 0, rp.w.NumHosts())
	t.rec.timed("zmap.Scanner.Run", rs, func() {
		stats, err = scanner.Run(ctx, fab, func(r zmap.Reply) { rp.replies = append(rp.replies, r) })
	})
	if err != nil {
		return nil, err
	}

	// Grab: per window PredialBatch, then GrabFast on this goroutine (the
	// engine spreads a window over GrabWorkers goroutines; the outcomes
	// are the same), then AddBatch in reply order.
	grabber := &zgrab.Grabber{Dialer: fab, Retries: cfg.Retries, Key: rp.grabKey, IOTimeout: 10 * time.Second}
	res := results.NewScanResultSized(o, rp.p, 0, len(rp.replies))
	records := make([]results.HostRecord, len(rp.replies))
	dsts := make([]ip.Addr, grabWindow)
	ts := make([]time.Duration, grabWindow)
	verdicts := make([]zgrab.DialVerdict, grabWindow)
	var grabbed, connects int
	for base := 0; base < len(rp.replies); base += grabWindow {
		win := rp.replies[base:min(base+grabWindow, len(rp.replies))]
		recs := records[base : base+len(win)]
		m := 0
		for _, r := range win {
			if r.ProbeMask != 0 {
				dsts[m], ts[m] = r.Dst, r.T
				m++
			}
		}
		t.rec.timed("fabric.PredialBatch", rs, func() { fab.PredialBatch(dsts[:m], ts[:m], rp.p.Port(), verdicts[:m]) })
		grabbed += m
		t.rec.timed("zgrab.GrabFast", rs, func() {
			m = 0
			for i, r := range win {
				rec := results.HostRecord{Addr: r.Dst, ProbeMask: r.ProbeMask, RST: r.RST, T: r.T}
				if r.ProbeMask != 0 {
					if verdicts[m] == zgrab.DialConnect {
						connects++
					}
					g := grabber.GrabFast(ctx, rp.p, r.Dst, r.T, verdicts[m])
					m++
					rec.L7, rec.Fail, rec.Attempts, rec.Banner = g.Success, g.Fail, g.Attempts, g.Banner
				}
				recs[i] = rec
			}
		})
		t.rec.timed("results.AddBatch", rs, func() { res.AddBatch(recs) })
	}
	setStats := func(r *results.ScanResult) {
		r.Targets, r.ProbesSent, r.SynAcks, r.Rsts, r.Invalid =
			stats.Targets, stats.ProbesSent, stats.SynAcks, stats.Rsts, stats.Invalid
	}
	setStats(res)
	d = t.rec.timed("results.SealErr", rs, func() { err = res.SealErr() })
	if err != nil {
		return nil, err
	}
	t.m["results.seal_mem_s"] = d.Seconds()
	t.m["results.add_ns_per_row"] = ratio(float64(t.rec.total("results.AddBatch").Nanoseconds()), float64(len(records)))
	t.m["fabric.predial_ns_per_host"] = ratio(float64(t.rec.total("fabric.PredialBatch").Nanoseconds()), float64(grabbed))
	t.m["fabric.predial_connect_share"] = ratio(float64(connects), float64(grabbed))

	engine := ds.Scan(o, rp.p, 0)
	if diff := engine.DiffAgainst(res); diff != "" {
		t.out.Failures = append(t.out.Failures, fmt.Sprintf("replayed %v/%v/trial 0 differs from the engine's: %s", o, rp.p, diff))
	}

	// The same rows through the spill store, at the share of the budget
	// the engine gives one scan (Parallelism = 1: all of it).
	if cfg.SpillDir != "" {
		ss := t.rec.start("results.spill", rs)
		sp, err := results.NewSpilledScanResult(o, rp.p, 0, len(records), results.SpillConfig{Dir: spillDir, Budget: cfg.MemBudget})
		if err != nil {
			return nil, err
		}
		for base := 0; base < len(records); base += grabWindow {
			sp.AddBatch(records[base:min(base+grabWindow, len(records))])
		}
		setStats(sp)
		err = sp.SealErr()
		t.rec.end(ss)
		if err != nil {
			return nil, err
		}
		sst := sp.SpillStats()
		t.m["results.spill_flush_s"] = sst.FlushDuration.Seconds()
		t.m["results.spill_merge_s"] = sst.MergeDuration.Seconds()
		t.m["results.spill_segments"] = float64(sst.Segments)
		t.m["results.spilled_mib"] = float64(sst.SpilledBytes) / (1 << 20)
		t.m["results.merge_fanin"] = float64(sst.MergeFanIn)
		if diff := engine.DiffAgainst(sp); diff != "" {
			t.out.Failures = append(t.out.Failures, "spilled store differs from the engine's: "+diff)
		}
	}
	return rp, nil
}

// untilCap calls batch (which does some operations and returns how many)
// until the loop cap has passed, inside a span, and returns ns per operation
// and the operations done.
func (t *tracer) untilCap(name string, parent int, batch func() int) (float64, int) {
	var ops int
	d := t.rec.timed(name, parent, func() {
		for begin := time.Now(); time.Since(begin) < t.o.loopCap; {
			ops += batch()
		}
	})
	return ratio(float64(d.Nanoseconds()), float64(ops)), ops
}

// sweepLoops prices the sweep without a network: the bare permutation, the
// FIB's routed short-circuit, the scanner's walk over dark space, and the
// walk plus encode-and-send.
func (t *tracer) sweepLoops(ctx context.Context, parent int, rp *replayed) {
	key := rng.NewKey(rp.zcfg.Seed).Derive("zmap")
	// scanOrder keeps the first 64 batches of the scan's target order for
	// the RoutedBatch loop: scattered over the space, as the sweep sees it.
	var scanOrder [][]ip.Addr
	keep := func(dsts []ip.Addr) {
		if len(scanOrder) < 64 && len(dsts) > 0 {
			scanOrder = append(scanOrder, append([]ip.Addr(nil), dsts...))
		}
	}
	dsts := make([]ip.Addr, grabWindow)
	if rp.zcfg.Hitlist != nil {
		pm, err := zmap.NewPermutationN(key, uint64(len(rp.zcfg.Hitlist)), 0, 1)
		if err == nil {
			idxs := make([]uint64, grabWindow)
			it := pm.IterateHitlist(rp.zcfg.Hitlist)
			t.m["zmap.permute_ns_per_addr"], _ = t.untilCap("zmap.Permutation", parent, func() int {
				n := it.NextBatch(dsts, idxs)
				if n == 0 {
					it = pm.IterateHitlist(rp.zcfg.Hitlist)
				}
				keep(dsts[:n])
				return n
			})
		}
	} else {
		pm, err := zmap.NewPermutation(key, rp.zcfg.SpaceBits, 0, 1)
		if err == nil {
			buf := make([]uint32, grabWindow)
			it := pm.Iterate()
			t.m["zmap.permute_ns_per_addr"], _ = t.untilCap("zmap.Permutation", parent, func() int {
				n := it.NextBatch(buf)
				if n == 0 {
					it = pm.Iterate()
				}
				if len(scanOrder) < 64 {
					for i, a := range buf[:n] {
						dsts[i] = ip.AddrFrom4(a)
					}
					keep(dsts[:n])
				}
				return n
			})
		}
	}
	if len(scanOrder) > 0 {
		fib, routed := rp.w.FIB(), make([]bool, grabWindow)
		t.m["world.routed_ns_per_addr"], _ = t.untilCap("world.FIB.RoutedBatch", parent, func() int {
			n := 0
			for _, b := range scanOrder {
				fib.RoutedBatch(b, routed[:len(b)])
				n += len(b)
			}
			return n
		})
	}
	// Scanner.Run until the cap: a pass over a small space finishes early
	// and is repeated; a pass over a large one is cut by the deadline,
	// and Stats then counts the targets actually walked.
	sc, err := zmap.NewScanner(rp.zcfg)
	if err != nil {
		return
	}
	runUntilCap := func(name string, sink zmap.PacketSink) float64 {
		dctx, cancel := context.WithTimeout(ctx, t.o.loopCap)
		defer cancel()
		ns, _ := t.untilCap(name, parent, func() int {
			st, _ := sc.Run(dctx, sink, func(zmap.Reply) {})
			return int(st.Targets)
		})
		return ns
	}
	walk := runUntilCap("zmap.Scanner.Run/dark", darkSink{})
	t.m["zmap.walk_ns_per_target"] = walk
	t.m["zmap.encode_ns_per_target"] = math.Max(0, runUntilCap("zmap.Scanner.Run/null", nullSink{})-walk)
}

// packetLoops prices one SYN encode and one header decode in the world's
// address family.
func (t *tracer) packetLoops(parent int, rp *replayed) {
	if len(rp.replies) == 0 {
		return
	}
	src, dst := rp.org.SourceIPs[0], rp.replies[0].Dst
	var buf []byte
	t.m["packet.make_syn_ns"], _ = t.untilCap("packet.MakeSYNInto", parent, func() int {
		for i := 0; i < 1024; i++ {
			buf = packet.MakeSYNInto(buf, src, dst, 40000, rp.p.Port(), uint32(i), 0)
		}
		return 1024
	})
	var tcph packet.TCPHeader
	t.m["packet.decode_ns"], _ = t.untilCap("packet.DecodeTCPInto", parent, func() int {
		for i := 0; i < 1024; i++ {
			if packet.Version(buf) == 6 {
				var ip6 packet.IPv6Header
				_, _ = packet.DecodeTCP6Into(&ip6, &tcph, buf)
			} else {
				var ip4 packet.IPv4Header
				_, _ = packet.DecodeTCP4Into(&ip4, &tcph, buf)
			}
		}
		return 1024
	})
}

// probe is one prepared Send: a SYN for a destination, the source address
// the scanner would use for it, and its probe time.
type probe struct {
	src ip.Addr
	pkt []byte
	t   time.Duration
}

// sendLoops prices fabric.Send by destination class on a fresh fabric over
// the replay's world and scenario: hosts that answered the replay, routed
// space with no machine, and unrouted space.
func (t *tracer) sendLoops(parent int, rp *replayed) {
	mk := func(dst ip.Addr, at time.Duration) probe {
		src := origin.SourceFor(rp.org.SourceIPs, dst)
		return probe{src: src, pkt: packet.MakeSYN(src, dst, 40000, rp.p.Port(), 0xdead0000, 0), t: at}
	}
	var hosts, empty, unrouted []probe
	for i, step := 0, max(1, len(rp.replies)/sampleDests); i < len(rp.replies) && len(hosts) < sampleDests; i += step {
		hosts = append(hosts, mk(rp.replies[i].Dst, rp.replies[i].T))
	}
	classify := func(a ip.Addr) {
		switch d := rp.w.Resolve(a); {
		case !d.Routed && len(unrouted) < sampleDests:
			unrouted = append(unrouted, mk(a, time.Hour))
		case d.Routed && !d.Host && len(empty) < sampleDests:
			empty = append(empty, mk(a, time.Hour))
		}
	}
	// Candidates in scan order: the hitlist's stale and unrouted tails for
	// IPv6, the permuted space for IPv4 (at most 4 M addresses of it).
	if rp.zcfg.Hitlist != nil {
		for _, a := range rp.zcfg.Hitlist {
			classify(a)
		}
	} else if pm, err := zmap.NewPermutation(rng.NewKey(1), rp.zcfg.SpaceBits, 0, 1); err == nil {
		buf := make([]uint32, grabWindow)
		it := pm.Iterate()
		for visited := 0; visited < 4<<20 && (len(empty) < sampleDests || len(unrouted) < sampleDests); {
			n := it.NextBatch(buf)
			if n == 0 {
				break
			}
			for _, a := range buf[:n] {
				classify(ip.AddrFrom4(a))
			}
			visited += n
		}
	}
	fab := fabric.New(rp.fabCfg, rp.org, 0)
	send := func(name string, ps []probe) float64 {
		if len(ps) == 0 {
			return 0
		}
		ns, _ := t.untilCap(name, parent, func() int {
			for _, p := range ps {
				fab.Send(p.src, p.pkt, p.t)
			}
			return len(ps)
		})
		return ns
	}
	t.m["fabric.send_host_ns"] = send("fabric.Send/host", hosts)
	t.m["fabric.send_empty_ns"] = send("fabric.Send/empty", empty)
	t.m["fabric.send_unrouted_ns"] = send("fabric.Send/unrouted", unrouted)
}

// grabLoops prices GrabFast on one goroutine, grouped by verdict and
// protocol, over hosts that answered the replay.
func (t *tracer) grabLoops(ctx context.Context, parent int, rp *replayed) {
	n := min(len(rp.replies), 4*sampleDests)
	if n == 0 {
		return
	}
	dsts, ts := make([]ip.Addr, n), make([]time.Duration, n)
	for i := range dsts {
		dsts[i], ts[i] = rp.replies[i].Dst, rp.replies[i].T
	}
	fab := fabric.New(rp.fabCfg, rp.org, 0)
	grabber := &zgrab.Grabber{Dialer: fab, Key: rp.grabKey, IOTimeout: 10 * time.Second}
	type target struct {
		p proto.Protocol
		i int
		v zgrab.DialVerdict
	}
	var rejects []target
	grab := func(name string, tg []target) (float64, int) {
		if len(tg) == 0 {
			return 0, 0
		}
		return t.untilCap(name, parent, func() int {
			for _, g := range tg {
				grabber.GrabFast(ctx, g.p, dsts[g.i], ts[g.i], g.v)
			}
			return len(tg)
		})
	}
	verdicts := make([]zgrab.DialVerdict, n)
	for _, p := range proto.All() {
		fab.PredialBatch(dsts, ts, p.Port(), verdicts)
		var accepts []target
		for i, v := range verdicts {
			if v == zgrab.DialConnect {
				accepts = append(accepts, target{p, i, v})
			} else if v == zgrab.DialTimeout || v == zgrab.DialRefused {
				rejects = append(rejects, target{p, i, v})
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ns, grabs := grab("zgrab.GrabFast/accept-"+p.String(), accepts)
		runtime.ReadMemStats(&m1)
		t.m["zgrab.grab_accept_"+strings.ToLower(p.String())+"_ns"] = ns
		if p == rp.p {
			t.m["zgrab.allocs_per_grab"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(grabs))
		}
	}
	t.m["zgrab.grab_reject_ns"], _ = grab("zgrab.GrabFast/reject", rejects)
}

// reportLoops prices the report path over the traced engine run's dataset:
// the JSON round trip, the ground-truth union, and — where the workload's
// report phase runs them — one timed call per analysis pass and report.All.
func (t *tracer) reportLoops(ctx context.Context, parent int, study *core.Study, rp *replayed) error {
	ds := study.DS
	path := filepath.Join(t.o.dir, "layers-dataset.json")
	defer os.Remove(path)
	var size int64
	var err error
	d := t.rec.timed("results.WriteJSON", parent, func() { size, err = writeDataset(path, ds) })
	if err != nil {
		return err
	}
	mib := float64(size) / (1 << 20)
	t.m["results.write_json_mib_per_s"] = ratio(mib, d.Seconds())
	var back *results.Dataset
	d = t.rec.timed("results.ReadJSON", parent, func() { back, err = readDataset(path) })
	if err != nil {
		return err
	}
	t.m["results.read_json_mib_per_s"] = ratio(mib, d.Seconds())
	p := rp.p
	ms := func(name string, fn func()) float64 {
		return float64(t.rec.timed(name, parent, fn).Nanoseconds()) / 1e6
	}
	t.m["results.ground_truth_ms"] = ms("results.GroundTruth", func() { back.GroundTruth(p, 0) })

	if t.o.w.report == reportRoundTrip {
		return nil
	}
	var cls *analysis.Classifier
	t.m["analysis.classifier_ms"] = ms("analysis.NewClassifier", func() { cls = analysis.NewClassifier(back, p) })
	t.m["analysis.coverage_ms"] = ms("analysis.Coverage", func() { analysis.Coverage(back, p) })
	t.m["analysis.exclusive_ms"] = ms("analysis.Exclusive", func() { analysis.Exclusive(cls) })
	if t.o.w.report != reportFull {
		return nil
	}
	topo := study.Topo()
	t.m["analysis.breakdown_ms"] = ms("analysis.MissingBreakdown", func() { analysis.MissingBreakdown(cls) })
	t.m["analysis.transient_ms"] = ms("analysis.TransientLossSpread", func() { analysis.TransientLossSpread(cls, topo, 2) })
	t.m["analysis.packetloss_ms"] = ms("analysis.PacketLoss", func() { analysis.PacketLoss(back, topo, p, rp.cfg.Origins[0], 0, 5) })
	t.m["analysis.bursts_ms"] = ms("analysis.Bursts", func() { analysis.Bursts(cls, topo, 21) })
	t.m["analysis.multiorigin_ms"] = ms("analysis.MultiOrigin", func() { _, err = analysis.MultiOrigin(ctx, back, p, rp.cfg.Origins, false) })
	if err != nil {
		return fmt.Errorf("MultiOrigin: %w", err)
	}
	t.m["analysis.ssh_ms"] = ms("analysis.SSHCauses", func() {
		analysis.SSHCauses(analysis.NewClassifier(back, proto.SSH), topo, study.Exp.Scenario.Alibaba.ASes)
	})
	// report.All fires the study's hooks (its report stage, and the scans
	// of the SSH-retry sub-experiment inside it): hang them under its span.
	study.UseDataset(back)
	all := t.rec.start("report.All", parent)
	t.stages.parent = all
	err = report.All(ctx, io.Discard, study)
	d = t.rec.end(all)
	study.UseDataset(ds)
	if err != nil {
		return fmt.Errorf("report.All: %w", err)
	}
	t.m["report.all_s"] = d.Seconds()
	return nil
}

// scaling runs the workload's study again on the scan pool (matrix) or
// with the sweep sharded (sparse). Each run's dataset must Equal the serial
// one. Only the raw times are recorded here; the speed-ups are ratios to
// the untraced run_s.
func (t *tracer) scaling(ctx context.Context, root int, newConfig func() experiment.Config, serial *results.Dataset) error {
	if t.o.w.poolRuns == 0 && !t.o.w.shardRun {
		return nil
	}
	ss := t.rec.start("scaling", root)
	defer t.rec.end(ss)
	again := func(name string, mutate func(*experiment.Config)) (float64, error) {
		cfg := newConfig()
		mutate(&cfg)
		study, err := core.New(ctx, cfg)
		if err != nil {
			return 0, err
		}
		d := t.rec.timed(name, ss, func() { err = study.Run(ctx) })
		if err != nil {
			return 0, err
		}
		if diff := serial.Diff(study.DS); diff != "" {
			t.out.Failures = append(t.out.Failures, name+" differs from the serial dataset: "+diff)
		}
		return d.Seconds(), nil
	}
	for i := 0; i < t.o.w.poolRuns; i++ {
		s, err := again("Study.Run/pool", func(c *experiment.Config) { c.Parallelism = 0 })
		if err != nil {
			return fmt.Errorf("pooled run: %w", err)
		}
		t.out.PoolRunS = append(t.out.PoolRunS, s)
	}
	if t.o.w.shardRun {
		s, err := again("Study.Run/sharded", func(c *experiment.Config) { c.ScanShards = runtime.GOMAXPROCS(0) })
		if err != nil {
			return fmt.Errorf("sharded run: %w", err)
		}
		t.out.ShardRunS = s
	}
	return nil
}

// deriveLayerMetrics fills in the per-layer metrics that are ratios to the
// untraced run: the rates, the speed-ups and the tracing overhead.
func deriveLayerMetrics(lr *layerResult, runS float64) {
	m := lr.Metrics
	m["experiment.rows_per_s"] = ratio(float64(lr.Rows), runS)
	m["experiment.targets_per_s"] = ratio(float64(lr.Targets), runS)
	m["bench.trace_overhead_pct"] = 100 * (ratio(lr.TracedRunS, runS) - 1)
	if len(lr.PoolRunS) > 0 {
		s := append([]float64(nil), lr.PoolRunS...)
		sort.Float64s(s)
		m["experiment.pool_speedup"] = ratio(runS, median(s))
		m["experiment.pool_speedup_min"] = ratio(runS, s[len(s)-1])
		m["experiment.pool_speedup_max"] = ratio(runS, s[0])
	}
	if lr.ShardRunS > 0 {
		m["experiment.shard_speedup"] = ratio(runS, lr.ShardRunS)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the q-quantile of xs by nearest rank.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
