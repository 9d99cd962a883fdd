// Package experiment orchestrates the paper's measurements: synchronized
// multi-origin ZMap+ZGrab scans over the synthetic Internet (the nine main
// scans: 3 trials × {HTTP, HTTPS, SSH}), the SSH retry sub-experiment
// (Figure 13), and the co-located Tier-1 follow-up (Table 4b, Figure 18).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

// Config configures a study run.
type Config struct {
	// WorldSpec generates the synthetic Internet.
	WorldSpec world.Spec
	// Family selects the world's address family. The default (FamilyIPv4)
	// runs the paper's space sweep; FamilyIPv6 generates the seeded sparse
	// v6 world (V6Spec) and every scan walks a hitlist instead of sweeping
	// an address space — the scan strategy v6's 2^128 space forces.
	Family world.Family
	// V6Spec shapes the IPv6 world when Family is FamilyIPv6; the zero
	// value means world.DefaultV6Spec(WorldSpec.Seed).
	V6Spec world.V6Spec
	// Hitlist, when non-empty, replaces the v6 world's seeded hitlist as
	// the scan target list (cmd/originscan -hitlist). Ignored for IPv4.
	Hitlist []ip.Addr
	// Trials is the number of repetitions (the paper runs 3).
	Trials int
	// Origins scan in every trial.
	Origins origin.Set
	// Protocols to scan (default: all three).
	Protocols []proto.Protocol
	// Probes per target (the paper sends 2 back-to-back SYNs).
	Probes int
	// ProbeDelay spaces probes to the same target apart in time (§7's
	// recommended mitigation; 0 = back-to-back as in the main study).
	ProbeDelay time.Duration
	// Retries is the ZGrab connection retry budget (0 in the main study).
	Retries int
	// GrabWorkers sizes the L7 worker pool (default 16).
	GrabWorkers int
	// IncludeCarinet adds the Carinet origin in trial 0 only, as in the
	// paper.
	IncludeCarinet bool
	// Blocklist addresses are excluded from scanning from every origin
	// (the paper's synchronized opt-out list).
	Blocklist *ip.Set
	// Shard/Shards split each scan across cooperating scanner processes
	// (ZMap sharding); shard k of n probes a disjoint 1/n of the space.
	Shard, Shards int
	// FreshCensysIP models the follow-up experiment's Censys IP change:
	// Censys scans with a fresh, unblocked identity.
	FreshCensysIP bool
	// SinkWrapper, when set, wraps the packet sink of every scan — the
	// seam for packet capture (pcap tee) or custom instrumentation. A
	// wrapper must be safe for concurrent Sends when ScanShards > 1.
	SinkWrapper func(zmap.PacketSink) zmap.PacketSink
	// DialWrapper, when set, wraps the L7 dialer of every scan — the grab
	// counterpart of SinkWrapper. A wrapper must be safe for concurrent
	// Dials (the grab worker pool dials concurrently). Wrapped dialers
	// automatically take the reference grab path: the wrapper sees every
	// Dial.
	DialWrapper func(zgrab.Dialer) zgrab.Dialer
	// GrabReference forces the goroutine-per-connection reference grab
	// path even when the scan's dialer supports the batched fast path
	// (zgrab.FastDialer). The fast path is bit-identical — this knob
	// exists for the differential tests and benchmarks that prove it.
	GrabReference bool
	// Hooks observe lifecycle stage transitions of every scan and of
	// world generation (instrumentation, progress reporting, tests).
	Hooks pipeline.Hooks
	// Telemetry, when set, receives live metrics from every layer of the
	// run: sweep and grab counters labeled per (origin, proto, trial),
	// stage-duration spans, IDS activations, seal statistics, and the
	// worker-pool gauges the progress line reads. Telemetry is a pure
	// observer — a run with a registry produces a bit-identical dataset
	// to a run without one.
	Telemetry *telemetry.Registry
	// Parallelism is how many (origin, protocol, trial) scans run
	// concurrently (0 = GOMAXPROCS). The parallel engine precomputes IDS
	// detection schedules so results are bit-identical to a serial run;
	// set 1 to force the serial reference path.
	Parallelism int
	// ScanShards splits each scan's permutation sweep across N goroutine
	// shards (0 or 1 = unsharded). Deterministic: shard results merge
	// back into the serial emission order.
	ScanShards int
	// SpillDir, when set, backs every scan's result store with the
	// spill-to-disk strategy: records buffer up to a per-scan budget,
	// overflow flushes to sorted segment files under this directory, and
	// Seal externally merges them. Sealed datasets are byte-identical to
	// an in-memory run; only the memory profile changes. The directory
	// must exist.
	SpillDir string
	// MemBudget caps the study's total live result-store memory in
	// bytes, split evenly across the scans that can be in flight at once
	// (Parallelism): each scan's store spills once its share is
	// exceeded. <= 0 with SpillDir set leaves every store on
	// results.DefaultSpillBudget. Ignored without SpillDir.
	MemBudget int64
	// ScenarioConfig tweaks behaviour models (ablations).
	ScenarioConfig scenario.Config
}

// grabWindow is the windowed grab hand-off's batch size: workers claim
// indices inside one window, and each completed window appends through the
// ResultSink in reply order. Matches the sweep kernel's 4096-address batch
// — small enough that the in-flight record buffer is negligible, large
// enough that the per-window barrier is amortized away.
const grabWindow = 4096

func (c *Config) withDefaults() Config {
	out := *c
	if out.Trials == 0 {
		out.Trials = 3
	}
	if len(out.Origins) == 0 {
		out.Origins = origin.StudySet()
	}
	if len(out.Protocols) == 0 {
		out.Protocols = proto.All()
	}
	if out.Probes == 0 {
		out.Probes = 2
	}
	if out.GrabWorkers == 0 {
		out.GrabWorkers = 16
	}
	return out
}

// Study is a prepared experiment: world plus behaviour models.
type Study struct {
	Config   Config
	World    *world.World
	Scenario *scenario.Scenario
}

// NewStudy builds the world and scenario for a config. World generation
// runs as the lifecycle's Worldgen stage: cfg.Hooks observe it, generation
// failures are tagged pipeline.ErrWorldGen, and a canceled context aborts
// the build with pipeline.ErrCanceled.
func NewStudy(ctx context.Context, cfg Config) (*Study, error) {
	cfg = cfg.withDefaults()
	var w *world.World
	runner := pipeline.Runner{Hooks: telemetry.ScanHooks(cfg.Telemetry, cfg.Hooks)}
	err := runner.Run(ctx, pipeline.StageFunc{
		Stage: pipeline.StageWorldgen,
		Run: func(ctx context.Context) error {
			var err error
			if cfg.Family == world.FamilyIPv6 {
				spec := cfg.V6Spec
				if spec == (world.V6Spec{}) {
					spec = world.DefaultV6Spec(cfg.WorldSpec.Seed)
				}
				w, err = world.BuildV6(ctx, spec)
			} else {
				w, err = world.Build(ctx, cfg.WorldSpec)
			}
			if err != nil && !errors.Is(err, pipeline.ErrCanceled) {
				return pipeline.Tag(pipeline.ErrWorldGen, err)
			}
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	scfg := cfg.ScenarioConfig
	scfg.Trials = cfg.Trials
	if scfg.NumOrigins == 0 {
		scfg.NumOrigins = len(cfg.Origins)
	}
	sc := scenario.New(w, scfg)
	return &Study{Config: cfg, World: w, Scenario: sc}, nil
}

// Run executes all trials and returns the dataset. With Parallelism > 1
// (or by default, GOMAXPROCS > 1) the scans run concurrently on a bounded
// worker pool; IDS detection schedules are precomputed so the dataset is
// bit-identical to a serial run.
//
// Cancellation and failure both return the partial dataset alongside the
// error: every scan that completed before the interruption is sealed and
// present, so callers can flush what was collected. A canceled run's error
// matches pipeline.ErrCanceled and carries the interrupted stage
// (pipeline.InterruptedStage); a failed run's error matches
// pipeline.ErrScanFailed and joins a *pipeline.ScanError per failed
// (origin, protocol, trial) tuple — all of them, not just the first.
func (st *Study) Run(ctx context.Context) (*results.Dataset, error) {
	// The study span is the trace tree's root: every scan span is its
	// child, so a flight-recorder journal reconstructs the whole run from
	// one root. Nil registry → nil span → the tree stays disabled.
	span := st.Config.Telemetry.StartSpan("study",
		telemetry.L("family", st.World.Family.String()))
	ds, err := st.run(ctx, span)
	span.End(err)
	return ds, err
}

// run is Study.Run's body, with the study-level trace span threaded to
// every scan.
func (st *Study) run(ctx context.Context, studySpan *telemetry.Span) (*results.Dataset, error) {
	cfg := st.Config
	origins := cfg.Origins
	dsOrigins := origins
	if cfg.IncludeCarinet && !origins.Contains(origin.CARINET) {
		dsOrigins = append(append(origin.Set{}, origins...), origin.CARINET)
	}
	ds := results.NewDataset(dsOrigins, cfg.Trials)

	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	shards := cfg.ScanShards
	if shards <= 0 {
		shards = 1
	}
	// Orchestration metrics: totals for the progress line, the queue-depth
	// gauge, and per-worker utilization. All instruments are nil-safe, so a
	// run without a registry takes the same code path.
	reg := cfg.Telemetry
	numScans := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		for range cfg.Protocols {
			for _, o := range dsOrigins {
				if o == origin.CARINET && trial != 0 {
					continue
				}
				numScans++
			}
		}
	}
	reg.Gauge(telemetry.MetricScansTotal).Set(int64(numScans))
	scansDone := reg.Counter(telemetry.MetricScansDone)
	queueDepth := reg.Gauge(telemetry.MetricQueueDepth)

	var scanErrs []error
	if par == 1 && shards == 1 {
		// Serial reference path: the live stateful IDSes observe probes
		// in study order, exactly as the paper's scans unfolded. The
		// parallel engine below must match this bit-for-bit.
		queueDepth.Set(int64(numScans))
		for trial := 0; trial < cfg.Trials; trial++ {
			for _, p := range cfg.Protocols {
				for _, o := range dsOrigins {
					if o == origin.CARINET && trial != 0 {
						continue
					}
					queueDepth.Add(-1)
					res, err := st.scanOne(ctx, o, p, trial, policy.Detectors(st.Scenario.IDSes), 1, studySpan)
					if err != nil {
						serr := &pipeline.ScanError{Origin: o, Proto: p, Trial: trial, Err: err}
						if errors.Is(err, pipeline.ErrCanceled) {
							// The interrupted scan is discarded; the
							// dataset keeps every scan sealed before it.
							return ds, serr
						}
						scansDone.Inc()
						scanErrs = append(scanErrs, serr)
						continue
					}
					scansDone.Inc()
					if err := ds.Put(res); err != nil {
						scanErrs = append(scanErrs, &pipeline.ScanError{Origin: o, Proto: p, Trial: trial, Err: err})
					}
				}
			}
		}
		if len(scanErrs) > 0 {
			return ds, pipeline.Tag(pipeline.ErrScanFailed, errors.Join(scanErrs...))
		}
		return ds, nil
	}

	// Canonical task order: trial-major, then protocol, then origin — the
	// order the serial loop commits in.
	var tasks []scanKey
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, p := range cfg.Protocols {
			for _, o := range dsOrigins {
				if o == origin.CARINET && trial != 0 {
					continue
				}
				tasks = append(tasks, scanKey{o: o, p: p, trial: trial})
			}
		}
	}

	plan, err := st.planIDS(ctx, dsOrigins)
	if err != nil {
		return ds, err
	}

	outs := make([]*results.ScanResult, len(tasks))
	errs := make([]error, len(tasks))
	idx := make(chan int)
	queueDepth.Set(int64(len(tasks)))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wl := telemetry.L("worker", strconv.Itoa(w))
			busyNS := reg.Counter(telemetry.MetricWorkerBusyNS, wl)
			workerScans := reg.Counter(telemetry.MetricWorkerScans, wl)
			for i := range idx {
				queueDepth.Add(-1)
				if ctx.Err() != nil {
					continue // canceled: drain remaining indices
				}
				t := tasks[i]
				begin := time.Now()
				res, err := st.scanOne(ctx, t.o, t.p, t.trial, plan.detectors(t), shards, studySpan)
				busyNS.Add(uint64(time.Since(begin).Nanoseconds()))
				workerScans.Inc()
				if err != nil {
					if !errors.Is(err, pipeline.ErrCanceled) {
						scansDone.Inc()
					}
					errs[i] = err
					continue
				}
				scansDone.Inc()
				outs[i] = res
			}
		}(w)
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Seal every completed scan into the dataset before classifying the
	// outcome: partial results survive both cancellation and failure.
	for i, res := range outs {
		if res == nil {
			continue
		}
		if err := ds.Put(res); err != nil {
			errs[i] = errors.Join(errs[i], err)
		}
	}

	var canceledErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		t := tasks[i]
		serr := &pipeline.ScanError{Origin: t.o, Proto: t.p, Trial: t.trial, Err: err}
		if errors.Is(err, pipeline.ErrCanceled) {
			if canceledErr == nil {
				canceledErr = serr
			}
			continue
		}
		scanErrs = append(scanErrs, serr)
	}
	switch {
	case len(scanErrs) > 0:
		return ds, pipeline.Tag(pipeline.ErrScanFailed, errors.Join(scanErrs...))
	case canceledErr != nil:
		return ds, canceledErr
	case ctx.Err() != nil:
		// Canceled after the last scan completed but before commit.
		return ds, pipeline.Canceled(ctx.Err())
	}
	// Leave the live IDSes in the exact state a serial run would have:
	// sub-experiments (SSH retry, multi-probe sweeps) read it. Only a
	// fully successful run commits.
	plan.commit(st.Scenario.IDSes)
	return ds, nil
}

// scanLabels are the telemetry labels identifying one scan's metrics.
func scanLabels(f world.Family, o origin.ID, p proto.Protocol, trial int) []telemetry.Label {
	return []telemetry.Label{
		telemetry.L("family", f.String()),
		telemetry.L("origin", o.String()),
		telemetry.L("proto", p.String()),
		telemetry.L("trial", strconv.Itoa(trial)),
	}
}

// hitlist returns the scan target list: nil for IPv4 worlds (scans sweep
// the space), and the configured or world-seeded hitlist for IPv6.
func (st *Study) hitlist() []ip.Addr {
	if st.World.Family != world.FamilyIPv6 {
		return nil
	}
	if len(st.Config.Hitlist) > 0 {
		return st.Config.Hitlist
	}
	return st.World.Hitlist()
}

// newScanResult builds the result store for one scan: the in-memory
// columns by default, or a spill-backed store when cfg.SpillDir is set.
// The study-wide MemBudget is split across the scans that can run
// concurrently, so the study's total live column memory stays bounded
// regardless of parallelism; the store clamps the capacity hint by its
// share.
func (st *Study) newScanResult(o origin.ID, p proto.Protocol, trial, hint int) (*results.ScanResult, error) {
	cfg := st.Config
	if cfg.SpillDir == "" {
		return results.NewScanResultSized(o, p, trial, hint), nil
	}
	spill := results.SpillConfig{Dir: cfg.SpillDir}
	if cfg.MemBudget > 0 {
		par := cfg.Parallelism
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		spill.Budget = cfg.MemBudget / int64(par)
	}
	return results.NewSpilledScanResult(o, p, trial, hint, spill)
}

// replyHint sizes one scan's reply log and zmap.Config.ExpectedReplies: only
// hosts reply, so the world's host count bounds both. It is the count, not
// len(Hosts()) — a StreamHosts world retains no host slice, and a log sized 0
// regrows by append through the whole sweep (a 1.3 GB slice reaching its size
// by 1.25× copies at Scale 1.0).
func (st *Study) replyHint() int { return st.World.NumHosts() }

// originRecord resolves the origin, applying the follow-up Censys IP swap.
func (st *Study) originRecord(o origin.ID) *origin.Origin {
	org := st.World.Origins.Get(o)
	if o == origin.CEN && st.Config.FreshCensysIP {
		fresh := *org
		fresh.ScanReputation = origin.RepFresh
		// The reserved source block has spare addresses beyond the
		// directory's allocations; take the last one.
		fresh.SourceIPs = []ip.Addr{org.SourceIPs[0].Add(50)}
		return &fresh
	}
	return org
}

// ScanOne runs a single origin's ZMap+ZGrab scan of one protocol in one
// trial: the building block of the study. The live IDSes observe the scan's
// probes directly (the serial reference behaviour).
func (st *Study) ScanOne(ctx context.Context, o origin.ID, p proto.Protocol, trial int) (*results.ScanResult, error) {
	return st.scanOne(ctx, o, p, trial, policy.Detectors(st.Scenario.IDSes), 1, nil)
}

// spanUnder starts a child of parent, or a root span when the scan runs
// without a study-level parent (ScanOne, sub-experiments).
func spanUnder(reg *telemetry.Registry, parent *telemetry.Span, name string, labels ...telemetry.Label) *telemetry.Span {
	if parent != nil {
		return parent.StartChild(name, labels...)
	}
	return reg.StartSpan(name, labels...)
}

// scanOne runs one scan with the given IDS views (live or scheduled) and
// number of sweep shards. The scan is a three-stage pipeline — Sweep (L4
// probe sweep), Grab (L7 handshakes on the worker pool), Seal (commit the
// sorted columns and drain the fabric's connection goroutines) — run
// through a pipeline.Runner so cfg.Hooks observe the transitions and any
// interruption reports its stage. A canceled scan returns nil (the partial
// result is not well-defined mid-stage); the fabric is always drained
// before return so no connection goroutine outlives the scan.
func (st *Study) scanOne(ctx context.Context, o origin.ID, p proto.Protocol, trial int, detectors []policy.Detector, shards int, studySpan *telemetry.Span) (res *results.ScanResult, err error) {
	cfg := st.Config
	org := st.originRecord(o)
	// Per-scan telemetry: metric children are resolved once here, labeled
	// by the scan's identity, and the hot paths below touch only the
	// pre-resolved atomic counters. With no registry every bundle is nil
	// and the instruments no-op.
	labels := scanLabels(st.World.Family, o, p, trial)
	sweepM := telemetry.NewSweepMetrics(cfg.Telemetry, labels...)
	grabM := telemetry.NewGrabMetrics(cfg.Telemetry, labels...)
	poolM := telemetry.NewGrabPoolMetrics(cfg.Telemetry, cfg.GrabWorkers, labels...)
	sealM := telemetry.NewSealMetrics(cfg.Telemetry, labels...)
	var spillM *telemetry.SpillMetrics
	if cfg.SpillDir != "" {
		spillM = telemetry.NewSpillMetrics(cfg.Telemetry, labels...)
	}
	// One scan = one span under the study root; its children are the
	// stage spans, which in turn own the sweep-batch and grab-window
	// exemplars.
	scanSpan := spanUnder(cfg.Telemetry, studySpan, "scan", labels...)
	defer func() { scanSpan.End(err) }()
	fab := fabric.New(&fabric.Config{
		World:      st.World,
		Engine:     st.Scenario.Engine,
		IDSes:      detectors,
		Loss:       st.Scenario.Loss,
		Outages:    st.Scenario.Outages[p],
		Churn:      st.Scenario.Churn,
		NumOrigins: len(cfg.Origins),
		Hosts:      st.Scenario.Hosts,
	}, org, trial)
	// Teardown safety net: even when a stage fails or the run is
	// canceled, wait (bounded, off the canceled ctx) for the fabric's
	// per-connection goroutines so an aborted scan leaks nothing.
	defer func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = fab.Drain(drainCtx)
	}()

	// All origins share the scan seed per (protocol, trial): the paper
	// starts every origin's ZMap with the same seed so scanners probe
	// the same addresses at approximately the same time.
	scanSeed := rng.NewKey(st.World.Spec.Seed).Derive("scan-seed").Uint64(uint64(p), uint64(trial))
	numHosts := st.replyHint()
	sc, err := zmap.NewScanner(zmap.Config{
		SourceIPs:       org.SourceIPs,
		TargetPort:      p.Port(),
		Probes:          cfg.Probes,
		ProbeDelay:      cfg.ProbeDelay,
		SpaceBits:       st.World.SpaceBits,
		Hitlist:         st.hitlist(),
		Seed:            scanSeed,
		Shard:           cfg.Shard,
		Shards:          cfg.Shards,
		ScanDuration:    scenario.ScanDuration,
		Blocklist:       cfg.Blocklist,
		ExpectedReplies: numHosts,
		Telemetry:       sweepM,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: %v/%v/trial %d: %w", o, p, trial, err)
	}

	var sink zmap.PacketSink = fab
	if cfg.SinkWrapper != nil {
		sink = cfg.SinkWrapper(fab)
	}
	var dialer zgrab.Dialer = fab
	if cfg.DialWrapper != nil {
		dialer = cfg.DialWrapper(fab)
	}

	// State threaded between stages.
	replies := make([]zmap.Reply, 0, numHosts)
	var stats zmap.Stats

	tr := telemetry.NewStageTrace(cfg.Telemetry, scanSpan, labels...)
	runner := pipeline.Runner{Hooks: tr.Hooks(cfg.Hooks)}
	err = runner.Run(ctx,
		pipeline.StageFunc{Stage: pipeline.StageSweep, Run: func(ctx context.Context) error {
			// L4 sweep: collect replies. Only hosts reply, so the
			// world's host count bounds the reply slice. The stage span
			// receives the sweep's batch exemplars and target totals.
			sc.SetTraceSpan(tr.Span(pipeline.StageSweep))
			var err error
			stats, err = sc.RunSharded(ctx, sink, func(r zmap.Reply) { replies = append(replies, r) }, shards)
			return err
		}},
		pipeline.StageFunc{Stage: pipeline.StageGrab, Run: func(ctx context.Context) error {
			// Windowed grab hand-off through the ResultSink: workers
			// claim reply indices inside a bounded window, writing
			// records into matching slots — no channel per record — and
			// each window barrier appends its records through the sink
			// in reply order, so the columns build deterministically
			// (identical to the old whole-scan record buffer). Handing
			// records over per window instead of buffering the entire
			// scan is what lets a spill-backed store bound memory: the
			// sink may flush sorted runs to disk mid-scan. Workers
			// re-check ctx per claim (a pure read: uncancelled runs are
			// unaffected), so a canceled grab stops within one claim per
			// worker, and a partially grabbed window is never appended.
			var err error
			res, err = st.newScanResult(o, p, trial, len(replies))
			if err != nil {
				return err
			}
			var sink results.ResultSink = res
			grabber := &zgrab.Grabber{
				Dialer:    dialer,
				Retries:   cfg.Retries,
				Key:       rng.NewKey(st.World.Spec.Seed).Derive("grab").DeriveN("origin", uint64(o)),
				IOTimeout: 10 * time.Second,
				Metrics:   grabM,
			}
			gspan := tr.Span(pipeline.StageGrab)
			gspan.SetAttr("hosts", int64(len(replies)))
			if poolM != nil {
				poolM.Hosts.Set(int64(len(replies)))
			}
			// The window tracer records per-window exemplars (bounded
			// sampling) under the grab stage span; Hooks run the stage in
			// this goroutine, so the tracer's state is single-owner.
			wt := gspan.ChildTracer("grab_window")
			size := grabWindow
			if size > len(replies) {
				size = len(replies)
			}
			window := make([]results.HostRecord, size)
			poolWorkers := poolM.Workers()
			// The fast path: a dialer that supports batched pre-dial
			// evaluation gets its verdicts computed per window, up
			// front, so the workers' grabs never touch connection setup
			// for L4 failures and serve accepted exchanges inline (zero
			// goroutines). Wrapped dialers (DialWrapper) don't satisfy
			// the interface and fall back to the reference path, as
			// does Config.GrabReference. preIdx maps a window slot to
			// its verdict (-1: no L4 response, never grabbed).
			fd, fastPath := dialer.(zgrab.FastDialer)
			if cfg.GrabReference {
				fastPath = false
			}
			var (
				preDst []ip.Addr
				preT   []time.Duration
				pre    []zgrab.DialVerdict
				preIdx []int32
			)
			if fastPath {
				preDst = make([]ip.Addr, size)
				preT = make([]time.Duration, size)
				pre = make([]zgrab.DialVerdict, size)
				preIdx = make([]int32, size)
			}
			var fastAttr int64
			if fastPath {
				fastAttr = 1
			}
			gspan.SetAttr("fast_path", fastAttr)
			for base := 0; base < len(replies); base += size {
				n := len(replies) - base
				if n > size {
					n = size
				}
				win := window[:n]
				if fastPath {
					m := 0
					for i := 0; i < n; i++ {
						r := &replies[base+i]
						if r.ProbeMask == 0 {
							preIdx[i] = -1
							continue
						}
						preDst[m] = r.Dst
						preT[m] = r.T
						preIdx[i] = int32(m)
						m++
					}
					var predialStart time.Time
					if poolM != nil {
						predialStart = time.Now()
					}
					fd.PredialBatch(preDst[:m], preT[:m], p.Port(), pre[:m])
					if poolM != nil {
						poolM.Predial.ObserveDuration(time.Since(predialStart))
					}
				}
				workers := cfg.GrabWorkers
				if workers > n {
					workers = n
				}
				wt.Begin()
				// windowStart anchors the queue-wait measurement: how long
				// a reply sat in the window before a worker claimed it.
				// Clock reads are gated on a live pool bundle, so disabled
				// telemetry costs one nil check per window and per claim.
				var windowStart time.Time
				if poolM != nil {
					windowStart = time.Now()
				}
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// The worker's telemetry accumulates privately and is
						// flushed once, when the window is done.
						var gw *telemetry.GrabWorker
						if poolM != nil {
							gw = &poolWorkers[w]
							defer gw.Flush()
						}
						for ctx.Err() == nil {
							i := int(next.Add(1)) - 1
							if i >= n {
								break
							}
							var claimed time.Time
							if gw != nil {
								claimed = time.Now()
								gw.Claimed(claimed.Sub(windowStart))
							}
							r := replies[base+i]
							rec := results.HostRecord{
								Addr: r.Dst, ProbeMask: r.ProbeMask, RST: r.RST, T: r.T,
							}
							if r.ProbeMask != 0 {
								var g zgrab.Result
								if fastPath {
									g = grabber.GrabFast(ctx, p, r.Dst, r.T, pre[preIdx[i]])
								} else {
									g = grabber.Grab(ctx, p, r.Dst, r.T)
								}
								rec.L7 = g.Success
								rec.Fail = g.Fail
								rec.Attempts = g.Attempts
								rec.Banner = g.Banner
							}
							win[i] = rec
							if gw != nil {
								gw.Served(time.Since(claimed))
							}
						}
					}(w)
				}
				wg.Wait()
				if err := ctx.Err(); err != nil {
					return err
				}
				// The window hand-off: AddBatch may sort, dedup, and spill
				// — WindowAppend is where result-store back-pressure on
				// the grab path becomes visible.
				var appendStart time.Time
				if poolM != nil {
					appendStart = time.Now()
				}
				sink.AddBatch(win)
				if poolM != nil {
					poolM.WindowAppend.ObserveDuration(time.Since(appendStart))
				}
				wt.End(telemetry.A("hosts", int64(n)), telemetry.A("workers", int64(workers)))
			}
			return ctx.Err()
		}},
		pipeline.StageFunc{Stage: pipeline.StageSeal, Run: func(ctx context.Context) error {
			// Records appended in deterministic (T, Dst) reply order;
			// Seal commits the sorted columns — one in-memory sort for
			// the fast path, or the keep-last external merge of on-disk
			// segments plus the live run for a spill-backed store (the
			// segments are deleted as the merge consumes them). Either
			// way the stored scan is an immutable sorted view before any
			// analysis touches it. The fabric drain guarantees every
			// per-connection goroutine exited before the scan commits.
			res.Targets = stats.Targets
			res.ProbesSent = stats.ProbesSent
			res.SynAcks = stats.SynAcks
			res.Rsts = stats.Rsts
			res.Invalid = stats.Invalid
			if err := res.SealErr(); err != nil {
				return err
			}
			sspan := tr.Span(pipeline.StageSeal)
			if sealM != nil {
				rows, deduped := res.SealStats()
				sealM.Rows.Add(uint64(rows))
				sealM.Deduped.Add(uint64(deduped))
			}
			if sspan != nil {
				rows, deduped := res.SealStats()
				sspan.SetAttr("rows", int64(rows))
				sspan.SetAttr("deduped", int64(deduped))
			}
			if spillM != nil {
				sst := res.SpillStats()
				spillM.Segments.Add(uint64(sst.Segments))
				spillM.Bytes.Add(uint64(sst.SpilledBytes))
				spillM.FanIn.Set(int64(sst.MergeFanIn))
				spillM.Passes.Set(int64(sst.MergePasses))
				spillM.Merge.ObserveDuration(sst.MergeDuration)
				spillM.Flush.ObserveDuration(sst.FlushDuration)
				if sspan != nil {
					sspan.SetAttr("spill_segments", int64(sst.Segments))
					sspan.SetAttr("spill_bytes", sst.SpilledBytes)
					sspan.SetAttr("merge_fanin", int64(sst.MergeFanIn))
					sspan.SetAttr("merge_passes", int64(sst.MergePasses))
					sspan.SetAttr("merge_ns", sst.MergeDuration.Nanoseconds())
					sspan.SetAttr("flush_ns", sst.FlushDuration.Nanoseconds())
				}
			}
			// Fabric connection totals land on the seal span (with the
			// still-active count before the drain): the routed/unrouted
			// split lives on the sweep span, the L7 connection volume here.
			if sspan != nil {
				sspan.SetAttr("conns_opened", int64(fab.ConnsOpened()))
				sspan.SetAttr("conns_active_predrain", int64(fab.ActiveConns()))
			}
			return fab.Drain(ctx)
		}},
	)
	if err != nil {
		// An interrupted or failed scan's partial store is abandoned:
		// delete any spilled segments so a canceled study leaks no disk.
		if res != nil {
			_ = res.Discard()
		}
		return nil, err
	}
	return res, nil
}
