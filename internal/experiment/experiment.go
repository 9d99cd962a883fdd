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
	// seam for packet capture (pcap tee) or custom instrumentation.
	SinkWrapper func(zmap.PacketSink) zmap.PacketSink
	// DialWrapper, when set, wraps the L7 dialer of every scan — the grab
	// counterpart of SinkWrapper and the fault-injection seam of the grab
	// stage. A wrapper embeds the dialer it is given and overrides what it
	// wants to observe: PredialBatch once per grab slot, Predial per retry
	// attempt, Handshake per accepted connection (served, reset or
	// half-closed). All three run on the grab stage's one goroutine, never
	// concurrently within a scan: under the walk, which goes on on another
	// goroutine (the sink's), and after it, beside the next scan's walk.
	DialWrapper func(zgrab.Dialer) zgrab.Dialer
	// Hooks observe lifecycle stage transitions of every scan and of
	// world generation (instrumentation, progress reporting, tests). A
	// scan's stages fire in order, but not on one goroutine: Sweep on the
	// worker that walks the scan, Grab and Seal on the scan's grab stage
	// goroutine, beside the worker's next scan's Sweep — so two scans'
	// hooks interleave at every Parallelism, 1 included. Study.Run makes
	// the calls one at a time (so a hook must not wait for another), and
	// ScanOf names the scan a hook fires for.
	// L7 work is not confined to Grab: Sweep spans the walk and the
	// grabbing under it, Grab the partial last slot and the held-back
	// replies (see Study.sweep).
	Hooks pipeline.Hooks
	// Telemetry, when set, receives live metrics from every layer of the
	// run: sweep and grab counters labeled per (origin, proto, trial),
	// stage-duration spans, IDS activations, seal statistics, and the
	// worker-pool gauges the progress line reads. Telemetry is a pure
	// observer — a run with a registry produces a bit-identical dataset
	// to a run without one.
	Telemetry *telemetry.Registry
	// Parallelism is how many workers take (origin, protocol, trial) scans
	// off the study's task list (0 = GOMAXPROCS): how many scans sweep at
	// once. Scans of different origins run concurrently; the scans of one
	// origin run one after another, in study order, so every width
	// produces the same dataset and leaves the IDSes in the same state. A
	// scan in flight is two goroutines: its grab stage's runs beside its
	// sweep, and once the walk returns it drains and seals the scan while
	// the worker sweeps its next one. A worker waits for that tail only
	// before it hands off another, so it holds at most two scans.
	Parallelism int
	// Deprecated: ScanShards is ignored; every scan sweeps on one
	// goroutine. Config.Shard/Shards is the one way to split a scan.
	ScanShards int
	// SpillDir, when set, backs every scan's result store with the
	// spill-to-disk strategy: records buffer up to a per-scan budget,
	// overflow flushes to sorted segment files under this directory, and
	// Seal externally merges them. Sealed datasets are byte-identical to
	// an in-memory run; only the memory profile changes. The directory
	// must exist.
	SpillDir string
	// MemBudget caps the study's total live result-store memory in
	// bytes, split evenly across the stores that can be live at once: two
	// per worker (a scan sweeping and the one before it draining and
	// sealing), at most one per scan of the study — 2 × Parallelism capped
	// by the task count; ScanOne's one store gets all of it. Each store
	// spills once its share is exceeded. <= 0 with SpillDir set leaves
	// every store on results.DefaultSpillBudget. Ignored without SpillDir.
	MemBudget int64
	// ScenarioConfig tweaks behaviour models (ablations).
	ScenarioConfig scenario.Config
}

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
	return out
}

// parallelism is how many scans run at once: Parallelism, or GOMAXPROCS.
func (c *Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Study is a prepared experiment: world plus behaviour models.
type Study struct {
	Config   Config
	World    *world.World
	Scenario *scenario.Scenario

	// grabShape is zero outside tests (see grabstage.go).
	grabShape grabShape
}

// NewStudy builds the world and scenario for a config. World generation
// runs as the lifecycle's Worldgen stage: cfg.Hooks observe it, generation
// failures are tagged pipeline.ErrWorldGen, and a canceled context aborts
// the build with pipeline.ErrCanceled. A negative Retries is refused before
// the build, tagged pipeline.ErrBadConfig.
func NewStudy(ctx context.Context, cfg Config) (*Study, error) {
	cfg = cfg.withDefaults()
	if cfg.Retries < 0 {
		// A negative budget would run no grab attempt at all: every row
		// would read Attempts 0 and FailNone.
		return nil, pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("experiment: negative retry budget %d", cfg.Retries))
	}
	var w *world.World
	runner := pipeline.Runner{Hooks: telemetry.NewStageTrace(cfg.Telemetry, nil).Hooks(cfg.Hooks)}
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

// Run executes all trials and returns the dataset. The scans run on a
// bounded worker pool of Parallelism workers, each sweeping one scan while
// the scan before it drains and seals; the scans of one origin run one at a
// time, in study order, against IDS clones of their own, so the dataset and
// the IDSes' end state are bit-identical at every width.
//
// Cancellation and failure both return the partial dataset alongside the
// error: every scan that completed before the interruption is sealed and
// present, so callers can flush what was collected; the live IDSes are left
// as they were. A canceled run's error matches pipeline.ErrCanceled and
// carries the interrupted stage (pipeline.InterruptedStage); a failed run's
// error matches pipeline.ErrScanFailed and joins a *pipeline.ScanError per
// failed (origin, protocol, trial) tuple — all of them, not just the first.
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
	dsOrigins := cfg.Origins
	if cfg.IncludeCarinet && !dsOrigins.Contains(origin.CARINET) {
		dsOrigins = append(append(origin.Set{}, dsOrigins...), origin.CARINET)
	}
	ds := results.NewDataset(dsOrigins, cfg.Trials)

	// Canonical task order: trial-major, then protocol, then origin. The
	// IDSes are the only state one scan leaves for another, and they detect
	// per source IP, which no two origins share: a scan can only affect the
	// later scans of its own origin. So each origin scans against IDS clones
	// of its own, and its scans form a chain in task order — each waits for
	// the one before it — while scans of different origins run side by side.
	live := st.Scenario.IDSes
	clones := make([][]*policy.IDS, len(dsOrigins))
	last := make([]chan struct{}, len(dsOrigins))
	started := make(chan struct{})
	close(started)
	for oi := range dsOrigins {
		clones[oi] = make([]*policy.IDS, len(live))
		for i, d := range live {
			clones[oi][i] = d.CloneEmpty()
		}
		last[oi] = started
	}
	var tasks []chainTask
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, p := range cfg.Protocols {
			for oi, o := range dsOrigins {
				if o == origin.CARINET && trial != 0 {
					continue
				}
				t := chainTask{scanKey: scanKey{o: o, p: p, trial: trial},
					idses: clones[oi], after: last[oi], done: make(chan struct{})}
				last[oi] = t.done
				tasks = append(tasks, t)
			}
		}
	}
	// Orchestration metrics: totals for the progress line, the queue-depth
	// gauge, and per-worker utilization. All instruments are nil-safe, so a
	// run without a registry takes the same code path.
	reg := cfg.Telemetry
	reg.Gauge(telemetry.MetricScansTotal).Set(int64(len(tasks)))
	scansDone := reg.Counter(telemetry.MetricScansDone)
	queueDepth := reg.Gauge(telemetry.MetricQueueDepth)

	idx := make(chan int, len(tasks))
	for i := range tasks {
		idx <- i
	}
	close(idx)
	queueDepth.Set(int64(len(tasks)))
	env := &scanEnv{span: studySpan, hooks: serialHooks(cfg.Hooks), stores: min(2*cfg.parallelism(), len(tasks)), scansDone: scansDone}
	worker := func(w int) {
		wl := telemetry.L("worker", strconv.Itoa(w))
		busyNS := reg.Counter(telemetry.MetricWorkerBusyNS, wl)
		workerScans := reg.Counter(telemetry.MetricWorkerScans, wl)
		// tail closes once the worker's last handed-off scan has ended.
		var tail <-chan struct{}
		for i := range idx {
			queueDepth.Add(-1)
			t := &tasks[i]
			// The predecessor was dequeued earlier, so it is sweeping, in
			// its tail or done: the lowest task in flight never waits.
			<-t.after
			// A canceled run drains the remaining tasks without scanning.
			if ctx.Err() != nil {
				close(t.done)
				continue
			}
			t.observe(st, reg)
			begin := time.Now()
			if sc, err := st.sweep(ctx, t, env); err != nil {
				env.end(t, nil, err)
			} else {
				// One tail at a time: the worker holds at most two scans,
				// the one it sweeps and the one before it.
				if tail != nil {
					<-tail
				}
				tail = sc.start()
			}
			busyNS.Add(uint64(time.Since(begin).Nanoseconds()))
			workerScans.Inc()
		}
		if tail != nil {
			<-tail
		}
	}
	// The caller is worker 0, so a one-worker run starts no goroutine here.
	var wg sync.WaitGroup
	for w := 1; w < cfg.parallelism(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(w)
		}(w)
	}
	worker(0)
	wg.Wait()

	// Every completed scan goes into the dataset before the outcome is
	// classified: partial results survive both cancellation and failure.
	var scanErrs []error
	var canceledErr error
	for _, t := range tasks {
		err := t.err
		if t.res != nil {
			err = ds.Put(t.res)
		}
		if err == nil {
			continue
		}
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
		// Canceled after the last scan completed.
		return ds, pipeline.Canceled(ctx.Err())
	}
	// Leave the live IDSes in the state one scan at a time against them
	// would: sub-experiments (SSH retry, multi-probe sweeps) read it. The
	// clones hold disjoint sources, so the merge order is immaterial. Only
	// a fully successful run commits; any other leaves them untouched.
	for i, d := range live {
		d.Reset()
		for _, c := range clones {
			d.MergeStateFrom(c[i])
		}
	}
	return ds, nil
}

// scanKey identifies one (origin, protocol, trial) scan of the study.
type scanKey struct {
	o     origin.ID
	p     proto.Protocol
	trial int
}

// chainTask is one scan of the study's task list, linked into its origin's
// chain: it scans against the origin's IDS clones once after — the previous
// scan of the origin in task order — is closed, and closes done when it
// ends, on success, failure and cancel alike: after its Seal, so the next
// scan of the origin starts against detectors the scan no longer touches.
type chainTask struct {
	scanKey
	idses []*policy.IDS
	after <-chan struct{}
	done  chan struct{}
	// The scan's outcome, set before done closes: the sealed store, or
	// nil and the error.
	res *results.ScanResult
	err error
}

// observe points the origin's IDS clones at this scan's activation and drop
// counters. The chain makes it safe: no other scan uses the clones now.
func (t *chainTask) observe(st *Study, reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	labels := scanLabels(st.World.Family, t.o, t.p, t.trial)
	for _, d := range t.idses {
		d.Metrics = telemetry.NewIDSMetrics(reg, append(labels[:len(labels):len(labels)], telemetry.L("ids", d.RuleName))...)
	}
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
// The study-wide MemBudget is split across the stores that can be live at
// once, so the study's total live column memory stays bounded regardless
// of parallelism; the store clamps the capacity hint by its share.
func (st *Study) newScanResult(k scanKey, hint, stores int) (*results.ScanResult, error) {
	cfg := st.Config
	if cfg.SpillDir == "" {
		return results.NewScanResultSized(k.o, k.p, k.trial, hint), nil
	}
	spill := results.SpillConfig{Dir: cfg.SpillDir}
	if cfg.MemBudget > 0 {
		// A share is never 0, which would mean the default budget.
		spill.Budget = max(cfg.MemBudget/int64(stores), 1)
	}
	return results.NewSpilledScanResult(k.o, k.p, k.trial, hint, spill)
}

// replyHint sizes one scan's result store and the grab stage's slots: only
// hosts reply, so the world's host count bounds both. It is the count, not
// len(Hosts()) — a StreamHosts world retains no host slice.
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

// sweepConfig is the part of a scan's ZMap configuration that (protocol,
// trial) fixes, shared by every origin's scan. All origins share the scan
// seed per (protocol, trial): the paper starts every origin's ZMap with the
// same seed so scanners probe the same addresses at approximately the same
// time.
func (st *Study) sweepConfig(p proto.Protocol, trial int) zmap.Config {
	cfg := st.Config
	return zmap.Config{
		TargetPort:   p.Port(),
		Probes:       cfg.Probes,
		ProbeDelay:   cfg.ProbeDelay,
		SpaceBits:    st.World.SpaceBits,
		Hitlist:      st.hitlist(),
		Seed:         rng.NewKey(st.World.Spec.Seed).Derive("scan-seed").Uint64(uint64(p), uint64(trial)),
		Shard:        cfg.Shard,
		Shards:       cfg.Shards,
		ScanDuration: scenario.ScanDuration,
		Blocklist:    cfg.Blocklist,
	}
}

// ScanOne runs a single origin's ZMap+ZGrab scan of one protocol in one
// trial: the building block of the study. The live IDSes observe the scan's
// probes directly, as they do in sub-experiments. A trial outside
// [0, Config.Trials) is an error tagged pipeline.ErrBadConfig. It runs the
// scan's head and then its tail, as a study's worker does, but waits for
// the tail before it returns.
func (st *Study) ScanOne(ctx context.Context, o origin.ID, p proto.Protocol, trial int) (*results.ScanResult, error) {
	if trial < 0 || trial >= st.Config.Trials {
		return nil, pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf("experiment: trial %d outside the study's %d trials", trial, st.Config.Trials))
	}
	t := &chainTask{scanKey: scanKey{o: o, p: p, trial: trial}, idses: st.Scenario.IDSes, done: make(chan struct{})}
	sc, err := st.sweep(ctx, t, &scanEnv{hooks: st.Config.Hooks, stores: 1})
	if err != nil {
		return nil, err
	}
	<-sc.start()
	return t.res, t.err
}

// scanEnv is what the scans of one Study.Run share; ScanOne's scan runs
// under one of its own.
type scanEnv struct {
	span      *telemetry.Span // the study span, parent of every scan span
	hooks     pipeline.Hooks
	stores    int // result stores live at once: MemBudget's divisor
	scansDone *telemetry.Counter
}

// end records a scan's outcome and closes its chain link.
func (env *scanEnv) end(t *chainTask, res *results.ScanResult, err error) {
	t.res, t.err = res, err
	if !errors.Is(err, pipeline.ErrCanceled) {
		env.scansDone.Inc()
	}
	close(t.done)
}

// serialHooks returns h with its calls made one at a time. A study's scans
// fire hooks from several goroutines — a scan's Grab and Seal on its grab
// stage goroutine beside the next scan's Sweep on the worker, at every
// width — and an observer need not lock for that. The lock is held across
// the caller's hook, which is what it is for, so a hook must not wait for
// another scan's hook.
func serialHooks(h pipeline.Hooks) pipeline.Hooks {
	var mu sync.Mutex
	out := h
	if h.Before != nil {
		out.Before = func(ctx context.Context, s pipeline.Stage) {
			mu.Lock()
			defer mu.Unlock()
			h.Before(ctx, s)
		}
	}
	if h.After != nil {
		out.After = func(ctx context.Context, s pipeline.Stage, err error) {
			mu.Lock()
			defer mu.Unlock()
			h.After(ctx, s, err)
		}
	}
	return out
}

// scanCtxKey keys the scan in the context its stages and hooks receive.
type scanCtxKey struct{}

// ScanOf reports the scan a stage hook fires for: the (origin, protocol,
// trial) of the stage context a scan's hooks receive. ok is false for a
// context no scan stage passed on (world generation, analysis, report).
func ScanOf(ctx context.Context) (o origin.ID, p proto.Protocol, trial int, ok bool) {
	sc, ok := ctx.Value(scanCtxKey{}).(*scan)
	if !ok {
		return 0, 0, 0, false
	}
	return sc.task.o, sc.task.p, sc.task.trial, true
}

// spanUnder starts a child of parent, or a root span when the scan runs
// without a study-level parent (ScanOne, sub-experiments).
func spanUnder(reg *telemetry.Registry, parent *telemetry.Span, name string, labels ...telemetry.Label) *telemetry.Span {
	if parent != nil {
		return parent.StartChild(name, labels...)
	}
	return reg.StartSpan(name, labels...)
}

// testHookTail, when set, runs on a scan's grab stage goroutine once the
// ring has drained, before the scan's Grab stage; tests delay or hold tails
// with it to show their timing does not reach the result.
var testHookTail func(o origin.ID, p proto.Protocol, trial int)

// scan is one scan between its head and its tail: what the Sweep stage
// hands the Grab and Seal stages.
type scan struct {
	st     *Study
	task   *chainTask
	env    *scanEnv
	ctx    context.Context // the stage context, which names the scan (ScanOf)
	span   *telemetry.Span
	fab    *fabric.Fabric
	labels []telemetry.Label
	grab   *grabStage
	stats  zmap.Stats
}

// sweep runs one scan's head against the task's IDSes (the live ones, or
// its origin's clones) on the calling goroutine and returns the scan, for
// start to hand its tail to its grab stage's goroutine. The scan is a
// three-stage pipeline run through a pipeline.Runner, so env.hooks observe
// the transitions, in order, and any interruption reports its stage — but
// the L7 work is not confined to the middle one. Sweep is the L4 walk with
// the grabStage grabbing under it (see grabstage.go), and it is the head.
// The tail runs on the grab stage's goroutine once it has drained the
// slots the walk handed off: Grab grabs the partial last slot and the
// held-back replies, Seal commits the sorted columns. A cancellation is
// reported against the stage whose hook was open when it was observed,
// whatever raised it: a cancel raised from a Handshake while the walk is
// still going is a sweep interruption. A canceled scan ends with no result
// (the partial result is not well-defined mid-stage) and leaves no spill
// file. A grab's handshake is a table read on the goroutine that asked for
// it, with no connection behind it (the first in a process builds the
// table and joins every goroutine it starts), so the only goroutine a scan
// leaves running is the grab stage's one, gone when the tail ends — or,
// when the head fails, before sweep returns.
func (st *Study) sweep(ctx context.Context, t *chainTask, env *scanEnv) (*scan, error) {
	cfg := st.Config
	o, p, trial := t.o, t.p, t.trial
	s := &scan{st: st, task: t, env: env}
	s.ctx = context.WithValue(ctx, scanCtxKey{}, s)
	org := st.originRecord(o)
	// Per-scan telemetry: metric children are resolved once here (and in
	// newGrabStage), labeled by the scan's identity, and the hot paths touch
	// only the pre-resolved atomic counters. With no registry every bundle
	// is nil and the instruments no-op.
	s.labels = scanLabels(st.World.Family, o, p, trial)
	// One scan = one span under the study root; its children are the stage
	// spans and the grab-slot exemplars, the sweep span owns the sweep-batch
	// exemplars. The tail ends it.
	s.span = spanUnder(cfg.Telemetry, env.span, "scan", s.labels...)
	s.fab = fabric.New(&fabric.Config{
		World:      st.World,
		Engine:     st.Scenario.Engine,
		IDSes:      policy.Detectors(t.idses),
		Loss:       st.Scenario.Loss,
		Outages:    st.Scenario.Outages[p],
		Churn:      st.Scenario.Churn,
		NumOrigins: len(cfg.Origins),
		Hosts:      st.Scenario.Hosts,
	}, org, trial)

	zcfg := st.sweepConfig(p, trial)
	zcfg.SourceIPs = org.SourceIPs
	zcfg.Telemetry = telemetry.NewSweepMetrics(cfg.Telemetry, s.labels...)
	sc, err := zmap.NewScanner(zcfg)
	if err != nil {
		err = fmt.Errorf("experiment: %v/%v/trial %d: %w", o, p, trial, err)
		s.span.End(err)
		return nil, err
	}
	var sink zmap.PacketSink = s.fab
	if cfg.SinkWrapper != nil {
		sink = cfg.SinkWrapper(s.fab)
	}

	// The head and the tail each trace their own stages.
	tr := telemetry.NewStageTrace(cfg.Telemetry, s.span, s.labels...)
	runner := pipeline.Runner{Hooks: tr.Hooks(env.hooks)}
	err = runner.Run(s.ctx, pipeline.StageFunc{Stage: pipeline.StageSweep, Run: func(ctx context.Context) error {
		// The stage span receives the sweep's batch exemplars and target
		// totals, and how many slots the walk handed the grab.
		span := tr.Span(pipeline.StageSweep)
		sc.SetTraceSpan(span)
		var err error
		if s.grab, err = st.newGrabStage(ctx, t.scanKey, env.stores, s.fab, s.span, s.labels); err != nil {
			return err
		}
		s.stats, err = sc.Run(ctx, sink, s.grab.offer)
		span.SetAttr("grab_slots", int64(s.grab.handed))
		return err
	}})
	if err != nil {
		// An interrupted or failed scan's partial store is abandoned, once
		// nothing writes to it any more: delete any spilled segments so a
		// canceled study leaks no disk.
		if s.grab != nil {
			s.grab.stop()
			_ = s.grab.res.Discard()
		}
		s.span.End(err)
		return nil, err
	}
	return s, nil
}

// start hands the scan's tail to its grab stage's goroutine and returns a
// channel that closes once the tail has ended the scan (env.end).
func (s *scan) start() <-chan struct{} {
	s.grab.close(s)
	return s.grab.done
}

// tail runs the Grab and Seal stages, once the ring has drained, and ends
// the scan with the sealed store, or with the error and the store
// discarded (spilled segments deleted).
func (s *scan) tail() {
	if testHookTail != nil {
		testHookTail(s.task.o, s.task.p, s.task.trial)
	}
	tr := telemetry.NewStageTrace(s.st.Config.Telemetry, s.span, s.labels...)
	runner := pipeline.Runner{Hooks: tr.Hooks(s.env.hooks)}
	var res *results.ScanResult
	err := runner.Run(s.ctx,
		pipeline.StageFunc{Stage: pipeline.StageGrab, Run: func(context.Context) error {
			var err error
			res, err = s.grab.finish(tr.Span(pipeline.StageGrab))
			return err
		}},
		pipeline.StageFunc{Stage: pipeline.StageSeal, Run: func(context.Context) error {
			// Records were appended slot by slot in hand-off order; Seal
			// commits the sorted columns — one in-memory sort for the fast
			// path, or the keep-last external merge of on-disk segments
			// plus the live run for a spill-backed store (the segments are
			// deleted as the merge consumes them). Either way the stored
			// scan is an immutable sorted view before any analysis touches
			// it.
			res.Targets = s.stats.Targets
			res.ProbesSent = s.stats.ProbesSent
			res.SynAcks = s.stats.SynAcks
			res.Rsts = s.stats.Rsts
			res.Invalid = s.stats.Invalid
			if err := res.SealErr(); err != nil {
				return err
			}
			s.st.observeSeal(res, tr.Span(pipeline.StageSeal), s.fab.ConnsOpened(), s.labels)
			return nil
		}},
	)
	s.span.End(err)
	if err != nil {
		// The ring is drained and closed: nothing writes to the store.
		_ = s.grab.res.Discard()
		res = nil
	}
	s.env.end(s.task, res, err)
}

// observeSeal records a sealed scan's store statistics on its seal span and
// metric bundles. Span attributes are no-ops on the nil span of an untraced
// run.
func (st *Study) observeSeal(res *results.ScanResult, span *telemetry.Span, connsOpened uint64, labels []telemetry.Label) {
	reg := st.Config.Telemetry
	rows, deduped := res.SealStats()
	if sealM := telemetry.NewSealMetrics(reg, labels...); sealM != nil {
		sealM.Rows.Add(uint64(rows))
		sealM.Deduped.Add(uint64(deduped))
	}
	span.SetAttr("rows", int64(rows))
	span.SetAttr("deduped", int64(deduped))
	if st.Config.SpillDir != "" {
		sst := res.SpillStats()
		if spillM := telemetry.NewSpillMetrics(reg, labels...); spillM != nil {
			spillM.Segments.Add(uint64(sst.Segments))
			spillM.Bytes.Add(uint64(sst.SpilledBytes))
			spillM.FanIn.Set(int64(sst.MergeFanIn))
			spillM.Passes.Set(int64(sst.MergePasses))
			spillM.Merge.ObserveDuration(sst.MergeDuration)
			spillM.Flush.ObserveDuration(sst.FlushDuration)
		}
		span.SetAttr("spill_segments", int64(sst.Segments))
		span.SetAttr("spill_bytes", sst.SpilledBytes)
		span.SetAttr("merge_fanin", int64(sst.MergeFanIn))
		span.SetAttr("merge_passes", int64(sst.MergePasses))
		span.SetAttr("merge_ns", sst.MergeDuration.Nanoseconds())
		span.SetAttr("flush_ns", sst.FlushDuration.Nanoseconds())
	}
	// The fabric's served-connection total lands on the seal span: the
	// routed/unrouted split lives on the sweep span, the L7 connection
	// volume here.
	span.SetAttr("conns_opened", int64(connsOpened))
}
