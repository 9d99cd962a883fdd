package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// tailHold is the state of holdTails: how many walks have ended, of how
// many the study runs.
type tailHold struct {
	ended atomic.Int64
	total int64
}

// sweepEnded is called from the Sweep stage's After hook.
func (h *tailHold) sweepEnded() { h.ended.Add(1) }

// holdTails sets testHookTail for the test's duration: each tail waits until
// a walk has ended after it began — at one worker, the next scan's — or
// every walk of the study's total has, or 50 ms have passed (at more
// workers a tail may be all the walks in flight wait for). The caller calls
// sweepEnded from its Sweep After hook.
func holdTails(t *testing.T, total int) *tailHold {
	h := &tailHold{total: int64(total)}
	testHookTail = func(origin.ID, proto.Protocol, int) {
		seen := h.ended.Load()
		deadline := time.Now().Add(50 * time.Millisecond)
		for h.ended.Load() == seen && seen < h.total && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	t.Cleanup(func() { testHookTail = nil })
	return h
}

// delayTails sets testHookTail for the test's duration: each tail sleeps
// up to 2 ms, an amount the seed and the scan fix.
func delayTails(t *testing.T, seed uint64) {
	testHookTail = func(o origin.ID, p proto.Protocol, trial int) {
		r := rand.New(rand.NewPCG(seed, uint64(o)<<16|uint64(p)<<8|uint64(trial)))
		time.Sleep(time.Duration(r.IntN(2000)) * time.Microsecond)
	}
	t.Cleanup(func() { testHookTail = nil })
}

// TestTailTimingDoesNotChangeResult runs the equivalence study at one
// worker and at eight, with tails as they come, each delayed by a seeded
// amount, and each held until the next walk ends: every run must seal the
// same dataset as the plain one-worker run, leave the live IDSes in the
// same state and count the same IDS activations and drops. When a scan
// drains and seals against the next scan's sweep is invisible in the
// result.
func TestTailTimingDoesNotChangeResult(t *testing.T) {
	type run struct {
		st *Study
		ds *results.Dataset
	}
	study := func(t *testing.T, par int, mode string) run {
		cfg := equivalenceConfig(par)
		cfg.Telemetry = telemetry.New()
		var hold *tailHold
		switch mode {
		case "delay":
			delayTails(t, 44)
		case "hold":
			hold = holdTails(t, equivalenceTasks)
			cfg.Hooks.After = func(_ context.Context, s pipeline.Stage, _ error) {
				if s == pipeline.StageSweep {
					hold.sweepEnded()
				}
			}
		}
		st, err := NewStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return run{st, ds}
	}
	ref := study(t, 1, "asis")
	if ref.ds.Len() != equivalenceTasks {
		t.Fatalf("reference run sealed %d scans, want %d", ref.ds.Len(), equivalenceTasks)
	}
	blocked := blockedStates(ref.st)
	if len(blocked) == 0 {
		t.Fatal("no IDS blocked any source: the end-state comparison is vacuous")
	}
	for _, par := range []int{1, 8} {
		for _, mode := range []string{"asis", "delay", "hold"} {
			if par == 1 && mode == "asis" {
				continue
			}
			t.Run(fmt.Sprintf("parallelism-%d/%s", par, mode), func(t *testing.T) {
				got := study(t, par, mode)
				if diff := ref.ds.Diff(got.ds); diff != "" {
					t.Errorf("dataset differs from the one-worker run: %s", diff)
				}
				if b := blockedStates(got.st); fmt.Sprint(b) != fmt.Sprint(blocked) {
					t.Errorf("IDSes block %v, want %v", b, blocked)
				}
				for _, m := range []string{telemetry.MetricIDSActivations, telemetry.MetricIDSDrops} {
					if w, g := ref.st.Config.Telemetry.CounterSum(m), got.st.Config.Telemetry.CounterSum(m); w == 0 || g != w {
						t.Errorf("%s = %d, want %d (non-zero)", m, g, w)
					}
				}
			})
		}
	}
}

// blockedStates lists every (IDS, source, trial) the live IDSes block after
// a run, in a fixed order.
func blockedStates(st *Study) []string {
	var out []string
	for _, d := range st.Scenario.IDSes {
		for _, o := range st.World.Origins.All() {
			for _, src := range o.SourceIPs {
				for trial := 0; trial < st.Config.Trials; trial++ {
					if d.BlockedState(src, trial) {
						out = append(out, fmt.Sprintf("%s/%v/%d", d.RuleName, src, trial))
					}
				}
			}
		}
	}
	return out
}

// TestCancelWithTailInFlight cancels a spill-backed one-worker study from
// inside a scan's tail, once the next scan has started sweeping: the run
// must report a canceled Grab of that scan, keep exactly the scans before
// it — each the scan a complete run seals — and leave no goroutine and no
// segment file behind, although the interrupted tail's store had spilled.
func TestCancelWithTailInFlight(t *testing.T) {
	const interrupted = 3 // the tail the cancel is raised in, counting from 1
	base := Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 2,
		Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 1,
		MemBudget:   spillStudyBudget(t),
	}
	full := base
	full.SpillDir = t.TempDir()
	refSt, err := NewStudy(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := base
	cfg.SpillDir = t.TempDir()
	var started atomic.Int64
	cfg.Hooks.Before = func(_ context.Context, s pipeline.Stage) {
		if s == pipeline.StageSweep {
			started.Add(1)
		}
	}
	st, err := NewStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tails, filesAtCancel, nextStarted := 0, -1, false
	testHookTail = func(origin.ID, proto.Protocol, int) {
		if tails++; tails != interrupted {
			return
		}
		// The next scan starts sweeping while this tail is held, unless
		// the worker waits for it.
		deadline := time.Now().Add(5 * time.Second)
		for !nextStarted && time.Now().Before(deadline) {
			runtime.Gosched()
			nextStarted = started.Load() > interrupted
		}
		filesAtCancel = countSpillFiles(t, cfg.SpillDir)
		cancel()
	}
	t.Cleanup(func() { testHookTail = nil })
	ds, err := st.Run(ctx)
	if !nextStarted {
		t.Error("the next scan did not start sweeping while the tail before it was held")
	}
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var serr *pipeline.ScanError
	if !errors.As(err, &serr) {
		t.Fatalf("err %v carries no ScanError", err)
	}
	if stage, _ := pipeline.InterruptedStage(err); stage != pipeline.StageGrab || serr.Origin != origin.US1 || serr.Proto != proto.SSH || serr.Trial != 0 {
		t.Errorf("interrupted %v/%v/trial %d in %v, want the third scan, US1/ssh/trial 0, in grab", serr.Origin, serr.Proto, serr.Trial, stage)
	}
	if filesAtCancel <= 0 {
		t.Errorf("%d segment files on disk at the cancel: the interrupted tail had nothing to discard", filesAtCancel)
	}
	if ds.Len() != interrupted-1 {
		t.Errorf("partial dataset holds %d scans, want the %d before the interrupted one", ds.Len(), interrupted-1)
	}
	for _, k := range []scanKey{{origin.US1, proto.HTTP, 0}, {origin.CEN, proto.HTTP, 0}} {
		got := ds.Scan(k.o, k.p, k.trial)
		if got == nil {
			t.Errorf("%v/%v/trial %d is missing from the partial dataset", k.o, k.p, k.trial)
			continue
		}
		if diff := ref.MustScan(k.o, k.p, k.trial).DiffAgainst(got); diff != "" {
			t.Errorf("%v/%v/trial %d differs from the complete run's: %s", k.o, k.p, k.trial, diff)
		}
	}
	if n := countSpillFiles(t, cfg.SpillDir); n != 0 {
		t.Errorf("%d segment files left on disk", n)
	}
	waitNoLeak(t, before, "goroutines after a cancel in a tail")
}

// TestMemBudgetSplitAcrossLiveStores: at one worker a study of four scans
// holds two stores at once — the scan sweeping and the one before it in
// its tail — so each store spills against half the study's MemBudget: its
// spill statistics are those of the same scan run alone (ScanOne, one
// store) under half the budget, and not those under the whole one, which a
// split by Parallelism would give. A study of one scan gives its store the
// whole budget, as bigscan's does.
func TestMemBudgetSplitAcrossLiveStores(t *testing.T) {
	const budget = 16 << 10
	cfg := func(trials int, protos []proto.Protocol, budget int64) Config {
		return Config{
			WorldSpec: world.Spec{Seed: 9, Scale: 0.00005}, Trials: trials,
			Protocols:   protos,
			Origins:     origin.Set{origin.US1},
			Parallelism: 1,
			SpillDir:    t.TempDir(),
			MemBudget:   budget,
		}
	}
	// alone runs the study's scans one by one through ScanOne, in study
	// order against the live IDSes, as the study's one chain runs them.
	alone := func(c Config) map[scanKey]results.SpillStats {
		st, err := NewStudy(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		out := map[scanKey]results.SpillStats{}
		for trial := 0; trial < c.Trials; trial++ {
			for _, p := range c.Protocols {
				res, err := st.ScanOne(context.Background(), origin.US1, p, trial)
				if err != nil {
					t.Fatal(err)
				}
				out[scanKey{origin.US1, p, trial}] = res.SpillStats()
			}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		trials int
		protos []proto.Protocol
		stores int64 // the split under test
		wrong  int64 // a split it must be told from
	}{
		{"four-scans", 2, []proto.Protocol{proto.HTTP, proto.SSH}, 2, 1},
		{"one-scan", 1, []proto.Protocol{proto.HTTP}, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStudy(context.Background(), cfg(tc.trials, tc.protos, budget))
			if err != nil {
				t.Fatal(err)
			}
			ds, err := st.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			share := alone(cfg(tc.trials, tc.protos, budget/tc.stores))
			other := alone(cfg(tc.trials, tc.protos, budget/tc.wrong))
			differs := false
			for k, want := range share {
				got := ds.MustScan(k.o, k.p, k.trial).SpillStats()
				if got.Segments == 0 {
					t.Fatalf("%v/trial %d never spilled: the split is not exercised", k.p, k.trial)
				}
				if got.Segments != want.Segments || got.SpilledBytes != want.SpilledBytes || got.MergeFanIn != want.MergeFanIn {
					t.Errorf("%v/trial %d: %d segments, %d bytes, fan-in %d; alone under budget/%d: %d, %d, %d",
						k.p, k.trial, got.Segments, got.SpilledBytes, got.MergeFanIn, tc.stores, want.Segments, want.SpilledBytes, want.MergeFanIn)
				}
				differs = differs || other[k].Segments != want.Segments
			}
			if !differs {
				t.Errorf("budget/%d spills the same: the comparison cannot tell the split", tc.wrong)
			}
		})
	}
	// A one-byte budget over two stores still spills every store: a share
	// never rounds down to 0, which would mean the default budget.
	t.Run("one-byte", func(t *testing.T) {
		c := cfg(1, []proto.Protocol{proto.HTTP, proto.SSH}, 1)
		c.WorldSpec.Scale = 0.00001
		st, err := NewStudy(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Protocols {
			if ds.MustScan(origin.US1, p, 0).SpillStats().Segments == 0 {
				t.Errorf("%v never spilled under a one-byte budget", p)
			}
		}
	})
}
