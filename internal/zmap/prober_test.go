package zmap_test

// The sweep over the typed probe path (a sink with zmap.BatchProber: the
// fabric) against the sweep over the byte path (the same fabric with the
// capability hidden, so every probe is a real packet through Send). An
// external test package: the fabric sits above zmap.

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/world"
	"repro/internal/zmap"
)

// countingSink forwards everything to the fabric and counts which L4 path
// the sweep took: Sends, ProbeBatch calls, and the targets those left Held.
type countingSink struct {
	*fabric.Fabric
	sends, batches, held atomic.Int64
}

func (c *countingSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	c.sends.Add(1)
	return c.Fabric.Send(src, pkt, t)
}

func (c *countingSink) ProbeBatch(srcs []ip.Addr, port uint16, probes int, delay time.Duration, dsts []ip.Addr, ts []time.Duration, synAcks, rsts []uint8) {
	c.batches.Add(1)
	c.Fabric.ProbeBatch(srcs, port, probes, delay, dsts, ts, synAcks, rsts)
	n := 0
	for i, m := range synAcks {
		if m == zmap.Held && rsts[i] == zmap.Held {
			n++
		}
	}
	c.held.Add(int64(n))
}

// TestRunBatchProberMatchesPacketSink runs Scanner.Run over the fabric and
// over the fabric behind struct{ zmap.PacketSink; zmap.BatchRoutability },
// which hides the capability: identical Stats and an identical reply
// sequence, for a v4 space sweep with a blocklist (from single-IP US1) and a
// v6 hitlist scan (from US64's 64 source IPs), three probes 30 s apart. Both
// sides count into detectors of their own (a clone of each IDS per side).
// The typed side runs at GOMAXPROCS 1 (one call per batch) and 2, where the
// v4 sweep must split: more calls than the batches the unsplit run made. At
// both widths the v4 sweep's detector-watched targets come back Held and the
// sweep goroutine decides each through Send, one per probe, and nothing
// else is sent. So the kernel's own split, and its in-order pass over the
// held targets, answer as the packet path does.
func TestRunBatchProberMatchesPacketSink(t *testing.T) {
	ctx := context.Background()
	w4, err := world.Build(ctx, world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	w6, err := world.BuildV6(ctx, world.TestV6Spec(3))
	if err != nil {
		t.Fatal(err)
	}
	block := ip.NewSet()
	block.Add(ip.MakePrefix(w4.Hosts()[0].Addr, 22).Canonical())
	for _, tc := range []struct {
		name string
		w    *world.World
		cfg  zmap.Config
	}{
		{"v4-space-blocklist", w4, zmap.Config{SpaceBits: w4.SpaceBits, Blocklist: block}},
		{"v6-hitlist", w6, zmap.Config{Hitlist: w6.Hitlist()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := scenario.New(tc.w, scenario.Config{Trials: 2})
			org := tc.w.Origins.Get(origin.US64)
			if tc.name == "v4-space-blocklist" {
				org = tc.w.Origins.Get(origin.US1) // single-IP: crosses the IDS thresholds
			}
			p := proto.SSH
			cfg := tc.cfg
			cfg.SourceIPs, cfg.TargetPort = org.SourceIPs, p.Port()
			cfg.Probes, cfg.ProbeDelay = 3, 30*time.Second
			cfg.Seed, cfg.ScanDuration = 77, scenario.ScanDuration
			newSink := func() *countingSink {
				var dets []policy.Detector
				for _, ids := range sc.IDSes {
					dets = append(dets, ids.CloneEmpty())
				}
				return &countingSink{Fabric: fabric.New(&fabric.Config{
					World: tc.w, Engine: sc.Engine, IDSes: dets, Loss: sc.Loss,
					Outages: sc.Outages[p], Churn: sc.Churn, NumOrigins: 7, Hosts: sc.Hosts,
				}, org, 1)}
			}
			run := func(sink zmap.PacketSink) (zmap.Stats, []zmap.Reply) {
				s, err := zmap.NewScanner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var replies []zmap.Reply
				st, err := s.Run(ctx, sink, func(r zmap.Reply) { replies = append(replies, r) })
				if err != nil {
					t.Fatal(err)
				}
				return st, replies
			}
			hidden := newSink()
			stB, repB := run(struct {
				zmap.PacketSink
				zmap.BatchRoutability
			}{hidden, hidden})
			if hidden.batches.Load() != 0 || hidden.sends.Load() == 0 {
				t.Fatalf("the capability-hiding sink saw %d ProbeBatch calls and %d Sends", hidden.batches.Load(), hidden.sends.Load())
			}
			var unsplit int64
			for _, procs := range []int{1, 2} {
				typed := newSink()
				prev := runtime.GOMAXPROCS(procs)
				stT, repT := run(typed)
				runtime.GOMAXPROCS(prev)
				calls, sends, held := typed.batches.Load(), typed.sends.Load(), typed.held.Load()
				t.Logf("GOMAXPROCS %d: %d ProbeBatch calls, %d targets held, %d Sends", procs, calls, held, sends)
				if calls == 0 || sends != held*int64(cfg.Probes) {
					t.Fatalf("GOMAXPROCS %d: %d ProbeBatch calls left %d targets held, decided by %d Sends: want %d Sends, one per probe of each held target",
						procs, calls, held, sends, held*int64(cfg.Probes))
				}
				switch {
				case tc.name != "v4-space-blocklist":
				case held == 0:
					t.Fatalf("GOMAXPROCS %d: no target held: the held pass never ran", procs)
				case procs == 1:
					unsplit = calls
				case calls <= unsplit:
					t.Fatalf("GOMAXPROCS 2: %d ProbeBatch calls over %d batches: the split never ran", calls, unsplit)
				}
				if stT != stB {
					t.Fatalf("GOMAXPROCS %d: stats over the typed path %+v, over packets %+v", procs, stT, stB)
				}
				if stT.SynAcks == 0 || stT.Rsts == 0 || stT.Duplicates == 0 || stT.ProbesSent <= 3*uint64(len(repT)) {
					t.Fatalf("vacuous comparison: %+v", stT)
				}
				if len(repT) != len(repB) {
					t.Fatalf("GOMAXPROCS %d: %d replies over the typed path, %d over packets", procs, len(repT), len(repB))
				}
				for i := range repT {
					if repT[i] != repB[i] {
						t.Fatalf("GOMAXPROCS %d: reply %d over the typed path %+v, over packets %+v", procs, i, repT[i], repB[i])
					}
				}
			}
		})
	}
}

// TestRunAllocsIndependentOfBatches holds the sweep over the fabric to a
// per-scan allocation count: a 2^15 space (eight batches) may allocate no
// more than a 2^12 one (one batch) beyond a small constant, at GOMAXPROCS 1 (one
// goroutine) and 2 (each large batch split with the helper goroutine). The
// fabric and its detectors are warmed by a sweep of the world's whole space
// first, so plan compilation and detector state are not counted.
func TestRunAllocsIndependentOfBatches(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool sheds entries under the race detector: the fabric's queries allocate")
	}
	ctx := context.Background()
	w, err := world.Build(ctx, world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	const small, large = 12, 15
	if w.SpaceBits < large {
		t.Fatalf("world space 2^%d: the 2^%d sweep would walk dark space", w.SpaceBits, large)
	}
	sc := scenario.New(w, scenario.Config{Trials: 1})
	org := w.Origins.Get(origin.US1)
	p := proto.SSH
	var dets []policy.Detector
	for _, ids := range sc.IDSes {
		dets = append(dets, ids.CloneEmpty())
	}
	sink := &countingSink{Fabric: fabric.New(&fabric.Config{
		World: w, Engine: sc.Engine, IDSes: dets, Loss: sc.Loss,
		Outages: sc.Outages[p], Churn: sc.Churn, NumOrigins: 7, Hosts: sc.Hosts,
	}, org, 0)}
	replies := 0
	handler := func(zmap.Reply) { replies++ }
	run := func(bits uint8) (mallocs, calls int64) {
		s, err := zmap.NewScanner(zmap.Config{
			SourceIPs: org.SourceIPs, TargetPort: p.Port(), Probes: 2,
			SpaceBits: bits, Seed: 5, ScanDuration: scenario.ScanDuration,
		})
		if err != nil {
			t.Fatal(err)
		}
		before := sink.batches.Load()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		n := ms.Mallocs
		if _, err := s.Run(ctx, sink, handler); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return int64(ms.Mallocs - n), sink.batches.Load() - before
	}
	// The fewest mallocs over a few runs: a collection during a run empties
	// the fabric's query pool, and a GOMAXPROCS change allocates the new
	// Ps, neither of which is the sweep's.
	leastMallocs := func(bits uint8) (least, calls int64) {
		least = math.MaxInt64
		for range 5 {
			m, c := run(bits)
			least, calls = min(least, m), c
		}
		return least, calls
	}
	run(w.SpaceBits)
	var calls [3]int64
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		few, _ := leastMallocs(small)
		many, c := leastMallocs(large)
		runtime.GOMAXPROCS(prev)
		calls[procs] = c
		t.Logf("GOMAXPROCS %d: %d mallocs over 2^%d targets, %d over 2^%d (%d ProbeBatch calls)", procs, few, small, many, large, c)
		if many > few+3 {
			t.Errorf("GOMAXPROCS %d: a 2^%d sweep allocates %d times, a 2^%d sweep %d: allocation grows with the batches",
				procs, large, many, small, few)
		}
	}
	if calls[2] <= calls[1] {
		t.Errorf("%d ProbeBatch calls at GOMAXPROCS 2, %d at 1: the split never ran", calls[2], calls[1])
	}
	if replies == 0 {
		t.Fatal("no target answered: the sweeps probed nothing")
	}
}

// TestSecondRunReusesKernel holds a scan's fixed scratch to one allocation
// per process, not one per scan: once a Run has warmed the fabric, a second
// Run of the same scanner over the same sink allocates less than 16 KiB,
// where a fresh sweep kernel alone is ~175 KiB. The 2^18 sweep (at
// GOMAXPROCS ≥ 2) starts a walker, whose ring slots' candidate arrays
// outlive the kernel's reset too.
func TestSecondRunReusesKernel(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	w, err := world.Build(ctx, world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.New(w, scenario.Config{Trials: 1})
	org := w.Origins.Get(origin.US1)
	p := proto.HTTP
	fab := fabric.New(&fabric.Config{
		World: w, Engine: sc.Engine, IDSes: policy.Detectors(sc.IDSes), Loss: sc.Loss,
		Outages: sc.Outages[p], Churn: sc.Churn, NumOrigins: 7, Hosts: sc.Hosts,
	}, org, 0)
	for _, tc := range []struct {
		name      string
		spaceBits uint8
		procs     int // the least GOMAXPROCS the case runs at
	}{
		{"12 bits", 12, 1},
		{"walker, 18 bits", 18, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if procs := runtime.GOMAXPROCS(0); procs < tc.procs {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			s, err := zmap.NewScanner(zmap.Config{
				SourceIPs: org.SourceIPs, TargetPort: p.Port(), Probes: 2,
				SpaceBits: tc.spaceBits, Seed: 5, ScanDuration: scenario.ScanDuration,
			})
			if err != nil {
				t.Fatal(err)
			}
			replies := 0
			handler := func(zmap.Reply) { replies++ }
			if _, err := s.Run(ctx, fab, handler); err != nil {
				t.Fatal(err)
			}
			// The least over a few runs, each after two collections: a
			// sync.Pool is empty after two, and the kernel free list must
			// not be. (A collection during a run can still empty the
			// sync.Pools the fabric draws on, which is not the sweep's doing.)
			least := uint64(math.MaxUint64)
			for range 5 {
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				if _, err := s.Run(ctx, fab, handler); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				least = min(least, ms.TotalAlloc-before)
			}
			t.Logf("a second Run allocates %d B", least)
			if least >= 16<<10 {
				t.Errorf("a second Run allocates %d B, want < 16 KiB: the sweep kernel is not recycled", least)
			}
			if replies == 0 {
				t.Fatal("no target answered: the runs probed nothing")
			}
		})
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
