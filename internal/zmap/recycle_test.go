package zmap

// Sweep kernels are recycled from scan to scan (kernels). These tests hold
// a scan's result to what it is when the scan runs first, whatever scan's
// kernel it inherits: a field an earlier sweep left behind would show as a
// changed Stats or reply.

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/world"
)

// scanOutcome is everything a scan shows its caller: its Stats and its
// replies, or for a Targets pass the schedule it visited.
type scanOutcome struct {
	st      Stats
	replies []Reply
	visits  []probeAt
}

// recycleKind is one kind of scan: each call runs it from scratch (a new
// scanner and a new sink, detectors counting from zero) and returns what it
// showed.
type recycleKind struct {
	name string
	run  func(t *testing.T) scanOutcome
}

// recycleKinds returns the scans the order-swap test interleaves: the typed
// probe path over a v4 world (split batches at GOMAXPROCS 2, detector-held
// targets); a v4 sweep of 2^18 or more addresses, long enough to start the
// walker; a v6 hitlist scan; the same v4 world through a packet-only sink
// (every probe a Send); and a Targets pass under a blocklist.
func recycleKinds(t *testing.T) []recycleKind {
	ctx := context.Background()
	w4, err := world.Build(ctx, world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	w6, err := world.BuildV6(ctx, world.TestV6Spec(3))
	if err != nil {
		t.Fatal(err)
	}
	sc4 := scenario.New(w4, scenario.Config{Trials: 1})
	sc6 := scenario.New(w6, scenario.Config{Trials: 1})
	p := proto.SSH
	newFabric := func(w *world.World, sc *scenario.Scenario, org *origin.Origin) *fabric.Fabric {
		var dets []policy.Detector
		for _, ids := range sc.IDSes {
			dets = append(dets, ids.CloneEmpty())
		}
		return fabric.New(&fabric.Config{
			World: w, Engine: sc.Engine, IDSes: dets, Loss: sc.Loss,
			Outages: sc.Outages[p], Churn: sc.Churn, NumOrigins: 7, Hosts: sc.Hosts,
		}, org, 0)
	}
	us1, us64 := w4.Origins.Get(origin.US1), w6.Origins.Get(origin.US64)
	config := func(org *origin.Origin) Config {
		return Config{SourceIPs: org.SourceIPs, TargetPort: p.Port(), Probes: 2, ProbeDelay: time.Second,
			Seed: 11, ScanDuration: scenario.ScanDuration}
	}
	scan := func(t *testing.T, cfg Config, sink PacketSink) scanOutcome {
		s, err := NewScanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out scanOutcome
		out.st, err = s.Run(ctx, sink, func(r Reply) { out.replies = append(out.replies, r) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	block := ip.NewSet()
	block.Add(ip.MakePrefix(w4.Hosts()[0].Addr, 22).Canonical())
	return []recycleKind{
		{"typed-v4", func(t *testing.T) scanOutcome {
			cfg := config(us1)
			cfg.SpaceBits, cfg.Blocklist = w4.SpaceBits, block
			return scan(t, cfg, newFabric(w4, sc4, us1))
		}},
		{"walker-v4", func(t *testing.T) scanOutcome {
			cfg := config(us1)
			cfg.SpaceBits = max(w4.SpaceBits, 18)
			windows := countWalks(t, nil)
			out := scan(t, cfg, newFabric(w4, sc4, us1))
			if windows.Load() == 0 {
				t.Fatal("walker-v4: the walker never ran")
			}
			return out
		}},
		{"hitlist-v6", func(t *testing.T) scanOutcome {
			cfg := config(us64)
			cfg.Hitlist = w6.Hitlist()
			return scan(t, cfg, newFabric(w6, sc6, us64))
		}},
		{"packet-only", func(t *testing.T) scanOutcome {
			cfg := config(us1)
			cfg.SpaceBits = min(w4.SpaceBits, 14)
			return scan(t, cfg, struct{ PacketSink }{newFabric(w4, sc4, us1)})
		}},
		{"targets", func(t *testing.T) scanOutcome {
			cfg := config(us1)
			cfg.SpaceBits, cfg.Blocklist = w4.SpaceBits, block
			s, err := NewScanner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out scanOutcome
			if err := s.Targets(ctx, func(dst ip.Addr, at time.Duration) { out.visits = append(out.visits, probeAt{dst, at}) }); err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
}

// TestRecycledKernelChangesNoResult runs every ordered pair of recycleKinds
// back to back in one process, A then B and B then A, at GOMAXPROCS 2 (the
// split and the walker run), and holds each scan to the Stats and the reply
// or visit sequence it gave when it ran first. The kernel free list keeps
// what the first scan released, so the second always inherits it.
func TestRecycledKernelChangesNoResult(t *testing.T) {
	withProcs(2, func() {
		kinds := recycleKinds(t)
		ref := make([]scanOutcome, len(kinds))
		for i, k := range kinds {
			ref[i] = k.run(t)
			if o := ref[i]; o.st.SynAcks == 0 && len(o.visits) == 0 {
				t.Fatalf("%s: nothing answered and nothing was visited: the comparison is vacuous", k.name)
			}
		}
		check := func(order string, i int, got scanOutcome) {
			t.Helper()
			want := ref[i]
			if got.st != want.st {
				t.Errorf("%s: %s stats %+v, run first %+v", order, kinds[i].name, got.st, want.st)
			}
			if !slices.Equal(got.replies, want.replies) {
				t.Errorf("%s: %s gave %d replies, run first %d, or in another order", order, kinds[i].name, len(got.replies), len(want.replies))
			}
			if !slices.Equal(got.visits, want.visits) {
				t.Errorf("%s: %s visited %d targets, run first %d, or in another order", order, kinds[i].name, len(got.visits), len(want.visits))
			}
		}
		for a := range kinds {
			for b := range kinds {
				if a == b {
					continue
				}
				order := fmt.Sprintf("%s then %s", kinds[a].name, kinds[b].name)
				check(order, a, kinds[a].run(t))
				check(order, b, kinds[b].run(t))
			}
		}
	})
}
