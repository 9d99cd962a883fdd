package zmap_test

// The sweep over the typed probe path (a sink with zmap.BatchProber: the
// fabric) against the sweep over the byte path (the same fabric with the
// capability hidden, so every probe is a real packet through Send). An
// external test package: the fabric sits above zmap.

import (
	"context"
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
// the sweep took.
type countingSink struct {
	*fabric.Fabric
	sends, batches atomic.Int64
}

func (c *countingSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	c.sends.Add(1)
	return c.Fabric.Send(src, pkt, t)
}

func (c *countingSink) ProbeBatch(srcs []ip.Addr, port uint16, probes int, delay time.Duration, dsts []ip.Addr, ts []time.Duration, synAcks, rsts []uint8) {
	c.batches.Add(1)
	c.Fabric.ProbeBatch(srcs, port, probes, delay, dsts, ts, synAcks, rsts)
}

// TestRunBatchProberMatchesPacketSink runs Scanner.Run over the fabric and
// over the fabric behind struct{ zmap.PacketSink; zmap.BatchRoutability },
// which hides the capability: identical Stats and an identical reply
// sequence, for a v4 space sweep with a blocklist (from single-IP US1) and a
// v6 hitlist scan (from US64's 64 source IPs), three probes 30 s apart. Both
// sides count into detectors of their own (a clone of each IDS per side).
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
			typed, hidden := newSink(), newSink()
			stT, repT := run(typed)
			stB, repB := run(struct {
				zmap.PacketSink
				zmap.BatchRoutability
			}{hidden, hidden})
			if typed.sends.Load() != 0 || typed.batches.Load() == 0 {
				t.Fatalf("the fabric was swept with %d Sends and %d ProbeBatch calls: the kernel did not take the typed path",
					typed.sends.Load(), typed.batches.Load())
			}
			if hidden.batches.Load() != 0 || hidden.sends.Load() == 0 {
				t.Fatalf("the capability-hiding sink saw %d ProbeBatch calls and %d Sends", hidden.batches.Load(), hidden.sends.Load())
			}
			if stT != stB {
				t.Fatalf("stats over the typed path %+v, over packets %+v", stT, stB)
			}
			if stT.SynAcks == 0 || stT.Rsts == 0 || stT.Duplicates == 0 || stT.ProbesSent <= 3*uint64(len(repT)) {
				t.Fatalf("vacuous comparison: %+v", stT)
			}
			if len(repT) != len(repB) {
				t.Fatalf("%d replies over the typed path, %d over packets", len(repT), len(repB))
			}
			for i := range repT {
				if repT[i] != repB[i] {
					t.Fatalf("reply %d over the typed path %+v, over packets %+v", i, repT[i], repB[i])
				}
			}
		})
	}
}
