package world

import (
	"context"
	"os"
	"testing"

	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
)

// TestStreamingFullScaleAudit builds a streaming-mode world and audits the
// placement counters the streaming path relies on — with no retained host
// slice, these counters and the FIB are the only record of what was placed,
// so they must be provably consistent with each other and with the spec's
// analytic targets. The same body runs at two scales: Scale 0.01 (≈0.6M
// hosts, a second or two) on every `go test`, and the paper-scale world
// (Scale 1.0, ≈58M HTTP hosts, ≈2 minutes and a few GiB) only when
// WORLD_AUDIT_FULLSCALE is set, which `make audit-fullscale` does — it was
// 110 s of tier-1's wall time for assertions that do not depend on the
// scale. Never under the race detector (single-goroutine build, no extra
// coverage, ~10× slower).
func TestStreamingFullScaleAudit(t *testing.T) {
	if raceEnabled {
		t.Skip("streaming world audit under the race detector")
	}
	t.Run("scale-0.01", func(t *testing.T) { auditStreamingWorld(t, 0.01) })
	t.Run("scale-1.0", func(t *testing.T) {
		if os.Getenv("WORLD_AUDIT_FULLSCALE") == "" {
			t.Skip("full-scale world build: set WORLD_AUDIT_FULLSCALE=1 (make audit-fullscale)")
		}
		auditStreamingWorld(t, 1.0)
	})
}

func auditStreamingWorld(t *testing.T, scale float64) {
	spec := Spec{Seed: 2020, Scale: scale, StreamHosts: true}
	w, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Hosts() != nil {
		t.Fatal("streaming build retained a host slice")
	}

	// Host counters vs the analytic targets: placement apportions each
	// protocol's paper-reported total across profile shares and generic
	// ASes, so per-protocol counts must land within rounding slack of
	// Scale × paper totals.
	httpT, httpsT, sshT := spec.Targets()
	for _, tc := range []struct {
		p      proto.Protocol
		target int
	}{{proto.HTTP, httpT}, {proto.HTTPS, httpsT}, {proto.SSH, sshT}} {
		got := w.HostCount(tc.p)
		lo, hi := tc.target*99/100, tc.target*101/100
		if got < lo || got > hi {
			t.Errorf("%v host count %d outside ±1%% of target %d", tc.p, got, tc.target)
		}
	}
	// Machines are fewer than service instances (SSH co-locates on web
	// hosts) but at least the largest single-protocol population.
	if n := w.NumHosts(); n < httpT || n > httpT+httpsT+sshT {
		t.Errorf("NumHosts %d outside [%d, %d]", n, httpT, httpT+httpsT+sshT)
	}

	// AS placement counters: the per-AS machine counts (what ASWeights
	// answers from, and what burst-outage sampling weights by) must sum to
	// exactly the machine total — a streaming build has no host index to
	// recount from, so a drifting counter would silently skew analyses.
	nums, weights := w.ASWeights()
	if len(nums) != w.Routes.Len() {
		t.Fatalf("ASWeights covers %d ASes, table has %d", len(nums), w.Routes.Len())
	}
	var sum uint64
	for _, wt := range weights {
		sum += wt
	}
	if sum != uint64(w.NumHosts()) {
		t.Errorf("Σ per-AS machine counts = %d, NumHosts = %d", sum, w.NumHosts())
	}

	// FIB block count: the directory must paint exactly the distinct /24s
	// the announced prefixes touch — recomputed here from the prefix lists
	// the FIB was built from.
	painted := make(map[uint64]struct{})
	for _, a := range w.Routes.All() {
		for _, pfx := range a.Prefixes {
			for b := uint64(pfx.Base.V4()) >> 8; b <= uint64(pfx.Last().V4())>>8; b++ {
				painted[b] = struct{}{}
			}
		}
	}
	if got := w.FIB().NumBlocks(); got != len(painted) {
		t.Errorf("FIB paints %d blocks, prefixes touch %d distinct /24s", got, len(painted))
	}

	// Sampled FIB validation: the full-space walk Validate does is too slow
	// at this scale, so spot-check a pseudorandom sample plus the space
	// edges against the radix reference structures.
	stream := rng.NewKey(spec.Seed).Derive("audit-sample").Stream(0)
	for i := 0; i < 1<<16; i++ {
		addr := ip.AddrFrom4(uint32(stream.Uint64() % w.SpaceSize()))
		if err := w.FIB().ValidateAddr(w, addr); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []ip.Addr{ip.AddrFrom4(0), ip.AddrFrom4(uint32(w.SpaceSize() - 1))} {
		if err := w.FIB().ValidateAddr(w, a); err != nil {
			t.Fatal(err)
		}
	}

	// Footprint sanity: the FIB must stay within the same order as the
	// DESIGN budget (≤2 GiB for full IPv4) — a regression that starts
	// retaining per-address state for uniform blocks would blow far past
	// this.
	if fp := w.FIB().MemFootprint(); fp == 0 || fp > 2<<30 {
		t.Errorf("FIB footprint %d bytes outside (0, 2 GiB]", fp)
	}
}
