package world

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// buildCost is what one Build cost the process.
type buildCost struct {
	wall  time.Duration
	alloc uint64 // bytes allocated during Build (TotalAlloc delta)
	live  uint64 // heap the built world holds after a GC
}

// measureBuild builds spec and reports its wall time, the bytes it
// allocated and the live heap it leaves behind. Both heap readings follow a
// GC, so live is the world's own retained size.
func measureBuild(t *testing.T, spec Spec) (*World, buildCost) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	w, err := Build(context.Background(), spec)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	return w, buildCost{
		wall:  wall,
		alloc: after.TotalAlloc - before.TotalAlloc,
		live:  after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc),
	}
}

// TestStreamingFullScaleAudit builds a streaming-mode world and audits the
// placement counters the streaming path relies on — with no retained host
// slice, these counters and the FIB are the only record of what was placed,
// so they must be provably consistent with each other and with the spec's
// analytic targets. The same body runs at two scales: Scale 0.01 (≈0.6M
// hosts, a second or two) on every `go test`, and the paper-scale world
// (Scale 1.0, 68.6M machines) only when WORLD_AUDIT_FULLSCALE is set, which
// `make audit-fullscale` does: on a 2-core Xeon with GOMEMLIMIT unset that
// build takes ≈ 10 s, allocates 2.0 GiB and peaks at 1.9 GiB RSS for a
// 1.7 GiB live heap, and the whole test ≈ 15 s. Each scale logs its build cost (wall time, bytes
// allocated, live heap, FIB footprint, peak RSS) and world digest. Never
// under the race detector (single-goroutine build, no extra coverage, ~10×
// slower).
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
	w, cost := measureBuild(t, spec)
	rss, _ := telemetry.PeakRSSBytes()
	const mib = 1 << 20
	t.Logf("Scale %g: %d machines; build %.1f s, %.0f MiB allocated, %.0f MiB live after GC, FIB %.0f MiB, process peak RSS %.0f MiB; digest %s",
		scale, w.NumHosts(), cost.wall.Seconds(), float64(cost.alloc)/mib, float64(cost.live)/mib,
		float64(w.FIB().MemFootprint())/mib, float64(rss)/mib, worldDigest(w))
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

// TestBuildTransient bounds what a build allocates beyond what it keeps: a
// streamed Scale 0.01 build may allocate at most twice the live heap it
// leaves. Placement draws into reused scratch and the FIB paints its fine
// /24s into one slab, so the garbage a build makes is small beside the
// world itself; a per-chunk or append-doubled buffer on the build path
// shows up here first.
func TestBuildTransient(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound under the race detector")
	}
	_, cost := measureBuild(t, Spec{Seed: 2020, Scale: 0.01, StreamHosts: true})
	const mib = 1 << 20
	t.Logf("allocated %.1f MiB, live %.1f MiB (%.2f×)", float64(cost.alloc)/mib, float64(cost.live)/mib, float64(cost.alloc)/float64(cost.live))
	if cost.alloc > 2*cost.live {
		t.Errorf("build allocated %.1f MiB for %.1f MiB live: more than 2×", float64(cost.alloc)/mib, float64(cost.live)/mib)
	}
}
