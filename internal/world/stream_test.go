package world

// Tests for the full-IPv4-scale build features: batch FIB evaluation,
// forced scan-space sizing, and the streaming (no retained host slice)
// build mode. The streaming differential is the load-bearing one — the FIB
// is the only host record a streaming build keeps, so it must be
// bit-identical to the one a retained build produces.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ip"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// TestFIBResolveBatchMatchesResolve pins the batch resolver, including its
// last-block cache, to the per-address path: sequential runs (cache hits),
// pseudorandom sweeps (cache misses), and out-of-space addresses.
func TestFIBResolveBatchMatchesResolve(t *testing.T) {
	w := buildTest(t, 5)
	f := w.FIB()
	var addrs []ip.Addr
	// Sequential span crossing many /24s: exercises the cache-hit path.
	for a := uint64(0); a < w.SpaceSize() && a < 1<<14; a++ {
		addrs = append(addrs, ip.AddrFrom4(uint32(a)))
	}
	// Pseudorandom addresses, some outside the space.
	stream := rng.NewKey(7).Derive("batch-sample").Stream(0)
	for i := 0; i < 1<<14; i++ {
		addrs = append(addrs, ip.AddrFrom4(uint32(stream.Uint64()&(2*w.SpaceSize()-1))))
	}
	out := make([]Dest, len(addrs))
	f.ResolveBatch(addrs, out)
	routed := make([]bool, len(addrs))
	f.RoutedBatch(addrs, routed)
	for i, a := range addrs {
		want := f.Resolve(a)
		if out[i] != want {
			t.Fatalf("ResolveBatch[%d] (%v) = %+v, Resolve = %+v", i, a, out[i], want)
		}
		if routed[i] != want.Routed {
			t.Fatalf("RoutedBatch[%d] (%v) = %v, Resolve.Routed = %v", i, a, routed[i], want.Routed)
		}
	}
}

// TestWorldForcedSpaceBits checks Spec.SpaceBits both ways: a forced space
// larger than the allocation is honored exactly (with everything above the
// allocation unrouted), and one too small to cover the allocation fails
// with a config error instead of silently truncating the world.
func TestWorldForcedSpaceBits(t *testing.T) {
	spec := TestSpec(3)
	base, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	forced := spec
	forced.SpaceBits = base.SpaceBits + 4
	w, err := Build(context.Background(), forced)
	if err != nil {
		t.Fatal(err)
	}
	if w.SpaceBits != base.SpaceBits+4 {
		t.Fatalf("SpaceBits = %d, want forced %d", w.SpaceBits, base.SpaceBits+4)
	}
	// The annotated space is unchanged; the added space is dark.
	if err := w.FIB().Validate(w); err != nil {
		t.Fatal(err)
	}
	stream := rng.NewKey(9).Derive("dark").Stream(0)
	for i := 0; i < 1000; i++ {
		a := ip.AddrFrom4(uint32(base.SpaceSize() + stream.Uint64()%(w.SpaceSize()-base.SpaceSize())))
		if w.FIB().Routed(a) {
			t.Fatalf("address %v in the forced-dark region reported routed", a)
		}
		if d := w.FIB().Resolve(a); d != (Dest{}) {
			t.Fatalf("Resolve(%v) in the forced-dark region = %+v, want zero", a, d)
		}
	}

	tooSmall := spec
	tooSmall.SpaceBits = base.SpaceBits - 1
	if _, err := Build(context.Background(), tooSmall); !errors.Is(err, pipeline.ErrBadConfig) {
		t.Fatalf("undersized forced space: err = %v, want ErrBadConfig", err)
	}
}

// TestWorldStreamingMatchesRetained is the streaming build's differential:
// with StreamHosts set the build must keep no host slice or per-AS index,
// yet produce a FIB that resolves every address in the space to exactly
// the Dest the retained build's FIB resolves, with identical counters.
func TestWorldStreamingMatchesRetained(t *testing.T) {
	spec := TestSpec(11)
	retained, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sspec := spec
	sspec.StreamHosts = true
	streaming, err := Build(context.Background(), sspec)
	if err != nil {
		t.Fatal(err)
	}

	if streaming.Hosts() != nil {
		t.Error("streaming build retained a host slice")
	}
	if streaming.NumHosts() != retained.NumHosts() {
		t.Errorf("NumHosts: streaming %d, retained %d", streaming.NumHosts(), retained.NumHosts())
	}
	if streaming.SpaceBits != retained.SpaceBits {
		t.Fatalf("SpaceBits: streaming %d, retained %d", streaming.SpaceBits, retained.SpaceBits)
	}
	for a := uint64(0); a < retained.SpaceSize(); a++ {
		addr := ip.AddrFrom4(uint32(a))
		if got, want := streaming.Resolve(addr), retained.Resolve(addr); got.Routed != want.Routed ||
			got.Country != want.Country || got.Services != want.Services || got.Host != want.Host ||
			(got.AS == nil) != (want.AS == nil) || (got.AS != nil && got.AS.Number != want.AS.Number) {
			t.Fatalf("Resolve(%v): streaming %+v, retained %+v", addr, got, want)
		}
	}

	// Aggregate counters answer identically without the host slice.
	nums1, w1 := retained.ASWeights()
	nums2, w2 := streaming.ASWeights()
	if len(nums1) != len(nums2) {
		t.Fatalf("ASWeights length: %d vs %d", len(nums1), len(nums2))
	}
	for i := range nums1 {
		if nums1[i] != nums2[i] || w1[i] != w2[i] {
			t.Fatalf("ASWeights[%d]: retained (%v, %d), streaming (%v, %d)",
				i, nums1[i], w1[i], nums2[i], w2[i])
		}
	}
}

// TestASWeightsMatchHostIndex pins the placement-time per-AS counters that
// ASWeights now answers from to the host index HostsInAS reads off the
// sorted host slice, and holds that index to the FIB: every index it
// returns, in ascending order, is a host the FIB resolves to that AS.
func TestASWeightsMatchHostIndex(t *testing.T) {
	for _, w := range []*World{buildTest(t, 2020), buildV6(t, TestV6Spec(2020))} {
		nums, weights := w.ASWeights()
		for i, n := range nums {
			idx := w.HostsInAS(n)
			if got := uint64(len(idx)); weights[i] != got {
				t.Errorf("%v AS %v: counter %d, host index %d", w.Family, n, weights[i], got)
			}
			for k, hi := range idx {
				if k > 0 && idx[k-1] >= hi {
					t.Fatalf("%v AS %v: host index not ascending at %d: %d after %d", w.Family, n, k, hi, idx[k-1])
				}
				if d := w.Resolve(w.Hosts()[hi].Addr); !d.Host || d.AS == nil || d.AS.Number != n {
					t.Fatalf("%v AS %v: host %d (%v) resolves to %+v", w.Family, n, hi, w.Hosts()[hi].Addr, d)
				}
			}
		}
	}
}
