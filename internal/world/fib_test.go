package world

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/rng"
)

// TestFIBDifferentialFullSpace is the FIB's correctness proof: for every
// address in the scan space, the flat index must agree with longest-prefix
// match over the announcements it was built from (AS and country) and with
// the host list. The fast path is always on, so any disagreement here would
// silently change scan results.
func TestFIBDifferentialFullSpace(t *testing.T) {
	for _, seed := range []uint64{3, 7, 2020} {
		w := buildTest(t, seed)
		if err := w.FIB().Validate(w); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestFIBDifferentialLargeSpaceSampled spot-checks a bigger world (too
// large to sweep exhaustively in a unit test) at deterministically sampled
// addresses: uniform random positions plus every host address and the
// boundaries of every announced prefix, where block-granularity bugs hide.
func TestFIBDifferentialLargeSpaceSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("large world build")
	}
	w, err := Build(context.Background(), Spec{Seed: 11, Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if w.SpaceBits <= 16 {
		t.Fatalf("SpaceBits = %d, want a larger space than the exhaustive test covers", w.SpaceBits)
	}
	f := w.FIB()
	check := func(a ip.Addr) {
		t.Helper()
		if err := f.ValidateAddr(w, a); err != nil {
			t.Fatal(err)
		}
	}
	stream := rng.NewKey(99).Derive("fib-sample").Stream(0, 0)
	for i := 0; i < 200000; i++ {
		check(ip.AddrFrom4(uint32(stream.Uint64() & (w.SpaceSize() - 1))))
	}
	for _, h := range w.Hosts() {
		check(h.Addr)
	}
	for _, as := range w.Routes.All() {
		for _, pfx := range as.Prefixes {
			check(pfx.First())
			check(pfx.Last())
			check(pfx.First().Sub(1)) // the unrouted (or neighbouring) edge
			check(pfx.Last().Add(1))
		}
	}
}

// TestFIBRoutedMatchesResolve pins the cheap Routed accessor to the full
// Resolve path.
func TestFIBRoutedMatchesResolve(t *testing.T) {
	w := buildTest(t, 5)
	f := w.FIB()
	for a := uint64(0); a < w.SpaceSize(); a++ {
		addr := ip.AddrFrom4(uint32(a))
		if got, want := f.Routed(addr), f.Resolve(addr).Routed; got != want {
			t.Fatalf("Routed(%v) = %v, Resolve.Routed = %v", addr, got, want)
		}
	}
	// Outside the space: never routed, zero Dest.
	outside := ip.AddrFrom4(uint32(w.SpaceSize() + 12345))
	if f.Routed(outside) {
		t.Error("address outside the space reported routed")
	}
	if d := f.Resolve(outside); d != (Dest{}) {
		t.Errorf("Resolve outside the space = %+v, want zero", d)
	}
}

// TestChurnOfflineNilReceiver pins the documented contract that a nil
// *Churn means "no churn": the fabric calls Offline unconditionally on the
// probe hot path, so a nil receiver must answer false, not panic.
func TestChurnOfflineNilReceiver(t *testing.T) {
	var c *Churn
	for trial := 0; trial < 3; trial++ {
		if c.Offline(ip.MustParseAddr("10.0.0.1"), trial) {
			t.Fatalf("nil churn reported a host offline in trial %d", trial)
		}
	}
	// And a zero-rate model behaves the same as nil.
	zero := NewChurn(rng.NewKey(1), 0, 3)
	if zero.Offline(ip.MustParseAddr("10.0.0.1"), 1) {
		t.Error("zero-rate churn reported a host offline")
	}
}

// TestRoutedBatchMatchesRouted pins RoutedBatch — directory bit first, no
// state carried between addresses — to the per-address Routed answer for
// answer: over every address of a space forced well past the allocation (so
// most directory words are dark and some blocks are mixed), every prefix
// boundary ± 1, addresses past the end of the directory, and both families'
// addresses against both families' worlds. The batch is handed over in
// scattered order, as the sweep hands it, and the output starts as the
// complement of the truth so an entry the loop failed to write shows.
func TestRoutedBatchMatchesRouted(t *testing.T) {
	spec := TestSpec(7) // an odd number of painted /24s: the last one's directory-bit neighbour is dark
	spec.SpaceBits = 18
	w, err := Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.FIB().mixed) == 0 {
		t.Fatal("test world has no mixed /24: the per-address overflow path is not exercised")
	}
	var addrs []ip.Addr
	for a := uint64(0); a < w.SpaceSize(); a++ {
		addrs = append(addrs, ip.AddrFrom4(uint32(a)))
	}
	for _, as := range w.Routes.All() {
		for _, pfx := range as.Prefixes {
			for _, edge := range []ip.Addr{pfx.First(), pfx.Last()} {
				addrs = append(addrs, edge.Sub(1), edge, edge.Add(1))
			}
		}
	}
	for _, beyond := range []uint64{0, 1, 255, 256, 1 << 14, w.SpaceSize() + 12345} {
		addrs = append(addrs, ip.AddrFrom4(uint32(w.SpaceSize()+beyond)))
	}
	addrs = append(addrs, ip.AddrFrom4(^uint32(0)), ip.Addr{}, ip.AddrFrom128(0x20010db8<<32, 1))
	w6 := buildV6(t, TestV6Spec(5))
	addrs = append(addrs, w6.Hitlist()...)

	stream := rng.NewKey(3).Derive("routed-batch-order").Stream(0)
	for i := len(addrs) - 1; i > 0; i-- {
		j := stream.Uint64n(uint64(i + 1))
		addrs[i], addrs[j] = addrs[j], addrs[i]
	}
	for name, f := range map[string]*FIB{"v4 world": w.FIB(), "v6 world": w6.FIB()} {
		routed := make([]bool, len(addrs))
		for i, a := range addrs {
			routed[i] = !f.Routed(a)
		}
		f.RoutedBatch(addrs, routed)
		sawRouted := false
		for i, a := range addrs {
			if want := f.Routed(a); routed[i] != want {
				t.Fatalf("%s: RoutedBatch[%d] (%v) = %v, Routed = %v", name, i, a, routed[i], want)
			}
			sawRouted = sawRouted || routed[i]
		}
		if !sawRouted {
			t.Errorf("%s: no address routed; the painted path is not exercised", name)
		}
	}
}

// TestRoutedBlocksCoverRouted pins the contract the sweep's directory
// prefilter stands on (zmap.BlockRoutability): a clear bit, or a word past
// the end, means the whole /24 is unrouted. For every address of the three
// differential seeds' spaces, and past their ends, Routed implies the
// address's /24 bit; and every set bit is a painted block. A v6 FIB's
// directory is empty — a space sweep over it would find nothing — and every
// v6 host must still be Routed: the hitlist scan never tests its targets
// against the directory (the zmap kernel differential's dir/empty sink over
// a v6 hitlist holds the scan side of this).
func TestRoutedBlocksCoverRouted(t *testing.T) {
	bit := func(dir []uint64, a uint32) bool {
		b := a >> 8
		return int(b/64) < len(dir) && dir[b/64]&(1<<(b%64)) != 0
	}
	for _, seed := range []uint64{3, 7, 2020} {
		w := buildTest(t, seed)
		f := w.FIB()
		dir := f.RoutedBlocks()
		routed := 0
		for a := uint64(0); a < w.SpaceSize()+1024; a++ {
			if f.Routed(ip.AddrFrom4(uint32(a))) {
				routed++
				if !bit(dir, uint32(a)) {
					t.Fatalf("seed %d: %v is routed but its /24 bit is clear", seed, ip.AddrFrom4(uint32(a)))
				}
			}
		}
		painted := 0
		for _, wd := range dir {
			painted += bits.OnesCount64(wd)
		}
		if painted != f.NumBlocks() || routed == 0 {
			t.Errorf("seed %d: %d directory bits for %d painted blocks, %d routed addresses", seed, painted, f.NumBlocks(), routed)
		}
	}

	w6 := buildV6(t, TestV6Spec(5))
	f6 := w6.FIB()
	if n := len(f6.RoutedBlocks()); n != 0 {
		t.Errorf("v6 FIB directory has %d words, want none", n)
	}
	for _, h := range w6.Hosts() {
		if !f6.Routed(h.Addr) {
			t.Fatalf("v6 host %v is not routed", h.Addr)
		}
	}
}

// BenchmarkResolve6 prices the v6 resolve path on the bench hitlist
// workload's world (64 providers × 8 islands × 24 hosts): the whole hitlist —
// live hosts, stale entries beside them and the unrouted tail — resolved in
// hitlist order through ResolveBatch, in the sweep's batch size.
func BenchmarkResolve6(b *testing.B) {
	w, err := BuildV6(context.Background(), V6Spec{Seed: 5, Providers: 64, IslandsPerProvider: 8, HostsPerIsland: 24})
	if err != nil {
		b.Fatal(err)
	}
	f, hl := w.FIB(), w.Hitlist()
	const batch = 256
	out := make([]Dest, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(hl); lo += batch {
			chunk := hl[lo:min(lo+batch, len(hl))]
			f.ResolveBatch(chunk, out[:len(chunk)])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hl)), "ns/addr")
}

// TestMemFootprintCountsEveryArray holds MemFootprint to the backing arrays
// of every slice field of the FIB, found by reflection — element size times
// capacity — for an IPv4 and an IPv6 FIB, so a field added without being
// counted, or a miscounted element, fails here.
func TestMemFootprintCountsEveryArray(t *testing.T) {
	for _, w := range []*World{buildTest(t, 5), buildV6(t, TestV6Spec(3))} {
		v := reflect.ValueOf(w.FIB()).Elem()
		var want uint64
		for i := 0; i < v.NumField(); i++ {
			if fv := v.Field(i); fv.Kind() == reflect.Slice {
				want += uint64(fv.Type().Elem().Size()) * uint64(fv.Cap())
			}
		}
		if got := w.FIB().MemFootprint(); got != want || got == 0 {
			t.Errorf("%v FIB: MemFootprint %d B, slice backing arrays %d B", w.Family, got, want)
		}
	}
}

// TestFIBFineBlocks builds a FIB by hand over /24s painted by prefixes
// longer than /24: one filled by two same-AS, same-country /25s (collapses
// to a uniform block), then two mixed ones (an unrouted half; three ASes
// and a country-less quarter), then a coarse /23. The mixed blocks must be
// compacted past the uniform one to the front of FIB.mixed, in block order,
// and every address of the space must match the radix tables and the host
// list.
func TestFIBFineBlocks(t *testing.T) {
	w := handBuiltV4(t, []handPrefix{
		{1, "0.0.0.0/25", "US"}, {1, "0.0.0.128/25", "US"},
		{2, "0.0.1.0/25", "DE"},
		{3, "0.0.2.0/26", "US"}, {1, "0.0.2.64/26", "US"}, {2, "0.0.2.128/25", ""},
		{4, "0.0.4.0/23", "GB"},
	})
	hosts := []string{"0.0.0.5", "0.0.0.200", "0.0.1.0", "0.0.1.127", "0.0.2.63", "0.0.2.64", "0.0.2.255", "0.0.4.1", "0.0.5.255"}
	f, err := buildFIB(w, len(hosts))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		a := ip.MustParseAddr(h)
		f.placeHost(a.V4(), proto.Mask(1+i%7))
		w.addHost(a, proto.Mask(1+i%7))
	}
	w.fib = f
	if err := f.Validate(w); err != nil {
		t.Fatal(err)
	}
	if blk := &f.blocks[f.blockIndex(0)]; blk.asIdx == fibMixed {
		t.Error("a /24 filled by one AS and country stayed mixed")
	}
	if len(f.mixed) != 2*256 || cap(f.mixed) != len(f.mixed) {
		t.Fatalf("FIB.mixed len %d cap %d, want both %d", len(f.mixed), cap(f.mixed), 2*256)
	}
	for k, b := range []uint64{1, 2} {
		if blk := &f.blocks[f.blockIndex(b)]; blk.asIdx != fibMixed || blk.mixedOff != int32(k*256) {
			t.Errorf("block %d: asIdx %d mixedOff %d, want mixed at %d", b, blk.asIdx, blk.mixedOff, k*256)
		}
	}
}

// handBuiltV4 registers explicit announcements in a world of SpaceBits 12
// with no FIB yet; the prefixes of one AS keep their listed order.
func handBuiltV4(t *testing.T, prefixes []handPrefix) *World {
	t.Helper()
	w := &World{
		Countries: geo.NewRegistry(geo.DefaultCountries()),
		Routes:    asn.NewTable(),
		SpaceBits: 12,
	}
	for _, hp := range prefixes {
		a, ok := w.Routes.Get(hp.as)
		if !ok {
			a = &asn.AS{Number: hp.as}
			if err := w.Routes.Register(a); err != nil {
				t.Fatal(err)
			}
		}
		a.Announce(ip.MustParsePrefix(hp.prefix), hp.country)
	}
	return w
}

// TestBuildFIBRefusesOverlap holds buildFIB to its disjointness guard: an
// address painted twice fails the build with ErrWorldGen, whichever AS
// comes first, for each way two announcements can meet: a /24-or-shorter
// prefix over another, a prefix longer than /24 over another, and a
// /24-or-shorter prefix over a /24 that longer prefixes share. Only the
// first address of a prefix in another announcement was caught before.
func TestBuildFIBRefusesOverlap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prefixes []handPrefix
	}{
		{"coarse over coarse", []handPrefix{{1, "0.0.0.0/23", "US"}, {2, "0.0.1.0/24", "US"}}},
		{"coarse within coarse", []handPrefix{{1, "0.0.1.0/24", "US"}, {2, "0.0.0.0/22", "DE"}}},
		{"one AS twice", []handPrefix{{1, "0.0.2.0/24", "US"}, {1, "0.0.2.0/24", "US"}}},
		{"fine over fine", []handPrefix{{1, "0.0.0.0/25", "US"}, {2, "0.0.0.96/27", "US"}}},
		{"fine over fine, tail", []handPrefix{{1, "0.0.0.64/26", ""}, {2, "0.0.0.0/25", "US"}}},
		{"coarse over fine", []handPrefix{{1, "0.0.0.0/24", "US"}, {2, "0.0.0.128/25", "US"}}},
		{"fine under coarse", []handPrefix{{1, "0.0.1.128/25", "US"}, {2, "0.0.0.0/23", "US"}}},
	} {
		w := handBuiltV4(t, tc.prefixes)
		if _, err := buildFIB(w, 0); !errors.Is(err, pipeline.ErrWorldGen) {
			t.Errorf("%s: buildFIB err = %v, want ErrWorldGen", tc.name, err)
		}
	}
}
