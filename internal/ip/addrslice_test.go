package ip

import (
	"math/rand"
	"sort"
	"testing"
)

// a4 is shorthand for the low-valued IPv4 addresses the small-set tests use.
func a4(v uint32) Addr { return AddrFrom4(v) }

// randAddr128 draws an address from a mixed dual-stack pool: small v4
// values (which collide often, exercising the merge cursors) and v6
// addresses from a handful of /64s whose hi/lo words force true 128-bit
// comparisons (equal hi, differing lo, and vice versa).
func randAddr128(rng *rand.Rand, space int) Addr {
	switch rng.Intn(3) {
	case 0:
		return AddrFrom4(uint32(rng.Intn(space)))
	case 1:
		// Same hi word, small lo: ordering decided by lo alone.
		return AddrFrom128(0x20010db8_0000_0001, uint64(rng.Intn(space)))
	default:
		// Varying hi word, constant lo: ordering decided by hi alone.
		return AddrFrom128(0x20010db8_0000_0000+uint64(rng.Intn(space)), 42)
	}
}

func randSetFrom(rng *rand.Rand, n int, draw func() Addr) (AddrSlice, map[Addr]bool) {
	m := map[Addr]bool{}
	for i := 0; i < n; i++ {
		m[draw()] = true
	}
	s := make(AddrSlice, 0, len(m))
	for a := range m {
		s = append(s, a)
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
	return s, m
}

func TestAddrSliceSearchContains(t *testing.T) {
	s := AddrSlice{a4(2), a4(5), a4(9), a4(40)}
	for i, a := range s {
		if got := s.Search(a); got != i {
			t.Errorf("Search(%v) = %d, want %d", a, got, i)
		}
		if !s.Contains(a) {
			t.Errorf("Contains(%v) = false", a)
		}
	}
	if got := s.Search(a4(6)); got != 2 {
		t.Errorf("Search(6) = %d, want 2", got)
	}
	if got := s.Search(a4(100)); got != len(s) {
		t.Errorf("Search(100) = %d, want %d", got, len(s))
	}
	if s.Contains(a4(3)) {
		t.Error("Contains(3) = true")
	}
}

func TestIsSorted(t *testing.T) {
	for _, tc := range []struct {
		s    AddrSlice
		want bool
	}{
		{nil, true},
		{AddrSlice{a4(1)}, true},
		{AddrSlice{a4(1), a4(2), a4(3)}, true},
		{AddrSlice{a4(1), a4(1)}, false}, // duplicates violate strict order
		{AddrSlice{a4(2), a4(1)}, false},
		// v4 sorts before v6; the reverse order is unsorted.
		{AddrSlice{a4(0xffffffff), AddrFrom128(0x2001, 0)}, true},
		{AddrSlice{AddrFrom128(0x2001, 0), a4(0)}, false},
		// 128-bit ordering: hi word dominates lo word.
		{AddrSlice{AddrFrom128(1, ^uint64(0)), AddrFrom128(2, 0)}, true},
		{AddrSlice{AddrFrom128(2, 0), AddrFrom128(1, ^uint64(0))}, false},
	} {
		if got := tc.s.IsSorted(); got != tc.want {
			t.Errorf("IsSorted(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

// checkAlgebra cross-checks Union, Intersect, IntersectAll, and Diff
// against hash-set reference implementations on random inputs drawn by
// draw.
func checkAlgebra(t *testing.T, rng *rand.Rand, draw func() Addr) {
	t.Helper()
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		lists := make([]AddrSlice, k)
		sets := make([]map[Addr]bool, k)
		for i := range lists {
			lists[i], sets[i] = randSetFrom(rng, rng.Intn(40), draw)
		}

		wantUnion := map[Addr]bool{}
		for _, m := range sets {
			for a := range m {
				wantUnion[a] = true
			}
		}
		checkSet(t, "Union", Union(lists...), wantUnion)

		wantInter := map[Addr]bool{}
		for a := range sets[0] {
			all := true
			for _, m := range sets[1:] {
				if !m[a] {
					all = false
					break
				}
			}
			if all {
				wantInter[a] = true
			}
		}
		checkSet(t, "IntersectAll", IntersectAll(lists...), wantInter)

		if k >= 2 {
			wantPair := map[Addr]bool{}
			wantDiff := map[Addr]bool{}
			for a := range sets[0] {
				if sets[1][a] {
					wantPair[a] = true
				} else {
					wantDiff[a] = true
				}
			}
			checkSet(t, "Intersect", lists[0].Intersect(lists[1]), wantPair)
			checkSet(t, "Diff", lists[0].Diff(lists[1]), wantDiff)
		}

		// Search/Contains agree with the reference membership for both
		// present and randomly drawn (mostly absent) addresses.
		for a := range sets[0] {
			if !lists[0].Contains(a) {
				t.Fatalf("Contains(%v) = false for present element", a)
			}
		}
		for i := 0; i < 10; i++ {
			a := draw()
			if got := lists[0].Contains(a); got != sets[0][a] {
				t.Fatalf("Contains(%v) = %v, want %v", a, got, sets[0][a])
			}
		}
	}
}

// TestSetAlgebraMatchesMaps checks the merge algebra over IPv4 addresses.
func TestSetAlgebraMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkAlgebra(t, rng, func() Addr { return AddrFrom4(uint32(rng.Intn(64))) })
}

// TestSetAlgebraMatchesMaps128 re-runs the differential check over mixed
// dual-stack inputs: the merge algebra must order and deduplicate by the
// full 128-bit comparator, not a truncated word.
func TestSetAlgebraMatchesMaps128(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checkAlgebra(t, rng, func() Addr { return randAddr128(rng, 24) })
}

func checkSet(t *testing.T, op string, got AddrSlice, want map[Addr]bool) {
	t.Helper()
	if !got.IsSorted() {
		t.Fatalf("%s: result not strictly sorted: %v", op, got)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", op, len(got), len(want))
	}
	for _, a := range got {
		if !want[a] {
			t.Fatalf("%s: unexpected element %v", op, a)
		}
	}
}

// TestUnionMaxAddr guards the k-way merge's found-flag against the largest
// addresses of both families: a sentinel-based merge would loop on or drop
// them.
func TestUnionMaxAddr(t *testing.T) {
	max4 := AddrFrom4(1<<32 - 1)
	got := Union(AddrSlice{a4(1), max4}, AddrSlice{max4})
	if len(got) != 2 || got[0] != a4(1) || got[1] != max4 {
		t.Fatalf("Union with max v4 address = %v", got)
	}
	max6 := AddrFrom128(^uint64(0), ^uint64(0))
	got = Union(AddrSlice{max4, max6}, AddrSlice{max6})
	if len(got) != 2 || got[0] != max4 || got[1] != max6 {
		t.Fatalf("Union with max v6 address = %v", got)
	}
}

func TestIntersectAllEmpty(t *testing.T) {
	if got := IntersectAll(); got != nil {
		t.Errorf("IntersectAll() = %v, want nil", got)
	}
	if got := IntersectAll(AddrSlice{a4(1), a4(2)}, nil, AddrSlice{a4(2)}); len(got) != 0 {
		t.Errorf("IntersectAll with empty list = %v, want empty", got)
	}
}

// FuzzIsSorted fuzzes the sortedness check against a reference
// re-implementation over raw 128-bit words, seeding the corpus with the
// family boundary and both word-order edge cases.
func FuzzIsSorted(f *testing.F) {
	f.Add(uint64(0), uint64(0xffff00000001), uint64(0), uint64(0xffff00000002)) // v4 pair, sorted
	f.Add(uint64(0), uint64(0xffffffffffff), uint64(0x2001), uint64(0))         // v4 then v6
	f.Add(uint64(2), uint64(0), uint64(1), uint64(^uint64(0)))                  // hi word reversed
	f.Add(uint64(1), uint64(1), uint64(1), uint64(1))                           // duplicate
	f.Fuzz(func(t *testing.T, hi1, lo1, hi2, lo2 uint64) {
		s := AddrSlice{AddrFrom128(hi1, lo1), AddrFrom128(hi2, lo2)}
		want := hi1 < hi2 || (hi1 == hi2 && lo1 < lo2)
		if got := s.IsSorted(); got != want {
			t.Errorf("IsSorted(%v) = %v, want %v", s, got, want)
		}
	})
}
