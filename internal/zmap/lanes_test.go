package zmap

import (
	"slices"
	"testing"

	"repro/internal/ip"
	"repro/internal/rng"
)

// walked is one drained walk: the in-space values and their walk element
// indices (nil from an entry point that does not report them).
type walked struct{ vals, elems []uint64 }

// serialWalk is the oracle: repeated NextIndexed (Next is a thin call into
// it) until exhaustion.
func serialWalk(it *Iterator) walked {
	var w walked
	for {
		a, e, ok := it.NextIndexed()
		if !ok {
			return w
		}
		w.vals = append(w.vals, uint64(a))
		w.elems = append(w.elems, e)
	}
}

// drain calls next with a size-long buffer until it returns 0.
func drain[V uint32 | uint64](size int, indexed bool, next func(vals []V, elems []uint64) int) walked {
	var w walked
	vals, elems := make([]V, size), make([]uint64, size)
	for {
		n := next(vals, elems)
		if n == 0 {
			return w
		}
		for _, v := range vals[:n] {
			w.vals = append(w.vals, uint64(v))
		}
		if indexed {
			w.elems = append(w.elems, elems[:n]...)
		}
	}
}

// batchEntryPoints is every public batch method over the lane walker, each
// drained with one buffer size and reported as full-width values.
var batchEntryPoints = []struct {
	name  string
	drain func(pm *Permutation, size int) walked
}{
	{"NextBatch", func(pm *Permutation, size int) walked {
		it := pm.Iterate()
		return drain(size, false, func(v []uint32, _ []uint64) int { return it.NextBatch(v) })
	}},
	{"NextBatch64", func(pm *Permutation, size int) walked {
		it := pm.Iterate()
		return drain(size, false, func(v []uint64, _ []uint64) int { return it.NextBatch64(v) })
	}},
	{"NextIndexedBatch", func(pm *Permutation, size int) walked {
		it := pm.Iterate()
		return drain(size, true, it.NextIndexedBatch)
	}},
	{"NextIndexedBatch64", func(pm *Permutation, size int) walked {
		it := pm.Iterate()
		return drain(size, true, it.NextIndexedBatch64)
	}},
	{"HitlistIterator.NextBatch", func(pm *Permutation, size int) walked {
		return drainHitlist(pm, size, false)
	}},
	{"HitlistIterator.NextIndexedBatch", func(pm *Permutation, size int) walked {
		return drainHitlist(pm, size, true)
	}},
}

// drainHitlist walks the identity list — entry i is address i — so a wrong
// list index, or a destination that is not the entry its index names, shows
// as a wrong value.
func drainHitlist(pm *Permutation, size int, indexed bool) walked {
	list := make([]ip.Addr, pm.Space())
	for i := range list {
		list[i] = ip.AddrFrom4(uint32(i))
	}
	hit := pm.IterateHitlist(list)
	dsts, idxs, elems := make([]ip.Addr, size), make([]uint64, size), make([]uint64, size)
	var w walked
	for {
		var n int
		if indexed {
			n = hit.NextIndexedBatch(dsts, idxs, elems)
			w.elems = append(w.elems, elems[:n]...)
		} else {
			n = hit.NextBatch(dsts, idxs)
		}
		if n == 0 {
			return w
		}
		for i, d := range dsts[:n] {
			v := uint64(d.V4())
			if v != idxs[i] {
				v = ^uint64(0)
			}
			w.vals = append(w.vals, v)
		}
	}
}

// TestPermutationTinySpaces pins the fix for one- and two-entry hitlists:
// a space of 2 used to panic in the generator search (p = 3) and a space of
// 1 emitted nothing; spaces 1–4 each emit every value exactly once.
func TestPermutationTinySpaces(t *testing.T) {
	for n := uint64(1); n <= 4; n++ {
		pm, err := NewPermutationN(rng.NewKey(11), n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := serialWalk(pm.Iterate()).vals
		slices.Sort(got)
		if want := []uint64{0, 1, 2, 3}[:n]; !slices.Equal(got, want) {
			t.Errorf("space %d walks %v, want %v", n, got, want)
		}
	}
}

// laneSpaces are walk spaces chosen for how they meet the four-lane rounds:
// 3–8 are a round or two long; 5, 7, 8, 1024, 4096 and 16384 have
// p − 1 ≡ 2 (mod 4), so the walk cannot end on a round boundary; 7, 8, 14,
// 24, 1000, 8192 and 16384 have out-of-space values, between them in every
// lane (checked below); 13000 (p = 13001) has none; and 8192–16384 are
// several 4096-buffers long. With seven shards the small ones give shards
// shorter than one round.
var laneSpaces = []uint64{3, 4, 5, 7, 8, 14, 24, 1000, 1024, 4096, 8192, 13000, 16384}

// TestNextBatchLanesMatchNext pins the lane-interleaved batch walker to the
// scalar walk it replaced: every batch entry point, at every buffer size
// around the round and sweep-batch boundaries, for every shard of several
// shard counts, must emit exactly the values — and, indexed, exactly the
// element indices — repeated NextIndexed emits, including the final partial
// batch.
func TestNextBatchLanesMatchNext(t *testing.T) {
	key := rng.NewKey(11)
	var skipLanes [4]bool
	modTwo := false
	for _, space := range laneSpaces {
		for _, shards := range []int{1, 2, 3, 7} {
			for shard := 0; shard < shards; shard++ {
				pm, err := NewPermutationN(key, space, shard, shards)
				if err != nil {
					t.Fatal(err)
				}
				if shards == 1 {
					modTwo = modTwo || (pm.p-1)%4 != 0
					for _, e := range pm.SkipIndices() {
						skipLanes[e%4] = true
					}
				}
				want := serialWalk(pm.Iterate())
				for _, size := range []int{1, 2, 3, 4, 5, 7, 4095, 4096, 4097} {
					for _, ep := range batchEntryPoints {
						got := ep.drain(pm, size)
						if !slices.Equal(got.vals, want.vals) {
							t.Fatalf("space %d shard %d/%d buffer %d: %s values differ from repeated Next\n got %v\nwant %v",
								space, shard, shards, size, ep.name, head(got.vals), head(want.vals))
						}
						if got.elems != nil && !slices.Equal(got.elems, want.elems) {
							t.Fatalf("space %d shard %d/%d buffer %d: %s element indices differ from repeated NextIndexed\n got %v\nwant %v",
								space, shard, shards, size, ep.name, head(got.elems), head(want.elems))
						}
					}
				}
			}
		}
	}
	if skipLanes != [4]bool{true, true, true, true} {
		t.Errorf("out-of-space elements fell in lanes %v only; pick spaces covering all four", skipLanes)
	}
	if !modTwo {
		t.Error("no space with p − 1 ≢ 0 (mod 4)")
	}
}

func head(v []uint64) []uint64 {
	if len(v) > 24 {
		return v[:24]
	}
	return v
}

// TestNextBatchLanesResumeAnywhere interrupts a short walk after every
// prefix length — so the lane rounds start at every alignment relative to
// the walk's out-of-space elements and to its end — then mixes batch calls
// with scalar Next calls; the state a batch call leaves must be exactly the
// scalar walk's.
func TestNextBatchLanesResumeAnywhere(t *testing.T) {
	for _, space := range []uint64{7, 24, 1000} {
		pm, err := NewPermutationN(rng.NewKey(11), space, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := serialWalk(pm.Iterate())
		for prefix := 0; prefix <= len(want.vals); prefix++ {
			it := pm.Iterate()
			var got walked
			take := func(size int) int {
				vals, elems := make([]uint32, size), make([]uint64, size)
				n := it.NextIndexedBatch(vals, elems)
				for _, v := range vals[:n] {
					got.vals = append(got.vals, uint64(v))
				}
				got.elems = append(got.elems, elems[:n]...)
				return n
			}
			if n := take(prefix); n != prefix {
				t.Fatalf("space %d: prefix batch of %d returned %d", space, prefix, n)
			}
			// One scalar step between the batches, then the rest.
			if a, e, ok := it.NextIndexed(); ok {
				got.vals, got.elems = append(got.vals, uint64(a)), append(got.elems, e)
			}
			for take(sweepBatch) > 0 {
			}
			if !slices.Equal(got.vals, want.vals) || !slices.Equal(got.elems, want.elems) {
				t.Fatalf("space %d: walk resumed after a %d-prefix differs from repeated NextIndexed", space, prefix)
			}
		}
	}
}

// TestNextBatchLanesGeometricIdentity checks the emitted stream against the
// identity the lanes rest on, and that Mazel & Strullu use to recover a
// scanner's position from its traffic: the walk is a geometric sequence, so
// elements k apart satisfy x_{i+k} ≡ x_i·g^k (mod p) — here with g^shards as
// the ratio, i the walk element index the indexed batch reports, and the
// emitted value x − 1.
func TestNextBatchLanesGeometricIdentity(t *testing.T) {
	for _, shards := range []int{1, 3} {
		pm, err := NewPermutationN(rng.NewKey(11), 16384, shards-1, shards)
		if err != nil {
			t.Fatal(err)
		}
		w := batchEntryPoints[3].drain(pm, sweepBatch) // NextIndexedBatch64
		if len(w.vals) <= 4097 {
			t.Fatalf("walk emitted %d values: too short for the strides below", len(w.vals))
		}
		for _, k := range []int{1, 2, 3, 4, 5, 7, 64, 4095, 4096, 4097} {
			for i := 0; i+k < len(w.vals); i++ {
				ratio := mulmodPow(pm.step, w.elems[i+k]-w.elems[i], pm.p)
				if got, want := w.vals[i+k]+1, mulmod(w.vals[i]+1, ratio, pm.p); got != want {
					t.Fatalf("shards %d: x[%d] = %d, want x[%d]·g^%d = %d (mod %d)",
						shards, w.elems[i+k], got, w.elems[i], w.elems[i+k]-w.elems[i], want, pm.p)
				}
			}
		}
	}
}
