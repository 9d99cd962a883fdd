package zmap

import (
	"slices"
	"testing"

	"repro/internal/ip"
	"repro/internal/rng"
)

// serialWalk is the oracle: repeated Next until exhaustion.
func serialWalk(it *Iterator) []uint64 {
	var w []uint64
	for {
		a, ok := it.Next()
		if !ok {
			return w
		}
		w = append(w, uint64(a))
	}
}

// drain calls next with a size-long buffer until it returns 0.
func drain[V uint32 | uint64](size int, next func(vals []V) int) []uint64 {
	var w []uint64
	vals := make([]V, size)
	for {
		n := next(vals)
		if n == 0 {
			return w
		}
		for _, v := range vals[:n] {
			w = append(w, uint64(v))
		}
	}
}

// batchEntryPoints is every public batch method over the lane walker, each
// drained with one buffer size and reported as full-width values.
var batchEntryPoints = []struct {
	name  string
	drain func(pm *Permutation, size int) []uint64
}{
	{"NextBatch", func(pm *Permutation, size int) []uint64 {
		return drain(size, pm.Iterate().NextBatch)
	}},
	{"NextBatch64", func(pm *Permutation, size int) []uint64 {
		return drain(size, pm.Iterate().NextBatch64)
	}},
	{"HitlistIterator.NextBatch", drainHitlist},
}

// drainHitlist walks the identity list — entry i is address i — so a wrong
// list index, or a destination that is not the entry its index names, shows
// as a wrong value.
func drainHitlist(pm *Permutation, size int) []uint64 {
	list := make([]ip.Addr, pm.Space())
	for i := range list {
		list[i] = ip.AddrFrom4(uint32(i))
	}
	hit := pm.IterateHitlist(list)
	dsts, idxs := make([]ip.Addr, size), make([]uint64, size)
	var w []uint64
	for {
		n := hit.NextBatch(dsts, idxs)
		if n == 0 {
			return w
		}
		for i, d := range dsts[:n] {
			v := uint64(d.V4())
			if v != idxs[i] {
				v = ^uint64(0)
			}
			w = append(w, v)
		}
	}
}

// skipLanes reports which of the four lanes the walk's out-of-space
// elements fall in, walking the group element by element.
func skipLanes(pm *Permutation) (lanes [4]bool) {
	x := pm.first
	for e := uint64(0); e < pm.shardLen; e++ {
		if x-1 >= pm.space {
			lanes[e%4] = true
		}
		x = mulmod(x, pm.step, pm.p)
	}
	return lanes
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
		got := serialWalk(pm.Iterate())
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
// shard counts, must emit exactly the values repeated Next emits, including
// the final partial batch.
func TestNextBatchLanesMatchNext(t *testing.T) {
	key := rng.NewKey(11)
	var lanes [4]bool
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
					for i, skip := range skipLanes(pm) {
						lanes[i] = lanes[i] || skip
					}
				}
				want := serialWalk(pm.Iterate())
				for _, size := range []int{1, 2, 3, 4, 5, 7, 4095, 4096, 4097} {
					for _, ep := range batchEntryPoints {
						if got := ep.drain(pm, size); !slices.Equal(got, want) {
							t.Fatalf("space %d shard %d/%d buffer %d: %s values differ from repeated Next\n got %v\nwant %v",
								space, shard, shards, size, ep.name, head(got), head(want))
						}
					}
				}
			}
		}
	}
	if lanes != [4]bool{true, true, true, true} {
		t.Errorf("out-of-space elements fell in lanes %v only; pick spaces covering all four", lanes)
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
		for prefix := 0; prefix <= len(want); prefix++ {
			it := pm.Iterate()
			var got []uint64
			take := func(size int) int {
				vals := make([]uint32, size)
				n := it.NextBatch(vals)
				for _, v := range vals[:n] {
					got = append(got, uint64(v))
				}
				return n
			}
			if n := take(prefix); n != prefix {
				t.Fatalf("space %d: prefix batch of %d returned %d", space, prefix, n)
			}
			// One scalar step between the batches, then the rest.
			if a, ok := it.Next(); ok {
				got = append(got, uint64(a))
			}
			for take(sweepBatch) > 0 {
			}
			if !slices.Equal(got, want) {
				t.Fatalf("space %d: walk resumed after a %d-prefix differs from repeated Next", space, prefix)
			}
		}
	}
}

// TestNextBatchLanesGeometricIdentity checks the emitted stream against the
// identity the lanes rest on, and that Mazel & Strullu use to recover a
// scanner's position from its traffic: the walk is a geometric sequence, so
// elements k apart satisfy x_{i+k} ≡ x_i·g^k (mod p) — here with g^shards as
// the ratio and the emitted value x − 1. The space is 13000 (p = 13001): no
// element maps outside it, so the i-th value emitted is walk element i.
func TestNextBatchLanesGeometricIdentity(t *testing.T) {
	for _, shards := range []int{1, 3} {
		pm, err := NewPermutationN(rng.NewKey(11), 13000, shards-1, shards)
		if err != nil {
			t.Fatal(err)
		}
		if pm.p-1 != pm.space {
			t.Fatalf("modulus %d: the walk has out-of-space elements", pm.p)
		}
		w := batchEntryPoints[1].drain(pm, sweepBatch) // NextBatch64
		if len(w) <= 4097 {
			t.Fatalf("walk emitted %d values: too short for the strides below", len(w))
		}
		for _, k := range []int{1, 2, 3, 4, 5, 7, 64, 4095, 4096, 4097} {
			ratio := mulmodPow(pm.step, uint64(k), pm.p)
			for i := 0; i+k < len(w); i++ {
				if got, want := w[i+k]+1, mulmod(w[i]+1, ratio, pm.p); got != want {
					t.Fatalf("shards %d: x[%d] = %d, want x[%d]·g^%d = %d (mod %d)",
						shards, i+k, got, i, k, want, pm.p)
				}
			}
		}
	}
}

// sieveRun is what a space sweep's walk keeps, over a whole shard: the
// candidates with their 1-based scan positions, and the targets (positions
// the lists admit) and Blocked counts.
type sieveRun struct {
	dsts             []ip.Addr
	pos              []uint64
	targets, blocked int
}

func (r *sieveRun) equal(o *sieveRun) bool {
	return slices.Equal(r.dsts, o.dsts) && slices.Equal(r.pos, o.pos) && r.targets == o.targets && r.blocked == o.blocked
}

// serialSieve is the fused walk's oracle: repeated Next, then per position
// the lists (a drop is Blocked), then the directory bit, as the per-address
// reference sweep applies them.
func serialSieve(pm *Permutation, proto sieve) sieveRun {
	var r sieveRun
	for i, a := range serialWalk(pm.Iterate()) {
		dst := ip.AddrFrom4(uint32(a))
		if !proto.listed(dst) {
			r.blocked++
			continue
		}
		r.targets++
		if b := a >> 8; proto.hasDir && (b/64 >= uint64(len(proto.dir)) || proto.dir[b/64]&(1<<(b%64)) == 0) {
			continue
		}
		r.dsts, r.pos = append(r.dsts, dst), append(r.pos, uint64(i)+1)
	}
	return r
}

// drainSieve runs the fused walk with a size-long buffer until it visits
// nothing, numbering positions with a running count as the sweep does.
func drainSieve(pm *Permutation, proto sieve, size int) sieveRun {
	var r sieveRun
	sv := proto
	sv.dsts, sv.pos = make([]ip.Addr, size), make([]uint64, size)
	it := pm.Iterate()
	var position uint64
	for {
		n := sv.next(it, position)
		if n == 0 {
			return r
		}
		r.dsts, r.pos = append(r.dsts, sv.dsts[:sv.kept]...), append(r.pos, sv.pos[:sv.kept]...)
		r.targets += n - sv.blocked
		r.blocked += sv.blocked
		position += uint64(n)
	}
}

// TestNextBatchLanesSieve holds the fused walk — lists and /24 directory
// applied inside the lane rounds — to repeated Next plus the lists plus the
// directory bit: the same candidates at the same positions, and the same
// target and Blocked counts, for every shard of several shard counts and
// buffer sizes around the round and sweep-batch boundaries. The sieves:
// none (every offset a candidate), a directory alone (the dark-round fast
// path), one cut shorter than the space (words past its end are dark), and
// lists with a directory (the per-offset path).
func TestNextBatchLanesSieve(t *testing.T) {
	allow, block := ip.NewSet(), ip.NewSet()
	allow.Add(ip.MakePrefix(ip.AddrFrom4(0), 19))
	allow.Add(ip.MakePrefix(ip.AddrFrom4(1<<15), 17))
	block.Add(ip.MakePrefix(ip.AddrFrom4(1024), 23)) // a dark /24 and a painted one
	block.Add(ip.MakePrefix(ip.AddrFrom4(1<<15+300), 30))
	// Every third /24 painted, in all three words a 40000 space needs.
	dir := make([]uint64, 3)
	for b := 0; b < 3*64; b++ {
		if b%3 != 1 {
			dir[b/64] |= 1 << (b % 64)
		}
	}
	sieves := map[string]sieve{
		"none":        {},
		"dir":         {dir: dir, hasDir: true},
		"dir/short":   {dir: dir[:1], hasDir: true},
		"dir/empty":   {dir: nil, hasDir: true},
		"lists":       {allow: allow, block: block},
		"lists+dir":   {dir: dir[:2], hasDir: true, allow: allow, block: block},
		"block+dir":   {dir: dir, hasDir: true, block: block},
		"allow/short": {dir: dir[:1], hasDir: true, allow: allow},
	}
	sawKept, sawBlocked, sawDark := false, false, false
	key := rng.NewKey(11)
	for _, space := range append(laneSpaces, 40000) {
		for _, shards := range []int{1, 2, 3, 7} {
			for shard := 0; shard < shards; shard++ {
				pm, err := NewPermutationN(key, space, shard, shards)
				if err != nil {
					t.Fatal(err)
				}
				for name, proto := range sieves {
					want := serialSieve(pm, proto)
					sawKept = sawKept || len(want.dsts) > 0
					sawBlocked = sawBlocked || want.blocked > 0
					sawDark = sawDark || want.targets > len(want.dsts)
					for _, size := range []int{1, 2, 3, 4, 5, 7, 4095, 4096, 4097} {
						if got := drainSieve(pm, proto, size); !got.equal(&want) {
							t.Fatalf("space %d shard %d/%d sieve %s buffer %d: %d candidates (%d targets, %d blocked), want %d (%d, %d)\n got %v %v\nwant %v %v",
								space, shard, shards, name, size, len(got.dsts), got.targets, got.blocked,
								len(want.dsts), want.targets, want.blocked, head(got.pos), got.dsts[:min(4, len(got.dsts))], head(want.pos), want.dsts[:min(4, len(want.dsts))])
						}
					}
				}
			}
		}
	}
	if !sawKept || !sawBlocked || !sawDark {
		t.Errorf("vacuous: candidates %v, list drops %v, dark targets %v", sawKept, sawBlocked, sawDark)
	}
}
