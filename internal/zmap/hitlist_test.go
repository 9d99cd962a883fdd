package zmap

import (
	"context"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/packet"
	"repro/internal/rng"
)

// testHitlist builds a deterministic mixed v6 target list of length n.
func testHitlist(n int) []ip.Addr {
	list := make([]ip.Addr, n)
	for i := range list {
		list[i] = ip.AddrFrom128(0x2a00_0000_0000_0000|uint64(i>>4), uint64(i&15)+1)
	}
	return list
}

// TestHitlistIteratorCoversList checks the walk visits every list entry
// exactly once, in an order that differs from list order.
func TestHitlistIteratorCoversList(t *testing.T) {
	const n = 1543 // deliberately not a power of two
	list := testHitlist(n)
	pm, err := NewPermutationN(rng.NewKey(7).Derive("scan"), uint64(n), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := pm.IterateHitlist(list)
	seen := map[ip.Addr]int{}
	var walk []ip.Addr
	dsts := make([]ip.Addr, 64)
	idxs := make([]uint64, 64)
	for {
		k := h.NextBatch(dsts, idxs)
		if k == 0 {
			break
		}
		for _, a := range dsts[:k] {
			seen[a]++
			walk = append(walk, a)
		}
	}
	if len(walk) != n {
		t.Fatalf("walk emitted %d targets, want %d", len(walk), n)
	}
	for _, a := range list {
		if seen[a] != 1 {
			t.Fatalf("target %v visited %d times, want exactly once", a, seen[a])
		}
	}
	inOrder := true
	for i := range walk {
		if walk[i] != list[i] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("walk visited the hitlist in list order; want a permuted order")
	}
}

// TestHitlistIteratorDeterministic pins that the walk order is a pure
// function of the key.
func TestHitlistIteratorDeterministic(t *testing.T) {
	const n = 257
	list := testHitlist(n)
	walk := func() []ip.Addr {
		pm, err := NewPermutationN(rng.NewKey(99), uint64(n), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := pm.IterateHitlist(list)
		var out []ip.Addr
		dsts := make([]ip.Addr, 32)
		idxs := make([]uint64, 32)
		for {
			k := h.NextBatch(dsts, idxs)
			if k == 0 {
				break
			}
			out = append(out, dsts[:k]...)
		}
		return out
	}
	a, b := walk(), walk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHitlistShardsPartitionList checks sharded walks partition the list:
// disjoint shards whose union is the whole hitlist.
func TestHitlistShardsPartitionList(t *testing.T) {
	const n, shards = 1111, 4
	list := testHitlist(n)
	key := rng.NewKey(3).Derive("scan")

	seen := map[ip.Addr]int{}
	total := 0
	for s := 0; s < shards; s++ {
		pm, err := NewPermutationN(key, uint64(n), s, shards)
		if err != nil {
			t.Fatal(err)
		}
		h := pm.IterateHitlist(list)
		dsts := make([]ip.Addr, 48)
		idxs := make([]uint64, 48)
		for {
			k := h.NextBatch(dsts, idxs)
			if k == 0 {
				break
			}
			for _, d := range dsts[:k] {
				seen[d]++
			}
			total += k
		}
	}
	if total != n {
		t.Fatalf("shards emitted %d targets, want %d", total, n)
	}
	for _, a := range list {
		if seen[a] != 1 {
			t.Fatalf("target %v appeared in %d shards, want exactly one", a, seen[a])
		}
	}
}

// TestHitlistLengthMismatchPanics pins the guard against pairing a
// permutation with the wrong list.
func TestHitlistLengthMismatchPanics(t *testing.T) {
	pm, err := NewPermutationN(rng.NewKey(1), 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IterateHitlist accepted a list shorter than the permutation space")
		}
	}()
	pm.IterateHitlist(testHitlist(9))
}

// probedSink records the destination of every v6 SYN it is sent.
type probedSink map[ip.Addr]int

func (s probedSink) Send(_ ip.Addr, pkt []byte, _ time.Duration) []byte {
	if iph, _, _, err := packet.DecodeTCP6(pkt); err == nil {
		s[iph.Dst]++
	}
	return nil
}

// TestTinySpaces pins the smallest scan spaces: a one- or two-entry target
// list (whose natural moduli, 2 and 3, the generator search cannot serve)
// is walked like any other — the shards together emit every index exactly
// once, one at a time and in batches, and a scan probes every entry.
func TestTinySpaces(t *testing.T) {
	for n := uint64(1); n <= 3; n++ {
		for shards := 1; shards <= 2; shards++ {
			next := make([]int, n)
			batch := make([]int, n)
			for shard := 0; shard < shards; shard++ {
				pm, err := NewPermutationN(rng.NewKey(7).Derive("scan"), n, shard, shards)
				if err != nil {
					t.Fatalf("n=%d shard %d/%d: %v", n, shard, shards, err)
				}
				for it := pm.Iterate(); ; {
					a, ok := it.Next()
					if !ok {
						break
					}
					next[a]++
				}
				buf := make([]uint64, 8)
				for it := pm.Iterate(); ; {
					k := it.NextBatch64(buf)
					if k == 0 {
						break
					}
					for _, v := range buf[:k] {
						batch[v]++
					}
				}
			}
			for i := range next {
				if next[i] != 1 || batch[i] != 1 {
					t.Errorf("n=%d shards=%d: index %d emitted %d times by Next, %d by NextBatch64, want once each",
						n, shards, i, next[i], batch[i])
				}
			}
		}
	}

	for n := 1; n <= 2; n++ {
		cfg := testConfig()
		cfg.SourceIPs = []ip.Addr{ip.MustParseAddr("2001:db8:ffff::1")}
		cfg.Hitlist = testHitlist(n)
		s, err := NewScanner(cfg)
		if err != nil {
			t.Fatalf("%d-entry hitlist: %v", n, err)
		}
		sink := probedSink{}
		st, err := s.Run(context.Background(), sink, func(Reply) {})
		if err != nil {
			t.Fatalf("%d-entry hitlist: %v", n, err)
		}
		if st.Targets != uint64(n) {
			t.Errorf("%d-entry hitlist: %d targets", n, st.Targets)
		}
		for _, a := range cfg.Hitlist {
			if sink[a] != cfg.Probes {
				t.Errorf("%d-entry hitlist: %v got %d probes, want %d", n, a, sink[a], cfg.Probes)
			}
		}
	}
}
