package zmap

import (
	"repro/internal/ip"
)

// HitlistIterator walks an explicit target list in the permutation's
// pseudorandom order: the scan strategy for address spaces where a full
// sweep is meaningless (IPv6's 2^128), implementing the same batched
// iterator seam the space sweep drives. The permutation is built over the
// list length (NewPermutationN), so every list entry is visited exactly
// once, order is seed-determined, and sharding works unchanged — a shard's
// walk values are list indices instead of v4 addresses.
type HitlistIterator struct {
	it   *Iterator
	list []ip.Addr
}

// IterateHitlist returns an iterator over list in this permutation's walk
// order. The permutation's space must equal len(list) (NewPermutationN
// over the list length); the list is not copied.
func (pm *Permutation) IterateHitlist(list []ip.Addr) *HitlistIterator {
	if pm.space != uint64(len(list)) {
		panic("zmap: hitlist length does not match permutation space")
	}
	return &HitlistIterator{it: pm.Iterate(), list: list}
}

// NextBatch fills dsts with the next targets of the walk and returns how
// many it wrote (0 when exhausted). idxs is caller-owned scratch of the
// same length receiving the raw list indices.
func (h *HitlistIterator) NextBatch(dsts []ip.Addr, idxs []uint64) int {
	return h.fill(dsts, idxs, h.it.max)
}

// block is NextBatch over the walk's next block: at most sweepBatch group
// elements, the unit a sweep steps in.
func (h *HitlistIterator) block(dsts []ip.Addr, idxs []uint64) int {
	return h.fill(dsts, idxs, sweepBatch)
}

func (h *HitlistIterator) fill(dsts []ip.Addr, idxs []uint64, span uint64) int {
	n := walkBatch(h.it, idxs[:len(dsts)], nil, len(dsts), span)
	for i := 0; i < n; i++ {
		dsts[i] = h.list[idxs[i]]
	}
	return n
}
