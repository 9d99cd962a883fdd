// Package zmap implements a ZMap-compatible scanner core: address iteration
// via a random cyclic multiplicative group permutation (so every scan emits
// targets in a pseudorandom order with O(1) state, exactly as ZMap does),
// sharding, SipHash validation cookies embedded in TCP sequence numbers,
// CIDR block/allowlists, and multi-probe transmission on a virtual clock.
//
// The scanner sends and receives real IPv4+TCP packet bytes through a
// PacketSink; the simulation fabric is one sink, and the seam is where a
// raw-socket/pcap sink would attach in a deployment against real networks.
package zmap

import (
	"fmt"
	"math/bits"

	"repro/internal/ip"
	"repro/internal/rng"
)

// Permutation iterates the multiplicative group of integers modulo a prime
// p just above the scan space, visiting every value in [1, p) exactly once
// in a seed-determined pseudorandom order. Values are mapped to addresses
// as value-1; values exceeding the space are skipped (ZMap's approach for
// the 2^32 space, generalized to any space size).
type Permutation struct {
	p         uint64 // group modulus (prime)
	first     uint64 // this shard's first element: g^(r+shard), g the generator, r the key's offset
	step      uint64 // g^shards: stride between this shard's elements
	stepShoup uint64 // floor(step<<64 / p): Shoup factor for the walk stride
	step4     uint64 // step⁴ mod p: the stride of each of walkBatch's four lanes
	step4Shp  uint64 // Shoup factor of step4
	// stepBlk = step^sweepBatch and stepBlk2 = step^(2·sweepBatch), with
	// their Shoup factors: the jumps from one block of the walk to the next
	// and to the one after, so a block is reached without walking to it.
	stepBlk, stepBlkShp   uint64
	stepBlk2, stepBlk2Shp uint64
	space                 uint64 // number of valid addresses [0, space)
	shardLen              uint64 // group elements this shard owns
}

// NewPermutation builds the permutation for a space of 2^spaceBits
// addresses, seeded by key, for the given shard of shards total. All
// scanners in a synchronized study share the key, so they visit the same
// addresses at the same position in the order — the paper starts each scan
// with the same ZMap seed for exactly this reason.
func NewPermutation(key rng.Key, spaceBits uint8, shard, shards int) (*Permutation, error) {
	if spaceBits == 0 || spaceBits > 32 {
		return nil, fmt.Errorf("zmap: space bits %d out of range", spaceBits)
	}
	return NewPermutationN(key, uint64(1)<<spaceBits, shard, shards)
}

// NewPermutationN is NewPermutation over an arbitrary space of n values
// [0, n) — the form hitlist scans use, where n is a target-list length
// rather than a power of two. The walk indices are uint64 throughout; n may
// be anything up to 2^62 (the modulus must stay below 2^63 for the Shoup
// reduction), though real uses are a 2^32 sweep space or a far smaller
// hitlist.
func NewPermutationN(key rng.Key, n uint64, shard, shards int) (*Permutation, error) {
	if n == 0 || n > 1<<62 {
		return nil, fmt.Errorf("zmap: space size %d out of range", n)
	}
	if shards <= 0 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("zmap: bad shard %d/%d", shard, shards)
	}
	space := n
	p := nextPrime(space + 1)
	if p < 5 {
		// Spaces of 1 and 2 would get p = 2 and 3, which have no element in
		// the generator search's range [2, p-1); they walk Z_5^* and skip
		// its out-of-space elements like any other space does.
		p = 5
	}
	g, err := findGenerator(key, p)
	if err != nil {
		return nil, err
	}
	// Shard s visits g^(r+s), g^(r+s+shards), ... for a key-derived
	// offset r: disjoint cosets covering the whole group.
	r := key.Derive("offset").Uint64(0)%(p-1) + 1
	first := mulmodPow(g, r, p)
	first = mulmod(first, mulmodPow(g, uint64(shard), p), p)
	step := mulmodPow(g, uint64(shards), p)
	total := p - 1
	max := total / uint64(shards)
	if uint64(shard) < total%uint64(shards) {
		max++
	}
	step4 := mulmodPow(step, 4, p)
	stepBlk := mulmodPow(step, sweepBatch, p)
	stepBlk2 := mulmod(stepBlk, stepBlk, p)
	return &Permutation{
		p: p, first: first, step: step, stepShoup: shoupFactor(step, p),
		step4: step4, step4Shp: shoupFactor(step4, p),
		stepBlk: stepBlk, stepBlkShp: shoupFactor(stepBlk, p),
		stepBlk2: stepBlk2, stepBlk2Shp: shoupFactor(stepBlk2, p),
		space: space, shardLen: max,
	}, nil
}

// Space returns the number of addresses in the scan space.
func (pm *Permutation) Space() uint64 { return pm.space }

// Modulus returns the group modulus (for tests).
func (pm *Permutation) Modulus() uint64 { return pm.p }

// Iterator walks this shard's slice of the permutation.
type Iterator struct {
	pm      *Permutation
	current uint64
	emitted uint64
	max     uint64 // group elements this shard owns
}

// Iterate returns an iterator over this permutation's shard.
func (pm *Permutation) Iterate() *Iterator {
	return &Iterator{pm: pm, current: pm.first, max: pm.shardLen}
}

// Next returns the next address in the shard, or ok=false when exhausted.
// Group elements mapping outside the space are transparently skipped.
func (it *Iterator) Next() (addr uint32, ok bool) {
	pm := it.pm
	for it.emitted < it.max {
		v := it.current
		it.current = mulmodShoup(it.current, pm.step, pm.stepShoup, pm.p)
		it.emitted++
		if a := v - 1; a < pm.space {
			return uint32(a), true
		}
	}
	return 0, false
}

// NextBatch fills buf with the next addresses of the shard's walk and
// returns how many it wrote: len(buf) until the walk nears exhaustion, then
// one final partial batch, then 0. The sequence is exactly the one repeated
// Next calls yield — batching amortizes the per-address call overhead and
// lets the walk run four multiply chains at once (see walkBatch). The
// buffer is caller-owned and reused across calls.
func (it *Iterator) NextBatch(buf []uint32) int { return walkBatch(it, buf, nil, len(buf), it.max) }

// NextBatch64 is NextBatch emitting full-width walk values — the form
// hitlist iteration uses, where a value is an index into a target list
// rather than an IPv4 address.
func (it *Iterator) NextBatch64(buf []uint64) int { return walkBatch(it, buf, nil, len(buf), it.max) }

// blocks is how many blocks of sweepBatch group elements the shard's walk
// spans: at least one, so a sweep over an empty shard still runs one
// (empty) block.
func (it *Iterator) blocks() uint64 { return max(1, (it.max+sweepBatch-1)/sweepBatch) }

// skip moves an iterator that sits at the start of a block to the start of
// the next one without walking the block: one multiply by step^sweepBatch.
func (it *Iterator) skip() {
	pm := it.pm
	if it.max-it.emitted <= sweepBatch {
		it.emitted = it.max
		return
	}
	it.current = mulmodShoup(it.current, pm.stepBlk, pm.stepBlkShp, pm.p)
	it.emitted += sweepBatch
}

// cand is a sieve's record of one candidate: the v4 offset and its index
// among the in-space values of the call that visited it, so its scan
// position is the call's base + idx + 1. Eight bytes, where the widened
// ip.Addr and position take forty: the form a block waits in between the
// goroutine that walked it and the one that numbers it. A call visits at
// most 65536 values (a sweep's at most sweepBatch).
type cand struct {
	off uint32
	idx uint16
}

// sieve is what a space sweep keeps of its walk: the offsets the
// allow/blocklists admit (the rest counted blocked) whose /24 the sink's
// directory does not rule out, recorded as cands. With no directory every
// admitted offset is kept. A call walks at most len(pos) in-space values,
// or with span set one block: at most span group elements.
//
// A scan's sieve is copied into the helper goroutine that walks every other
// block (see walker), so dir and the lists are read from two goroutines at
// once: the directory slice must not change while a scan runs (the
// BlockRoutability contract), and the lists are ip.Sets whose Contains is a
// read-only radix lookup, written by nobody during a scan. Each goroutine
// writes only its own sieve's cands, blocked, dsts, pos and kept.
type sieve struct {
	dir          []uint64 // the sink's /24 directory, when hasDir
	hasDir       bool
	allow, block *ip.Set
	span         uint64 // when > 0, a call walks one block of span group elements
	cands        []cand // this call's candidates, in walk order
	blocked      int    // offsets the lists dropped in this call
	// next widens the candidates into dsts (as addresses) and pos (their
	// 1-based scan positions); kept counts them.
	dsts []ip.Addr
	pos  []uint64
	kept int
}

// next runs the walk's next block (span set) or next len(sv.pos) scan
// positions through the sieve, numbered from base, and returns how many
// in-space values it visited (fewer only at the walk's or the block's end);
// kept and blocked then count this call's candidates and list drops, and
// dsts and pos hold the candidates.
func (sv *sieve) next(it *Iterator, base uint64) int {
	n := sv.walk(it)
	sv.kept = widen(sv.cands, base, sv.dsts, sv.pos)
	return n
}

// walk is next without the widening: the candidates stay cands.
func (sv *sieve) walk(it *Iterator) int {
	limit, span := len(sv.pos), it.max
	if sv.span > 0 {
		limit, span = int(sv.span), sv.span
	}
	sv.cands, sv.blocked = sv.cands[:0], 0
	return walkBatch[uint32](it, nil, sv, limit, span)
}

// widen writes cands, numbered from base, into dsts and pos and returns how
// many there are.
func widen(cands []cand, base uint64, dsts []ip.Addr, pos []uint64) int {
	dsts, pos = dsts[:len(cands)], pos[:len(cands)]
	for i, c := range cands {
		dsts[i], pos[i] = ip.AddrFrom4(c.off), base+uint64(c.idx)+1
	}
	return len(cands)
}

// painted reports the directory bit of offset a's /24: false for a word
// past the end of dir, which promises the whole /24 unrouted.
func painted(dir []uint64, a uint64) bool {
	w := a >> 14
	return w < uint64(len(dir)) && dir[w]&(1<<(a>>8&63)) != 0
}

// listed reports whether the allow/blocklists let dst be probed.
func (sv *sieve) listed(dst ip.Addr) bool {
	return (sv.allow == nil || sv.allow.Contains(dst)) && (sv.block == nil || !sv.block.Contains(dst))
}

// admit applies the lists and then the directory to the n-th in-space
// offset of the call (DESIGN § 8.1: an offset the lists drop is Blocked
// even when dark), recording a survivor.
func (sv *sieve) admit(a uint64, n int) {
	if (sv.allow != nil || sv.block != nil) && !sv.listed(ip.AddrFrom4(uint32(a))) {
		sv.blocked++
		return
	}
	if sv.hasDir && !painted(sv.dir, a) {
		return
	}
	if len(sv.cands) == cap(sv.cands) {
		sv.grow()
	}
	sv.cands = append(sv.cands, cand{off: uint32(a), idx: uint16(n)})
}

// grow makes room for more candidates: 64 at first, then at least a whole
// block's. A walker's ring slot therefore allocates at most twice in its
// kernel's life (a recycled kernel keeps the slots' arrays), 512 bytes for
// the handful a dark block keeps and 32 KiB once a block outgrows them,
// where append's growth would allocate five times a dense block's final
// size in steps of a quarter.
func (sv *sieve) grow() {
	n := 64
	if cap(sv.cands) >= n {
		n = max(sweepBatch, 2*cap(sv.cands))
	}
	sv.cands = append(make([]cand, 0, n), sv.cands...)
}

// walkBatch is the one permutation walker: it advances the iterator over
// at most span group elements and returns how many in-space values it
// visited — at most limit — exactly as that many successful Next calls
// would. Without a sieve it stores each value in vals (limit = len(vals));
// a space sweep passes a sieve instead, and each value goes through
// sv.admit, so an offset the directory rules out is never stored at all.
//
// A scalar walk is one serially dependent multiply chain, x ← x·step, so its
// cost is the multiplier's latency, not its throughput. But the walk is a
// geometric sequence, x_{i+k} = x_i·step^k, so four lanes seeded
// cur·step^{0..3} and each advanced by step⁴ visit the same elements, and a
// round that takes lanes 0‥3 in that order — four stores when, as almost
// always, no lane maps outside the space; lane by lane with the skip applied
// in turn otherwise — takes them in the scalar walk's order with the four
// chains overlapped in the pipeline. A sieve with a directory and no lists
// first runs dark rounds — four in-space offsets in unpainted /24s — in a
// loop of their own that tests the four bits and nothing else; the round
// that ends a run goes through the general round alone. Rounds run while at
// least four buffer slots and four walk elements remain (a round visits at
// most four values and consumes exactly four elements, so neither bound is
// overrun); then lane 0, the next unvisited element, becomes the scalar
// cursor again and a scalar tail finishes the buffer, the span or the walk.
// The state persisted between calls is therefore the scalar one whatever
// the buffer size: every resume point, shard stride and final partial batch
// yields the sequence repeated Next yields.
func walkBatch[V uint32 | uint64](it *Iterator, vals []V, sv *sieve, limit int, span uint64) int {
	pm := it.pm
	total := min(it.max-it.emitted, span)
	cur, left := it.current, total
	step, shoup, p, space := pm.step, pm.stepShoup, pm.p, pm.space
	var dir []uint64
	darkRuns := false
	if sv != nil {
		dir, darkRuns = sv.dir, sv.hasDir && sv.allow == nil && sv.block == nil
	}
	n := 0
	if limit >= 4 && left >= 4 {
		step4, shoup4 := pm.step4, pm.step4Shp
		c0 := cur
		c1 := mulmodShoup(c0, step, shoup, p)
		c2 := mulmodShoup(c1, step, shoup, p)
		c3 := mulmodShoup(c2, step, shoup, p)
		for {
			// Rounds that overrun neither bound, however many lanes skip.
			rounds := min(uint64(limit-n), left) / 4
			if rounds == 0 {
				break
			}
			if darkRuns {
				r := rounds
				for ; r > 0; r-- {
					a0, a1, a2, a3 := c0-1, c1-1, c2-1, c3-1
					if a0 >= space || a1 >= space || a2 >= space || a3 >= space ||
						painted(dir, a0) || painted(dir, a1) || painted(dir, a2) || painted(dir, a3) {
						break
					}
					c0 = mulmodShoup(c0, step4, shoup4, p)
					c1 = mulmodShoup(c1, step4, shoup4, p)
					c2 = mulmodShoup(c2, step4, shoup4, p)
					c3 = mulmodShoup(c3, step4, shoup4, p)
				}
				n += int(4 * (rounds - r))
				left -= 4 * (rounds - r)
				if r == 0 {
					continue
				}
				rounds = 1
			}
			left -= 4 * rounds
			for ; rounds > 0; rounds-- {
				a0, a1, a2, a3 := c0-1, c1-1, c2-1, c3-1
				c0 = mulmodShoup(c0, step4, shoup4, p)
				c1 = mulmodShoup(c1, step4, shoup4, p)
				c2 = mulmodShoup(c2, step4, shoup4, p)
				c3 = mulmodShoup(c3, step4, shoup4, p)
				if sv == nil && a0 < space && a1 < space && a2 < space && a3 < space {
					out := vals[n : n+4 : n+4]
					out[0], out[1], out[2], out[3] = V(a0), V(a1), V(a2), V(a3)
					n += 4
					continue
				}
				for _, a := range [4]uint64{a0, a1, a2, a3} {
					if a < space {
						if sv == nil {
							vals[n] = V(a)
						} else {
							sv.admit(a, n)
						}
						n++
					}
				}
			}
		}
		cur = c0
	}
	for n < limit && left > 0 {
		v := cur
		cur = mulmodShoup(cur, step, shoup, p)
		left--
		if a := v - 1; a < space {
			if sv == nil {
				vals[n] = V(a)
			} else {
				sv.admit(a, n)
			}
			n++
		}
	}
	it.current, it.emitted = cur, it.emitted+total-left
	return n
}

// mulmod computes a*b mod m without overflow using the 128-bit multiply
// and divide intrinsics (single hardware instructions on amd64/arm64). Any
// modulus up to 2^63 works; the walk moduli here are ≤ 2^32+15.
func mulmod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// shoupFactor precomputes floor(b·2^64 / m) for a fixed multiplicand b < m,
// the constant mulmodShoup needs. Requires m < 2^63 so the quotient fits.
func shoupFactor(b, m uint64) uint64 {
	q, _ := bits.Div64(b, 0, m)
	return q
}

// mulmodShoup computes a·b mod m for a fixed b with precomputed
// bShoup = shoupFactor(b, m), using Shoup's trick: two multiplies and a
// conditional subtract, no division at all. With q = floor(a·bShoup / 2^64),
// a·b − q·m is in [0, 2m), so one subtract finishes the reduction. This is
// what keeps the permutation walk cheap once the modulus outgrows 32 bits
// (SpaceBits=32 ⇒ p > 2^32) and per-step division would dominate the sweep.
// Requires a < m, b < m, m < 2^63.
func mulmodShoup(a, b, bShoup, m uint64) uint64 {
	q, _ := bits.Mul64(a, bShoup)
	r := a*b - q*m // wraps mod 2^64; the true remainder survives
	if r >= m {
		r -= m
	}
	return r
}

// mulmodPow computes g^e mod m by square-and-multiply.
func mulmodPow(g, e, m uint64) uint64 {
	result := uint64(1)
	base := g % m
	for e > 0 {
		if e&1 == 1 {
			result = mulmod(result, base, m)
		}
		base = mulmod(base, base, m)
		e >>= 1
	}
	return result
}

// nextPrime returns the smallest prime >= n.
func nextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for ; ; n += 2 {
		if isPrime(n) {
			return n
		}
	}
}

// isPrime is deterministic trial division; moduli here are < 2^33, so this
// is at most ~2^17 iterations and runs once per scan.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	for d := uint64(17); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// factorize returns the distinct prime factors of n.
func factorize(n uint64) []uint64 {
	var fs []uint64
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			fs = append(fs, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// findGenerator picks a seed-determined generator of the multiplicative
// group mod p: a candidate g is a generator iff g^((p-1)/q) != 1 for every
// prime factor q of p-1 (ZMap selects its generator the same way).
func findGenerator(key rng.Key, p uint64) (uint64, error) {
	factors := factorize(p - 1)
	stream := key.Derive("generator").Stream(p)
	for tries := 0; tries < 10000; tries++ {
		g := stream.Uint64n(p-3) + 2 // in [2, p-1)
		ok := true
		for _, q := range factors {
			if mulmodPow(g, (p-1)/q, p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("zmap: no generator found for p=%d", p)
}
