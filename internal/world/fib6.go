package world

import (
	"math/bits"
	"sort"

	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/proto"
)

// The IPv6 side of the FIB.
//
// A per-/24 directory is meaningless over a 2^128 universe: announced v6
// space is a handful of variable-length prefixes (a few /32s in the seeded
// world) whose hosts cluster into dense /64 islands. So the v6 FIB keeps a
// block only where a host lives: each /120 holding a host is an ordinary
// fibBlock in FIB.blocks, its masks in FIB.masks — the v4 layout (a v6 FIB's
// v4 side is empty) — found through an open-addressed table keyed by the
// /120 (power-of-two size, load ≤ 1/2, fixed multiplicative hash, linear
// probing). The table holds the world's host blocks only, so no target list
// can lengthen its probe chains. A block takes its AS and country from the
// prefix covering the whole /120; a block a longer prefix splits gets
// per-address entries in FIB.mixed. An address in no host block (stale and
// unrouted hitlist entries) falls back to a binary search of the sorted,
// disjoint prefix spans. Both paths are allocation-free.

// fib6Span is one announced IPv6 prefix flattened to an address interval.
type fib6Span struct {
	first, last ip.Addr
	asIdx       int32 // index into FIB.ases
	ctryIdx     int32 // index into FIB.countries, or -1
}

// fib6Slot is one entry of the v6 block table: a /120's first address and
// its index in FIB.blocks plus one (0 marks an empty slot).
type fib6Slot struct {
	base ip.Addr
	idx  int32
}

// base120 returns the first address of a's /120.
func base120(a ip.Addr) ip.Addr { return ip.AddrFrom128(a.Hi(), a.Lo()&^0xff) }

// slot6 returns the home slot of the /120 starting at base in a table of
// mask+1 slots.
func slot6(base ip.Addr, mask uint64) uint64 {
	h := (base.Hi() ^ base.Lo()*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return (h ^ h>>32) & mask
}

// block6 returns the host block holding a, or nil.
func (f *FIB) block6(a ip.Addr) *fibBlock {
	base, mask := base120(a), uint64(len(f.table6)-1)
	for i := slot6(base, mask); len(f.table6) > 0 && f.table6[i].idx != 0; i = (i + 1) & mask {
		if f.table6[i].base == base {
			return &f.blocks[f.table6[i].idx-1]
		}
	}
	return nil
}

// span6Of returns the span containing a, or nil: a binary search for the
// first span whose last address is not below a.
func (f *FIB) span6Of(a ip.Addr) *fib6Span {
	lo, hi := 0, len(f.spans6)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); f.spans6[m].last.Less(a) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(f.spans6) || a.Less(f.spans6[lo].first) {
		return nil
	}
	return &f.spans6[lo]
}

// resolve6 is Resolve for non-v4 addresses, into the zero Dest d.
func (f *FIB) resolve6(a ip.Addr, d *Dest) {
	if blk := f.block6(a); blk != nil {
		f.resolveIn(blk, uint32(a.Lo())&0xff, d)
	} else if sp := f.span6Of(a); sp != nil {
		d.AS, d.ASIdx, d.Routed = f.ases[sp.asIdx], sp.asIdx, true
		if sp.ctryIdx >= 0 {
			d.Country = f.countries[sp.ctryIdx]
		}
	}
}

// routed6 is Routed for non-v4 addresses.
func (f *FIB) routed6(a ip.Addr) bool {
	if blk := f.block6(a); blk != nil {
		return f.routedIn(blk, uint32(a.Lo())&0xff)
	}
	return f.span6Of(a) != nil
}

// buildFIB6 constructs a FIB whose v4 side is empty (every v4 lookup
// resolves to the zero Dest) and whose v6 side indexes the world's
// announced prefixes and host list. Hosts must be sorted by address;
// every host must sit inside an announced prefix.
func buildFIB6(w *World, hosts []Host) *FIB {
	f := &FIB{ases: w.Routes.All()}
	seen := make(map[geo.Country]int32)
	for ai, a := range f.ases {
		for i, pfx := range a.Prefixes {
			f.spans6 = append(f.spans6, fib6Span{
				first: pfx.First(), last: pfx.Last(),
				asIdx: int32(ai), ctryIdx: f.internCountry(seen, a.PrefixCountry(i)),
			})
		}
	}
	sort.Slice(f.spans6, func(i, j int) bool { return f.spans6[i].first.Less(f.spans6[j].first) })
	for i := 1; i < len(f.spans6); i++ {
		if !f.spans6[i-1].last.Less(f.spans6[i].first) {
			panic("world: overlapping IPv6 announcements")
		}
	}

	// Host blocks: hosts arrive in address order, so each /120's hosts
	// are a contiguous run and its masks a contiguous span of f.masks.
	f.masks = make([]proto.Mask, len(hosts))
	n := 0
	for i := range hosts {
		if i > 0 && !hosts[i-1].Addr.Less(hosts[i].Addr) {
			panic("world: IPv6 hosts not sorted")
		}
		if i == 0 || base120(hosts[i-1].Addr) != base120(hosts[i].Addr) {
			n++
		}
	}
	f.blocks = make([]fibBlock, 0, n)
	f.table6 = make([]fib6Slot, 2<<bits.Len(uint(n)))
	for i, h := range hosts {
		if base := base120(h.Addr); i == 0 || base120(hosts[i-1].Addr) != base {
			f.blocks = append(f.blocks, f.newBlock6(base, uint32(i)))
			mask := uint64(len(f.table6) - 1)
			j := slot6(base, mask)
			for f.table6[j].idx != 0 {
				j = (j + 1) & mask
			}
			f.table6[j] = fib6Slot{base: base, idx: int32(len(f.blocks))}
		}
		f.masks[i] = h.Services
		f.blocks[len(f.blocks)-1].present[h.Addr.Lo()&0xff>>6] |= 1 << (h.Addr.Lo() & 63)
	}
	return f
}

// newBlock6 returns the host block of the /120 starting at base, whose
// first host is f.masks[maskOff]: uniform when one span covers the whole
// /120, otherwise fibMixed with 256 per-address entries in f.mixed.
func (f *FIB) newBlock6(base ip.Addr, maskOff uint32) fibBlock {
	if sp := f.span6Of(base); sp != nil && !sp.last.Less(base.Add(255)) {
		return fibBlock{maskOff: maskOff, asIdx: sp.asIdx, ctryIdx: sp.ctryIdx}
	}
	blk := fibBlock{maskOff: maskOff, asIdx: fibMixed, ctryIdx: -1, mixedOff: int32(len(f.mixed))}
	for off := uint64(0); off < 256; off++ {
		e := fibAddr{as: fibUnrouted, ctry: -1}
		if sp := f.span6Of(base.Add(off)); sp != nil {
			e = fibAddr{as: sp.asIdx, ctry: sp.ctryIdx}
		}
		f.mixed = append(f.mixed, e)
	}
	return blk
}
