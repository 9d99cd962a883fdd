package world

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/pipeline"
	"repro/internal/proto"
)

// FIB is the sparse forwarding/annotation table the scan hot path reads:
// a packed entry per *painted* /24 of the scan space resolving any address
// to its routedness, announcing AS, geolocated country, and (via a per-/24
// host presence bitmap ranking into a flat side array) the service mask of
// the host living there. It is precomputed once at Build time from the
// ASes' prefix lists and prefix countries, so a destination lookup on the
// probe path costs a bitmap test, a popcount rank, and an array index.
//
// Sparsity is what makes the SpaceBits=32 world affordable: full IPv4 has
// 16.7M /24 blocks but only the announced ones carry information, so the
// FIB keeps a directory bitmap (one bit per /24, 2 MiB for the full
// space), a per-word rank prefix (1 MiB), and a dense array of only the
// painted blocks. An absent directory bit IS the answer — unrouted, no
// country, no host — with no struct behind it.
//
// It is the world's only address index: the world accessors (ASOf,
// CountryOf, Lookup) answer from it, and building it is where overlapping
// announcements are refused. The tests' Validate holds it, for every
// address in the space, to longest-prefix-match tables the test builds from
// the same prefix lists, and to the host slice.
type FIB struct {
	dir       []uint64      // directory: bit b set when /24 block b is painted
	dirRank   []uint32      // exclusive prefix popcount of dir per word
	blocks    []fibBlock    // painted blocks only, in block-number order
	mixed     []fibAddr     // per-address overflow for non-uniform /24s
	ases      []*asn.AS     // interned AS list, sorted by AS number
	countries []geo.Country // interned country list, first-seen order
	masks     []proto.Mask  // service masks of all hosts, in address order
	spaceBits uint8

	// IPv6 side (fib6.go): table6 finds the /120 blocks holding hosts;
	// other addresses search spans6, the sorted announced prefixes.
	table6 []fib6Slot
	spans6 []fib6Span
}

// Sentinel values for fibBlock.asIdx.
const (
	fibUnrouted = -1 // the whole /24 is unannounced space
	fibMixed    = -2 // AS/country vary inside the /24: consult FIB.mixed
)

// fibBlock is the FIB's entry for one /24 of the scan space.
type fibBlock struct {
	// present has bit i set when base+i is a live host; the rank of a set
	// bit indexes the block's span of FIB.masks.
	present [4]uint64
	// maskOff is the offset of this block's first host in FIB.masks
	// (meaningless when the block has no hosts).
	maskOff uint32
	// asIdx is the uniform AS index for every address in the block, or
	// fibUnrouted / fibMixed.
	asIdx int32
	// ctryIdx is the uniform country index, or -1 for no geolocation.
	ctryIdx int32
	// mixedOff is the block's offset into FIB.mixed (256 entries per
	// mixed block); valid only when asIdx == fibMixed.
	mixedOff int32
}

// fibAddr is the per-address overflow entry of a mixed block.
type fibAddr struct {
	as   int32 // index into FIB.ases, or fibUnrouted
	ctry int32 // index into FIB.countries, or -1
}

// Dest is the FIB's resolution of one destination address. It is returned
// by value so the probe hot path stays allocation-free.
type Dest struct {
	// AS is the announcing AS (nil when the address is unrouted).
	AS *asn.AS
	// Country is the geolocation ("" when the address has none).
	Country geo.Country
	// ASIdx is AS's position in the FIB's interned AS list, in
	// [0, NumASes): a dense key for per-AS tables (the fabric's plans).
	// Meaningful only when Routed.
	ASIdx int32
	// Services is the host's service mask (0 when no host lives here).
	Services proto.Mask
	// Host reports whether a live machine owns the address.
	Host bool
	// Routed reports whether the address is inside announced space.
	Routed bool
}

// buildFIB constructs the sparse FIB from the world's AS prefix lists and
// prefix countries, with room for machines hosts that placeHost then adds.
// Construction is deterministic: ASes are walked in number order and
// prefixes in announcement order, so the same world yields the same FIB
// layout bit for bit. Two passes: the first marks every painted /24 in the
// directory bitmap and sizes the dense block array from the ranks; the
// second paints annotations into the dense blocks. Unpainted space — the
// overwhelming majority at SpaceBits=32 — costs one directory bit. An
// address painted twice (two announcements overlap) fails the build with
// ErrWorldGen.
func buildFIB(w *World, machines int) (*FIB, error) {
	space := uint64(1) << w.SpaceBits
	nBlocks := (space + 255) >> 8
	nWords := (nBlocks + 63) >> 6
	f := &FIB{
		dir:       make([]uint64, nWords),
		ases:      w.Routes.All(),
		masks:     make([]proto.Mask, 0, machines),
		spaceBits: w.SpaceBits,
	}

	// Pass 1: directory bits for every block any prefix touches, and the
	// fine /24s: those holding prefixes longer than /24.
	var fine []uint32
	for _, a := range f.ases {
		for _, pfx := range a.Prefixes {
			for b := uint64(pfx.Base.V4()) >> 8; b <= uint64(pfx.Last().V4())>>8; b++ {
				f.dir[b>>6] |= 1 << (b & 63)
			}
			if pfx.Bits > 24 {
				fine = append(fine, pfx.Base.V4()>>8)
			}
		}
	}
	slices.Sort(fine)
	fine = slices.Compact(fine)
	f.dirRank = make([]uint32, nWords)
	total := uint32(0)
	for i, wd := range f.dir {
		f.dirRank[i] = total
		total += uint32(bits.OnesCount64(wd))
	}
	f.blocks = make([]fibBlock, total)
	for i := range f.blocks {
		f.blocks[i].asIdx = fibUnrouted
		f.blocks[i].ctryIdx = -1
	}

	seen := make(map[geo.Country]int32)

	// Pass 2: paint blocks. Prefixes of /24 or shorter cover whole blocks;
	// finer prefixes (the generator allocates chunks as small as 8
	// addresses) share their /24 with other prefixes or unrouted gaps, so
	// those blocks get per-address entries first, 256 per fine block in one
	// slab in block order, and collapse back to uniform when every address
	// agrees.
	slab := make([]fibAddr, 256*len(fine))
	for i := range slab {
		slab[i] = fibAddr{as: fibUnrouted, ctry: -1}
	}
	for ai, a := range f.ases {
		for i, pfx := range a.Prefixes {
			ci := f.internCountry(seen, a.PrefixCountry(i))
			if pfx.Bits <= 24 {
				for b := uint64(pfx.Base.V4()) >> 8; b <= uint64(pfx.Last().V4())>>8; b++ {
					blk := &f.blocks[f.blockIndex(b)]
					if blk.asIdx != fibUnrouted {
						return nil, errOverlap(pfx)
					}
					blk.asIdx = int32(ai)
					blk.ctryIdx = ci
				}
				continue
			}
			k, _ := slices.BinarySearch(fine, pfx.Base.V4()>>8)
			lo := k<<8 | int(pfx.Base.V4()&0xff)
			for off := range int(pfx.NumAddrs()) {
				if slab[lo+off].as != fibUnrouted {
					return nil, errOverlap(pfx)
				}
				slab[lo+off] = fibAddr{as: int32(ai), ctry: ci}
			}
		}
	}
	// Mixed blocks move to the front of the slab in block order, so each
	// one's mixedOff is 256 times the mixed blocks below it.
	nMixed := 0
	for k, bi := range fine {
		pa := slab[k<<8 : (k+1)<<8]
		blk := &f.blocks[f.blockIndex(uint64(bi))]
		if blk.asIdx != fibUnrouted { // also painted by a /24-or-shorter prefix
			return nil, errOverlap(ip.AddrFrom4(bi << 8).Slash24())
		}
		if uniform(pa) {
			blk.asIdx = pa[0].as
			blk.ctryIdx = pa[0].ctry
			continue
		}
		blk.asIdx = fibMixed
		blk.mixedOff = int32(nMixed << 8)
		copy(slab[nMixed<<8:], pa)
		nMixed++
	}
	f.mixed = slab[: nMixed<<8 : nMixed<<8]
	return f, nil
}

// internCountry returns c's index in f.countries, seen, appending it when
// new; -1 for "" (no geolocation).
func (f *FIB) internCountry(seen map[geo.Country]int32, c geo.Country) int32 {
	if c == "" {
		return -1
	}
	i, ok := seen[c]
	if !ok {
		i = int32(len(f.countries))
		f.countries = append(f.countries, c)
		seen[c] = i
	}
	return i
}

// errOverlap reports an address of pfx painted twice.
func errOverlap(pfx ip.Prefix) error {
	return pipeline.Tag(pipeline.ErrWorldGen, fmt.Errorf("world: %v overlaps another announcement", pfx))
}

// uniform reports whether every entry of a fine block agrees.
func uniform(pa []fibAddr) bool {
	for _, e := range pa[1:] {
		if e != pa[0] {
			return false
		}
	}
	return true
}

// placeHost records a live host at a with services m. Hosts must arrive in
// strictly increasing address order: each block's masks are then
// contiguous in f.masks, its first host sets maskOff, and the rank of a
// presence bit indexes the block's span. Every host lives inside an
// announced prefix, so its block is painted.
func (f *FIB) placeHost(a uint32, m proto.Mask) {
	blk := &f.blocks[f.blockIndex(uint64(a>>8))]
	if blk.present == [4]uint64{} {
		blk.maskOff = uint32(len(f.masks))
	}
	lo := a & 0xff
	blk.present[lo>>6] |= 1 << (lo & 63)
	f.masks = append(f.masks, m)
}

// blockIndex returns the dense index of /24 block bi, or -1 when the block
// is unpainted: a directory word bounds check, a bit test, and a popcount
// rank.
func (f *FIB) blockIndex(bi uint64) int32 {
	word := bi >> 6
	if word >= uint64(len(f.dir)) {
		return -1
	}
	wd := f.dir[word]
	bit := uint64(1) << (bi & 63)
	if wd&bit == 0 {
		return -1
	}
	return int32(f.dirRank[word]) + int32(bits.OnesCount64(wd&(bit-1)))
}

// Resolve answers everything the fabric needs to know about a destination
// in one pass: a directory rank, an array index, and a popcount when a
// host is present. Addresses outside the scan space — and inside it but in
// unpainted blocks — resolve to the zero Dest.
func (f *FIB) Resolve(a ip.Addr) Dest {
	var d Dest
	if !a.Is4() {
		f.resolve6(a, &d)
	} else if idx := f.blockIndex(uint64(a.V4()) >> 8); idx >= 0 {
		f.resolveIn(&f.blocks[idx], a.V4()&0xff, &d)
	}
	return d
}

// resolveIn resolves the address at offset off of an already-located block
// (a v4 /24 or a v6 /120) into d, which must be the zero Dest. (Filling the
// caller's Dest in place, not returning one, spares the batch loop a copy
// of the struct per address.)
func (f *FIB) resolveIn(blk *fibBlock, off uint32, d *Dest) {
	ai, ci := blk.asIdx, blk.ctryIdx
	if ai == fibMixed {
		e := &f.mixed[uint32(blk.mixedOff)+off]
		ai, ci = e.as, e.ctry
	}
	if ai >= 0 {
		d.AS = f.ases[ai]
		d.ASIdx = ai
		d.Routed = true
	}
	if ci >= 0 {
		d.Country = f.countries[ci]
	}
	word := off >> 6
	bit := uint64(1) << (off & 63)
	if blk.present[word]&bit != 0 {
		rank := bits.OnesCount64(blk.present[word] & (bit - 1))
		for w := uint32(0); w < word; w++ {
			rank += bits.OnesCount64(blk.present[w])
		}
		d.Services = f.masks[blk.maskOff+uint32(rank)]
		d.Host = true
	}
}

// ResolveBatch resolves a whole batch of destinations into out
// (len(out) == len(dst)), reusing the directory rank when consecutive
// addresses share a /24 — the block-locality win the batched sweep kernel
// is shaped around.
func (f *FIB) ResolveBatch(dst []ip.Addr, out []Dest) {
	lastBi := uint64(1) << 63 // sentinel: no block cached
	var lastBlk *fibBlock
	for i, a := range dst {
		out[i] = Dest{}
		if !a.Is4() {
			f.resolve6(a, &out[i])
			continue
		}
		bi := uint64(a.V4()) >> 8
		if bi != lastBi {
			lastBi = bi
			lastBlk = nil
			if idx := f.blockIndex(bi); idx >= 0 {
				lastBlk = &f.blocks[idx]
			}
		}
		if lastBlk != nil {
			f.resolveIn(lastBlk, a.V4()&0xff, &out[i])
		}
	}
}

// Routed reports whether the address is inside announced space: the routed
// bit the sweep's short-circuit consults before paying for a probe. An
// unpainted block is unrouted by construction.
func (f *FIB) Routed(a ip.Addr) bool {
	if !a.Is4() {
		return f.routed6(a)
	}
	idx := f.blockIndex(uint64(a.V4()) >> 8)
	return idx >= 0 && f.routedIn(&f.blocks[idx], a.V4()&0xff)
}

// routedIn answers Routed for the address at offset off of an
// already-located block.
func (f *FIB) routedIn(blk *fibBlock, off uint32) bool {
	if blk.asIdx == fibMixed {
		return f.mixed[uint32(blk.mixedOff)+off].as >= 0
	}
	return blk.asIdx >= 0
}

// RoutedBatch implements zmap.BatchRoutability's contract for the fabric:
// fill routed[i] with Routed(dst[i]) for the whole batch, nothing carried
// from one address to the next. The sweep hands it addresses in permuted
// order, where consecutive ones share a /24 about as often as chance allows,
// so there is no block decode worth keeping between them; and most of them
// are dark, so the loop tests the directory bit first and by itself — an
// absent bit is the answer, from a table that is cache-resident (2 MiB at
// SpaceBits=32) — and only painted blocks go on to the rank and the block
// load. (Asking blockIndex and testing its result for -1 is the same
// decision a nanosecond slower per dark address: 2.7 against 1.6.)
func (f *FIB) RoutedBatch(dst []ip.Addr, routed []bool) {
	routed = routed[:len(dst)]
	for i, a := range dst {
		if !a.Is4() {
			routed[i] = f.routed6(a)
			continue
		}
		bi := uint64(a.V4()) >> 8
		if word := bi >> 6; word >= uint64(len(f.dir)) || f.dir[word]>>(bi&63)&1 == 0 {
			routed[i] = false
			continue
		}
		routed[i] = f.routedIn(&f.blocks[f.blockIndex(bi)], a.V4()&0xff)
	}
}

// RoutedBlocks implements zmap.BlockRoutability: the directory itself, one
// bit per painted /24, read-only. Every routed address lies in an announced
// prefix and so in a painted /24; a painted /24 may still hold unrouted
// addresses (a mixed block's gaps), which RoutedBatch then answers. A v6
// FIB's directory is empty — its v4 side routes nothing — and hitlist scans,
// the only scans a v6 world gets, never consult it.
func (f *FIB) RoutedBlocks() []uint64 { return f.dir }

// NumASes returns the length of the interned AS list Dest.ASIdx indexes.
func (f *FIB) NumASes() int { return len(f.ases) }

// NumBlocks returns the number of painted /24 blocks — the dense entries
// behind the directory bitmap. By construction it equals the number of
// distinct /24s any announced prefix touches; the streaming-worldgen audit
// recomputes that count from the prefix lists and checks the two agree.
func (f *FIB) NumBlocks() int { return len(f.blocks) }

// MemFootprint returns the FIB's resident size in bytes: the backing
// arrays of its slices, element size times capacity — the number the
// ≤2 GiB full-IPv4 budget in DESIGN.md is checked against. At SpaceBits=32
// the directory and rank arrays are 2 MiB + 1 MiB fixed; everything else
// scales with painted blocks, not with the space. A v6 FIB's blocks are its
// host /120s, plus the table that finds them. The ASes themselves belong to
// the world's route table; the FIB counts its pointers to them.
func (f *FIB) MemFootprint() uint64 {
	return arrayBytes(f.dir) + arrayBytes(f.dirRank) + arrayBytes(f.blocks) +
		arrayBytes(f.mixed) + arrayBytes(f.ases) + arrayBytes(f.countries) +
		arrayBytes(f.masks) + arrayBytes(f.table6) + arrayBytes(f.spans6)
}

// arrayBytes is the size of s's backing array.
func arrayBytes[E any](s []E) uint64 {
	var e E
	return uint64(unsafe.Sizeof(e)) * uint64(cap(s))
}
