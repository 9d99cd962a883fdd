package results

import (
	"slices"

	"repro/internal/ip"
)

// addrCol is a scan's address column, at the width of the addresses it
// holds. It starts narrow: every address of an IPv4 scan is its host-order
// V4 value, 4 bytes a row. The first non-IPv4 address appended widens it,
// once, to 16-byte ip.Addrs (a hitlist scan widens at its first row, a
// mixed-family dataset file where its first IPv6 record is); a column
// never narrows again, so a sealed column is narrow exactly when every
// address the scan recorded is IPv4. The two widths hold one order: IPv4
// addresses order by their V4 value, as ip.Addr.Less orders them.
//
// The capacity hint waits for the first append, when the width is known,
// so a column is only ever allocated at the width it needs. Every read and
// write of the column — the sort's radix key included — goes through these
// methods; nothing else in the package knows which width a column has.
type addrCol struct {
	narrow []uint32     // the column while every address is IPv4
	wide   ip.AddrSlice // the column once widened
	isWide bool
	// hint is the capacity the first append allocates (0: append's own
	// growth).
	hint int
}

// fresh returns an empty column for n rows at c's width: allocated at
// once when c is wide (its rows hold a non-IPv4 address, and a column never
// narrows), else at its first append.
func (c *addrCol) fresh(n int) addrCol {
	if c.isWide {
		return addrCol{wide: make(ip.AddrSlice, 0, n), isWide: true}
	}
	return addrCol{hint: n}
}

func (c *addrCol) len() int {
	if c.isWide {
		return len(c.wide)
	}
	return len(c.narrow)
}

// cap is the column's capacity in rows: the pending hint until the first
// append allocates.
func (c *addrCol) cap() int {
	switch {
	case c.isWide:
		return cap(c.wide)
	case c.narrow == nil:
		return c.hint
	}
	return cap(c.narrow)
}

// setCap moves the column's rows into storage of exactly n rows'
// capacity (n ≥ len); before the first append it only sets the hint.
func (c *addrCol) setCap(n int) {
	switch {
	case c.isWide:
		c.wide = append(make(ip.AddrSlice, 0, n), c.wide...)
	case c.narrow == nil:
		c.hint = n
	default:
		c.narrow = append(make([]uint32, 0, n), c.narrow...)
	}
}

func (c *addrCol) at(i int) ip.Addr {
	if c.isWide {
		return c.wide[i]
	}
	return ip.AddrFrom4(c.narrow[i])
}

// set overwrites row i. a must fit the column: the sort and dedup only
// move a column's own addresses within it.
func (c *addrCol) set(i int, a ip.Addr) {
	if c.isWide {
		c.wide[i] = a
	} else {
		c.narrow[i] = uint32(a.Lo())
	}
}

// same reports whether rows i and j hold one address.
func (c *addrCol) same(i, j int) bool {
	if c.isWide {
		return c.wide[i] == c.wide[j]
	}
	return c.narrow[i] == c.narrow[j]
}

func (c *addrCol) append(a ip.Addr) {
	if !c.isWide {
		if a.Is4() {
			if c.narrow == nil && c.hint > 0 {
				c.narrow, c.hint = make([]uint32, 0, c.hint), 0
			}
			c.narrow = append(c.narrow, uint32(a.Lo()))
			return
		}
		c.widen()
	}
	c.wide = append(c.wide, a)
}

// widen moves the narrow rows into 16-byte storage of the same capacity
// (or the pending hint's).
func (c *addrCol) widen() {
	w := make(ip.AddrSlice, len(c.narrow), max(cap(c.narrow), c.hint))
	for i, v := range c.narrow {
		w[i] = ip.AddrFrom4(v)
	}
	*c = addrCol{wide: w, isWide: true}
}

// truncate cuts the column to its first n rows, keeping its storage and
// its width.
func (c *addrCol) truncate(n int) {
	if c.isWide {
		c.wide = c.wide[:n]
	} else {
		c.narrow = c.narrow[:n]
	}
}

// search returns the smallest row whose address is ≥ a (len when none).
// On a narrow column a non-IPv4 a sorts before every row or after them
// all.
func (c *addrCol) search(a ip.Addr) int {
	switch {
	case c.isWide:
		return c.wide.Search(a)
	case !a.Is4():
		if a.Less(ip.AddrFrom4(0)) {
			return 0
		}
		return len(c.narrow)
	}
	i, _ := slices.BinarySearch(c.narrow, uint32(a.Lo()))
	return i
}

// isSorted reports whether the column is strictly ascending.
func (c *addrCol) isSorted() bool {
	if c.isWide {
		return c.wide.IsSorted()
	}
	for i := 1; i < len(c.narrow); i++ {
		if c.narrow[i-1] >= c.narrow[i] {
			return false
		}
	}
	return true
}

// slice returns the column as ip.Addrs: the wide column itself, or a fresh
// copy of a narrow one.
func (c *addrCol) slice() ip.AddrSlice {
	if c.isWide {
		return c.wide
	}
	out := make(ip.AddrSlice, len(c.narrow))
	for i, v := range c.narrow {
		out[i] = ip.AddrFrom4(v)
	}
	return out
}

// radixSort orders idx, the column's row numbers, by (address, row). Only
// the key bytes that differ anywhere in the column get a pass (vary is the
// OR of every address XOR the first): a narrow column's key is its 4
// bytes, a wide one's all 16.
func (c *addrCol) radixSort(idx []int32) {
	if len(idx) < 2 {
		return
	}
	var vary [2]uint64 // low word, high word
	digit := 3
	if c.isWide {
		first := c.wide[0]
		for _, a := range c.wide {
			vary[0] |= a.Lo() ^ first.Lo()
			vary[1] |= a.Hi() ^ first.Hi()
		}
		digit = 15
	} else {
		first := c.narrow[0]
		for _, v := range c.narrow {
			vary[0] |= uint64(v ^ first)
		}
	}
	c.radix(idx, digit, vary)
}

// radix is one level of radixSort. The rows agree in every key byte above
// digit (0 is the low word's least significant byte, 15 the high word's
// most), and only bytes vary marks get a pass: an in-place counting pass
// (American flag sort: no second buffer) on the most significant one, then
// a recursion into each bucket. Passes are not stable, so a bucket of one
// repeated address is ordered by row and a bucket of ≤ 32 rows by
// insertion on (address, row).
func (c *addrCol) radix(idx []int32, digit int, vary [2]uint64) {
	for digit >= 0 && vary[digit>>3]>>(8*(digit&7))&0xff == 0 {
		digit--
	}
	if digit < 0 { // one address, repeated
		slices.Sort(idx)
		return
	}
	narrow, wide, isWide := c.narrow, c.wide, c.isWide
	if len(idx) <= 32 {
		for i := 1; i < len(idx); i++ {
			r, j := idx[i], i
			if isWide {
				for ; j > 0 && (wide[r].Less(wide[idx[j-1]]) || wide[r] == wide[idx[j-1]] && r < idx[j-1]); j-- {
					idx[j] = idx[j-1]
				}
			} else {
				for ; j > 0 && (narrow[r] < narrow[idx[j-1]] || narrow[r] == narrow[idx[j-1]] && r < idx[j-1]); j-- {
					idx[j] = idx[j-1]
				}
			}
			idx[j] = r
		}
		return
	}
	shift := uint(8 * (digit & 7))
	key := func(r int32) int {
		switch {
		case !isWide:
			return int(narrow[r] >> shift & 0xff)
		case digit >= 8:
			return int(wide[r].Hi() >> shift & 0xff)
		}
		return int(wide[r].Lo() >> shift & 0xff)
	}
	var head, tail [256]int32
	for _, r := range idx {
		tail[key(r)]++
	}
	sum := int32(0)
	for b, n := range tail {
		head[b] = sum
		sum += n
		tail[b] = sum
	}
	for b := range head {
		for head[b] < tail[b] {
			r := idx[head[b]]
			for k := key(r); k != b; k = key(r) {
				r, idx[head[k]] = idx[head[k]], r
				head[k]++
			}
			idx[head[b]] = r
			head[b]++
		}
	}
	lo := int32(0)
	for _, hi := range tail {
		if hi-lo > 1 {
			c.radix(idx[lo:hi], digit-1, vary)
		}
		lo = hi
	}
}
