package ip

// AddrSlice is a sorted, duplicate-free slice of addresses: the address
// column of a sealed scan and of a trial's ground truth. Search finds an
// address by binary search; Union merges the trials' ground truths into the
// classifier's spine as one linear k-way merge, never a hash set. Which row
// of a scan holds a host is the results package's Join, not a helper here.
//
// The sortedness precondition is not checked on these paths: passing an
// unsorted or duplicated slice to Search or Union yields silently wrong
// (not panicking) results, because binary search and the merge cursors
// assume order. Slices produced by ScanResult's sealed columns, by a Join
// or by Union always satisfy the invariant; hand-built slices can be
// validated with IsSorted.
type AddrSlice []Addr

// Search returns the smallest index i with s[i] >= a (len(s) when none).
func (s AddrSlice) Search(a Addr) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Less(a) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether a is in the slice.
func (s AddrSlice) Contains(a Addr) bool {
	i := s.Search(a)
	return i < len(s) && s[i] == a
}

// IsSorted reports whether the slice is strictly ascending (sorted with no
// duplicates) — the sealed-column invariant.
func (s AddrSlice) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if !s[i-1].Less(s[i]) {
			return false
		}
	}
	return true
}

// Union returns the sorted union of the given sorted slices as a k-way
// merge. The inputs are not modified; the result is freshly allocated.
// Every input must be strictly ascending (see the AddrSlice invariant).
func Union(lists ...AddrSlice) AddrSlice {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return append(AddrSlice(nil), lists[0]...)
	}
	size := 0
	for _, l := range lists {
		if len(l) > size {
			size = len(l)
		}
	}
	out := make(AddrSlice, 0, size)
	pos := make([]int, len(lists))
	for {
		var min Addr
		found := false
		for i, l := range lists {
			if pos[i] < len(l) && (!found || l[pos[i]].Less(min)) {
				min, found = l[pos[i]], true
			}
		}
		if !found {
			return out
		}
		out = append(out, min)
		for i, l := range lists {
			for pos[i] < len(l) && l[pos[i]] == min {
				pos[i]++
			}
		}
	}
}
