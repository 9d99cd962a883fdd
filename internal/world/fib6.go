package world

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/proto"
)

// The IPv6 side of the FIB.
//
// The per-/24 directory that makes the v4 FIB flat is meaningless over a
// 2^128 universe: announced v6 space is a handful of variable-length
// prefixes (a few /32s in the seeded world) whose interiors are almost
// entirely dark, and the hosts inside them cluster into dense /64 islands.
// So the v6 resolve path is keyed on the prefixes themselves: a sorted,
// disjoint list of [first, last] address spans carrying the interned
// AS/country indices, binary-searched per lookup, plus a sorted host
// address column with a parallel service-mask column for the exact-match
// host test. Both searches are O(log n) over tiny n — the v6 world has
// tens of spans and thousands of hosts — and allocation-free, preserving
// the probe-path contract the v4 side set.

// fib6Span is one announced IPv6 prefix flattened to an address interval.
type fib6Span struct {
	first, last ip.Addr
	asIdx       int32 // index into FIB.ases
	ctryIdx     int32 // index into FIB.countries, or -1
}

// span6Of returns the span containing a, or nil.
func (f *FIB) span6Of(a ip.Addr) *fib6Span {
	// First span whose last >= a; it contains a iff its first <= a.
	i := sort.Search(len(f.spans6), func(i int) bool { return !f.spans6[i].last.Less(a) })
	if i == len(f.spans6) || a.Less(f.spans6[i].first) {
		return nil
	}
	return &f.spans6[i]
}

// resolve6 is Resolve for non-v4 addresses: span search for routedness and
// annotations, host-column search for services.
func (f *FIB) resolve6(a ip.Addr) Dest {
	var d Dest
	sp := f.span6Of(a)
	if sp == nil {
		return d
	}
	d.Routed = true
	d.AS = f.ases[sp.asIdx]
	d.ASIdx = sp.asIdx
	if sp.ctryIdx >= 0 {
		d.Country = f.countries[sp.ctryIdx]
	}
	if i := f.hosts6.Search(a); i < len(f.hosts6) && f.hosts6[i] == a {
		d.Services = f.masks6[i]
		d.Host = true
	}
	return d
}

// routed6 is Routed for non-v4 addresses.
func (f *FIB) routed6(a ip.Addr) bool { return f.span6Of(a) != nil }

// buildFIB6 constructs a FIB whose v4 side is empty (every v4 lookup
// resolves to the zero Dest) and whose v6 side indexes the world's
// announced prefixes and host list. Hosts must be sorted by address;
// every host must sit inside an announced prefix.
func buildFIB6(w *World, hosts []Host) *FIB {
	f := &FIB{ases: w.Routes.All()}
	ctryIdxOf := make(map[geo.Country]int32)
	for ai, a := range f.ases {
		for _, pfx := range a.Prefixes {
			ci := int32(-1)
			if c, ok := w.Countries.Lookup(pfx.First()); ok {
				if idx, seen := ctryIdxOf[c]; seen {
					ci = idx
				} else {
					ci = int32(len(f.countries))
					f.countries = append(f.countries, c)
					ctryIdxOf[c] = ci
				}
			}
			f.spans6 = append(f.spans6, fib6Span{
				first: pfx.First(), last: pfx.Last(),
				asIdx: int32(ai), ctryIdx: ci,
			})
		}
	}
	sort.Slice(f.spans6, func(i, j int) bool { return f.spans6[i].first.Less(f.spans6[j].first) })
	for i := 1; i < len(f.spans6); i++ {
		if !f.spans6[i-1].last.Less(f.spans6[i].first) {
			panic("world: overlapping IPv6 announcements")
		}
	}
	f.hosts6 = make(ip.AddrSlice, len(hosts))
	f.masks6 = make([]proto.Mask, len(hosts))
	for i, h := range hosts {
		f.hosts6[i] = h.Addr
		f.masks6[i] = h.Services
	}
	if !f.hosts6.IsSorted() {
		panic("world: IPv6 hosts not sorted")
	}
	return f
}
