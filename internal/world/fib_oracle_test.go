package world

import (
	"fmt"
	"sort"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
)

// The FIB's reference check: every FIB test (v4 full-space and sampled, v6
// hitlist and hand-built worlds) holds the flat index to longest-prefix-match
// tables over the world's announcements, and to its host list, through
// these two methods.

// fibRef is a world's longest-prefix-match reference: a radix table of the
// announcing AS and one of the country, each filled from the ASes' prefix
// lists and prefix countries.
type fibRef struct {
	w         *World
	routes    *ip.RadixTree[*asn.AS]
	countries *ip.RadixTree[geo.Country]
}

// lastRef is the reference of the world validated last: checks of one world
// run back to back, so each world's tables are built once.
var lastRef *fibRef

// refOf returns w's reference, building it unless it was the last one.
func refOf(w *World) *fibRef {
	if lastRef != nil && lastRef.w == w {
		return lastRef
	}
	r := &fibRef{w: w, routes: ip.NewRadixTree[*asn.AS](), countries: ip.NewRadixTree[geo.Country]()}
	for _, a := range w.Routes.All() {
		for i, pfx := range a.Prefixes {
			r.routes.Insert(pfx, a)
			if c := a.PrefixCountry(i); c != "" {
				r.countries.Insert(pfx, c)
			}
		}
	}
	lastRef = r
	return r
}

// Validate walks the whole scan space comparing the FIB against the
// reference: longest-prefix match over the announcements for routedness,
// AS and geolocation, and the host index for service masks. Any
// disagreement is a world-construction bug.
func (f *FIB) Validate(w *World) error {
	for a := uint64(0); a < w.SpaceSize(); a++ {
		if err := f.ValidateAddr(w, ip.AddrFrom4(uint32(a))); err != nil {
			return err
		}
	}
	return nil
}

// ValidateAddr checks the FIB against the reference for one address.
func (f *FIB) ValidateAddr(w *World, addr ip.Addr) error {
	d := f.Resolve(addr)
	ref := refOf(w)
	as, routed := ref.routes.Lookup(addr)
	if d.Routed != routed {
		return fmt.Errorf("world: fib %v routed=%v, radix routed=%v", addr, d.Routed, routed)
	}
	if routed && d.AS != as {
		return fmt.Errorf("world: fib %v AS=%v, radix AS=%v", addr, d.AS.Number, as.Number)
	}
	country, hasCountry := ref.countries.Lookup(addr)
	if (d.Country != "") != hasCountry || d.Country != country && hasCountry {
		return fmt.Errorf("world: fib %v country=%q, radix country=%q (present=%v)", addr, d.Country, country, hasCountry)
	}
	if w.hosts == nil {
		// Streaming build: the host slice was not retained, so the FIB's
		// presence bits are the only host record and there is no reference
		// to differ from.
		return nil
	}
	i := sort.Search(len(w.hosts), func(i int) bool { return !w.hosts[i].Addr.Less(addr) })
	isHost := i < len(w.hosts) && w.hosts[i].Addr == addr
	if d.Host != isHost {
		return fmt.Errorf("world: fib %v host=%v, index host=%v", addr, d.Host, isHost)
	}
	if isHost && d.Services != w.hosts[i].Services {
		return fmt.Errorf("world: fib %v services=%v, index services=%v", addr, d.Services, w.hosts[i].Services)
	}
	if !isHost && d.Services != 0 {
		return fmt.Errorf("world: fib %v services=%v for a non-host", addr, d.Services)
	}
	return nil
}
