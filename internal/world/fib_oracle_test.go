package world

import (
	"fmt"
	"sort"

	"repro/internal/ip"
)

// The FIB's reference check: every FIB test (v4 full-space and sampled, v6
// hitlist and hand-built worlds) holds the flat index to the radix tables
// and the host list it was built from through these two methods.

// Validate walks the whole scan space comparing the FIB against the radix
// and map structures it was built from: Routes.Lookup for routedness and
// AS, Countries.Lookup for geolocation, and the host index for service
// masks. Any disagreement is a world-construction bug.
func (f *FIB) Validate(w *World) error {
	for a := uint64(0); a < w.SpaceSize(); a++ {
		if err := f.ValidateAddr(w, ip.AddrFrom4(uint32(a))); err != nil {
			return err
		}
	}
	return nil
}

// ValidateAddr checks the FIB against the reference structures for one
// address.
func (f *FIB) ValidateAddr(w *World, addr ip.Addr) error {
	d := f.Resolve(addr)
	as, routed := w.Routes.Lookup(addr)
	if d.Routed != routed {
		return fmt.Errorf("world: fib %v routed=%v, radix routed=%v", addr, d.Routed, routed)
	}
	if routed && d.AS != as {
		return fmt.Errorf("world: fib %v AS=%v, radix AS=%v", addr, d.AS.Number, as.Number)
	}
	country, hasCountry := w.Countries.Lookup(addr)
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
