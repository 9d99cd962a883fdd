package world

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/proto"
)

// Hosts returns all hosts sorted by address, or nil for a streaming build
// (Spec.StreamHosts), which retains no host slice. The slice is shared;
// callers must not modify it.
func (w *World) Hosts() []Host { return w.hosts }

// NumHosts returns the number of distinct live machines. It answers from a
// placement-time counter, so it works in streaming builds too.
func (w *World) NumHosts() int { return w.numHosts }

// HostCount returns the number of hosts running the given protocol.
func (w *World) HostCount(p proto.Protocol) int { return w.counts[p] }

// Lookup returns the service mask of the host at addr.
func (w *World) Lookup(addr ip.Addr) (proto.Mask, bool) {
	d := w.fib.Resolve(addr)
	return d.Services, d.Host
}

// ASOf returns the AS announcing addr.
func (w *World) ASOf(addr ip.Addr) (*asn.AS, bool) {
	d := w.fib.Resolve(addr)
	return d.AS, d.Routed
}

// CountryOf returns the geolocation of addr.
func (w *World) CountryOf(addr ip.Addr) (geo.Country, bool) {
	d := w.fib.Resolve(addr)
	return d.Country, d.Country != ""
}

// FIB returns the world's flat destination index. The fabric resolves probe
// destinations through it directly.
func (w *World) FIB() *FIB { return w.fib }

// Resolve answers routedness, AS, country, and host services for an address
// in one flat-index pass.
func (w *World) Resolve(addr ip.Addr) Dest { return w.fib.Resolve(addr) }

// ProfileASN returns the AS number of a named profile.
func (w *World) ProfileASN(name string) (asn.ASN, bool) {
	n, ok := w.profileASN[name]
	return n, ok
}

// MustProfileASN returns the AS number of a named profile, panicking if the
// profile does not exist (programming error).
func (w *World) MustProfileASN(name string) asn.ASN {
	n, ok := w.profileASN[name]
	if !ok {
		panic(fmt.Sprintf("world: no profile %q", name))
	}
	return n
}

// ProfileNames returns all profile names sorted.
func (w *World) ProfileNames() []string {
	out := make([]string, 0, len(w.profileASN))
	for name := range w.profileASN {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HostsInAS returns the indices (into Hosts()) of the AS's hosts in
// ascending order, or nil for a streaming build (no host slice): the runs
// of the sorted host slice inside its prefixes.
func (w *World) HostsInAS(n asn.ASN) []int32 {
	a, ok := w.Routes.Get(n)
	if !ok || w.hosts == nil {
		return nil
	}
	var out []int32
	for _, pfx := range a.Prefixes {
		i := sort.Search(len(w.hosts), func(i int) bool { return !w.hosts[i].Addr.Less(pfx.First()) })
		for ; i < len(w.hosts) && pfx.Contains(w.hosts[i].Addr); i++ {
			out = append(out, int32(i))
		}
	}
	slices.Sort(out)
	return out
}

// ASWeights returns all AS numbers and their total host counts, in AS
// order; used to weight burst-outage sampling and analyses. The counts
// come from placement-time counters, so streaming builds answer too.
func (w *World) ASWeights() ([]asn.ASN, []uint64) {
	ases := w.Routes.All()
	nums := make([]asn.ASN, len(ases))
	weights := make([]uint64, len(ases))
	for i, a := range ases {
		nums[i] = a.Number
		weights[i] = w.asHostCount[a.Number]
	}
	return nums, weights
}

// SpaceSize returns the number of addresses in the scan space.
func (w *World) SpaceSize() uint64 { return 1 << w.SpaceBits }

// CountryHostCount returns the number of hosts running p geolocated to c.
func (w *World) CountryHostCount(c geo.Country, p proto.Protocol) int {
	n := 0
	for _, h := range w.hosts {
		if !h.Services.Has(p) {
			continue
		}
		if hc, ok := w.CountryOf(h.Addr); ok && hc == c {
			n++
		}
	}
	return n
}
