package world

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Family names the address family a world (and the studies run over it)
// lives in. The zero value is IPv4, so every existing v4 build is
// unchanged.
type Family uint8

const (
	FamilyIPv4 Family = iota
	FamilyIPv6
)

// String returns the telemetry-label spelling of the family.
func (f Family) String() string {
	if f == FamilyIPv6 {
		return "ipv6"
	}
	return "ipv4"
}

// ParseFamily parses "ipv4"/"ipv6" (the -family flag values).
func ParseFamily(s string) (Family, error) {
	switch s {
	case "", "ipv4", "4":
		return FamilyIPv4, nil
	case "ipv6", "6":
		return FamilyIPv6, nil
	}
	return FamilyIPv4, fmt.Errorf("world: unknown address family %q", s)
}

// V6Spec configures the seeded IPv6 world. Unlike the v4 spec there is no
// notion of covering a scan space: announced space is a handful of routed
// /32s whose hosts cluster into dense /64 islands, mirroring how real v6
// deployments concentrate into subnets that hitlists discover (Richter et
// al.; see DESIGN.md § 11). The zero value is not valid; use DefaultV6Spec
// or TestV6Spec.
type V6Spec struct {
	// Seed drives all randomness in the world.
	Seed uint64
	// Providers is the number of routed /32s (default 6). Each gets its
	// own AS and registration country.
	Providers int
	// IslandsPerProvider is the number of dense /64 islands inside each
	// /32 (default 8).
	IslandsPerProvider int
	// HostsPerIsland is the number of live machines per island
	// (default 48), scattered over a small low-IID range so islands are
	// dense the way DHCPv6/static server subnets are.
	HostsPerIsland int
	// StaleFrac sizes the hitlist's stale entries — routed addresses with
	// no machine behind them, the decayed fraction every real hitlist
	// carries — as a fraction of the live host count (default 0.15).
	StaleFrac float64
	// UnroutedFrac sizes the hitlist's entries outside announced space
	// (default 0.10); the v6 analog of scanning into dark space.
	UnroutedFrac float64
}

// DefaultV6Spec returns the v6 world used by cmd/originscan -family=ipv6:
// ≈2.3k live hosts across 48 islands.
func DefaultV6Spec(seed uint64) V6Spec {
	return V6Spec{Seed: seed}
}

// TestV6Spec returns a small v6 world for unit tests (≈290 hosts).
func TestV6Spec(seed uint64) V6Spec {
	return V6Spec{Seed: seed, Providers: 3, IslandsPerProvider: 4, HostsPerIsland: 24}
}

func (s V6Spec) withDefaults() (V6Spec, error) {
	if s.Providers == 0 {
		s.Providers = 6
	}
	if s.IslandsPerProvider == 0 {
		s.IslandsPerProvider = 8
	}
	if s.HostsPerIsland == 0 {
		s.HostsPerIsland = 48
	}
	if s.StaleFrac == 0 {
		s.StaleFrac = 0.15
	}
	if s.UnroutedFrac == 0 {
		s.UnroutedFrac = 0.10
	}
	if s.Providers < 1 || s.Providers > 256 {
		return s, fmt.Errorf("world: providers %d out of [1, 256]", s.Providers)
	}
	if s.IslandsPerProvider < 1 || s.HostsPerIsland < 1 {
		return s, fmt.Errorf("world: islands/hosts per island must be positive")
	}
	if s.StaleFrac < 0 || s.UnroutedFrac < 0 {
		return s, fmt.Errorf("world: negative hitlist fractions")
	}
	return s, nil
}

// v6ProviderBase returns the /32 announced by provider i: 2a0i::/32-style
// well-separated documentation-flavored space.
func v6ProviderBase(i int) ip.Addr {
	return ip.AddrFrom128(uint64(0x2a00_0000|uint32(i)<<8)<<32, 0)
}

// v6SourceBase is where origin scanner source addresses live: inside
// 2001:db8::/32, deliberately outside every provider /32 so sources are
// unrouted space exactly like the v4 world's source block.
var v6SourceBase = ip.AddrFrom128(0x2001_0db8_5ca0_0000, 1)

// BuildV6 generates a seeded sparse IPv6 world: Providers routed /32s,
// each with an AS, a registration country, and IslandsPerProvider dense
// /64 islands of HostsPerIsland machines; plus a deterministic hitlist of
// live, stale, and unrouted addresses (Hitlist) that stands in for the
// external target lists real v6 scanning starts from. Generation is
// deterministic: the same spec yields the same world and hitlist, bit for
// bit.
func BuildV6(ctx context.Context, spec V6Spec) (*World, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, pipeline.Tag(pipeline.ErrBadConfig, err)
	}
	w := &World{
		Family:      FamilyIPv6,
		Spec:        Spec{Seed: spec.Seed},
		Key:         rng.NewKey(spec.Seed).Derive("world6"),
		Countries:   geo.NewRegistry(geo.DefaultCountries()),
		Routes:      asn.NewTable(),
		asHostCount: make(map[asn.ASN]uint64),
		profileASN:  make(map[string]asn.ASN),
	}

	// --- 1. Providers: one AS + /32 each, countries drawn from the
	// registry's weight distribution. ---
	countries := w.Countries.Countries()
	totalW := w.Countries.TotalWeight()
	provStream := w.Key.Derive("v6providers").Stream()
	type provider struct {
		as   *asn.AS
		base ip.Addr
	}
	provs := make([]provider, spec.Providers)
	for i := range provs {
		u := provStream.Float64() * totalW
		c := countries[len(countries)-1].Code
		for _, ci := range countries {
			if u -= ci.Weight; u <= 0 {
				c = ci.Code
				break
			}
		}
		base := v6ProviderBase(i)
		pfx := ip.MakePrefix(base, 32)
		a := &asn.AS{
			Number:   asn.ASN(200000 + i),
			Name:     fmt.Sprintf("%s v6 Provider %d", c, 200000+i),
			Country:  c,
			Kind:     genericKind(provStream, c),
			Prefixes: []ip.Prefix{pfx},
		}
		if err := w.Routes.Register(a); err != nil {
			return nil, err
		}
		provs[i] = provider{as: a, base: base}
	}
	if err := ctx.Err(); err != nil {
		return nil, pipeline.Canceled(err)
	}

	// --- 2. Islands and hosts. Each island is a /64 at a keyed random
	// subnet ID; its machines sit on low interface IDs drawn without
	// replacement from a window 4× the host count, so occupancy is ~25% —
	// dense enough that /64-level analyses have support, sparse enough
	// that stale hitlist entries have somewhere to point. ---
	var sm sampler
	for pi := range provs {
		p := &provs[pi]
		stream := w.Key.Derive("v6islands").Stream(uint64(p.as.Number))
		subnets := make(map[uint64]bool, spec.IslandsPerProvider)
		for len(subnets) < spec.IslandsPerProvider {
			subnets[stream.Uint64n(1<<32)] = true
		}
		ids := make([]uint64, 0, len(subnets))
		for s := range subnets {
			ids = append(ids, s)
		}
		slices.Sort(ids)
		for _, sub := range ids {
			islandHi := p.base.Hi() | sub
			window := 4 * spec.HostsPerIsland
			for _, off := range sm.draw(stream, window, spec.HostsPerIsland) {
				addr := ip.AddrFrom128(islandHi, uint64(off)+1)
				w.addHost(addr, v6Mask(stream))
			}
			w.asHostCount[p.as.Number] += uint64(spec.HostsPerIsland)
		}
		if err := ctx.Err(); err != nil {
			return nil, pipeline.Canceled(err)
		}
	}
	// Hosts were generated per island, not globally ordered; v6 worlds are
	// small enough to sort in place (no streaming build).
	slices.SortFunc(w.hosts, func(a, b Host) int { return a.Addr.Compare(b.Addr) })

	// --- 3. Origins, destination index. ---
	w.Origins = origin.NewDirectory(v6SourceBase)
	w.fib = buildFIB6(w, w.hosts)

	// --- 4. Hitlist: every live host, plus stale entries (routed islands,
	// dead IIDs above the occupancy window) and unrouted entries, in a
	// keyed shuffle — the order a target list arrives in has nothing to do
	// with address order. ---
	hl := make([]ip.Addr, 0, w.numHosts)
	for i := range w.hosts {
		hl = append(hl, w.hosts[i].Addr)
	}
	hostIdx := make([][]int32, len(provs))
	for i := range provs {
		hostIdx[i] = w.HostsInAS(provs[i].as.Number)
	}
	hlStream := w.Key.Derive("v6hitlist").Stream()
	nStale := int(spec.StaleFrac * float64(w.numHosts))
	for i := 0; i < nStale; i++ {
		pi := hlStream.Intn(len(provs))
		// Reuse an existing island's /64 when possible so stale entries
		// sit beside live machines the way decayed hitlist entries do.
		islandHi := provs[pi].base.Hi() | hlStream.Uint64n(1<<32)
		if idx := hostIdx[pi]; len(idx) > 0 {
			islandHi = w.hosts[idx[hlStream.Intn(len(idx))]].Addr.Hi()
		}
		hl = append(hl, ip.AddrFrom128(islandHi, 1<<16+hlStream.Uint64n(1<<20)))
	}
	nUnrouted := int(spec.UnroutedFrac * float64(w.numHosts))
	for i := 0; i < nUnrouted; i++ {
		hl = append(hl, ip.AddrFrom128(0x2001_0db8_0000_0000|hlStream.Uint64n(1<<32),
			hlStream.Uint64()))
	}
	hlStream.Shuffle(len(hl), func(i, j int) { hl[i], hl[j] = hl[j], hl[i] })
	w.hitlist = hl
	w.V6Spec = spec
	return w, nil
}

// v6Mask draws one host's service mask: web-heavy like the v4 worlds,
// with an SSH overlay.
func v6Mask(s *rng.SplitMix64) proto.Mask {
	var m proto.Mask
	switch u := s.Float64(); {
	case u < 0.40:
		m = proto.Bit(proto.HTTP) | proto.Bit(proto.HTTPS)
	case u < 0.70:
		m = proto.Bit(proto.HTTP)
	case u < 0.90:
		m = proto.Bit(proto.HTTPS)
	default:
		m = proto.Bit(proto.SSH)
	}
	if !m.Has(proto.SSH) && s.Float64() < 0.20 {
		m = m.With(proto.SSH)
	}
	return m
}

// Hitlist returns the world's scan target list (nil for v4 worlds): the
// deterministic stand-in for the externally gathered hitlists real IPv6
// scanning is driven by. The slice is shared; callers must not modify it.
func (w *World) Hitlist() []ip.Addr { return w.hitlist }
