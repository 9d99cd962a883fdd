package world

import (
	"context"
	"fmt"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/rng"
)

// Host is one live machine in the world.
type Host struct {
	Addr     ip.Addr
	Services proto.Mask
}

// World is the generated synthetic Internet.
type World struct {
	Spec Spec
	// V6Spec is set instead of Spec for IPv6 worlds (BuildV6).
	V6Spec V6Spec
	// Family is the world's address family (zero value: IPv4).
	Family Family
	Key    rng.Key

	Countries *geo.Registry
	Routes    *asn.Table
	Origins   *origin.Directory

	hosts       []Host             // sorted by address; nil when Spec.StreamHosts
	asHostCount map[asn.ASN]uint64 // hosts per AS, maintained during placement
	numHosts    int
	fib         *FIB // sparse per-/24 destination index (hot-path lookups)

	profileASN map[string]asn.ASN

	// SpaceBits is the number of address bits covering every announced
	// prefix and the scanner source block: the ZMap scan space. Zero for
	// IPv6 worlds, which are scanned by hitlist, not by space sweep.
	SpaceBits uint8

	// hitlist is the v6 world's scan target list (see Hitlist).
	hitlist []ip.Addr

	counts [proto.N]int
}

// allocator hands out aligned, disjoint prefixes from the bottom of the
// address space.
type allocator struct {
	next    uint64
	largest uint64 // size of the largest prefix handed out
}

// alloc returns a prefix covering at least want addresses (rounded up to a
// power of two, base aligned to its size).
func (a *allocator) alloc(want uint64) (ip.Prefix, error) {
	size := uint64(1)
	bits := uint8(32)
	for size < want {
		size <<= 1
		bits--
	}
	// Align.
	base := (a.next + size - 1) &^ (size - 1)
	if base+size > 1<<32 {
		return ip.Prefix{}, fmt.Errorf("world: address space exhausted")
	}
	a.next = base + size
	a.largest = max(a.largest, size)
	return ip.MakePrefix(ip.AddrFrom4(uint32(base)), bits), nil
}

// portion is one (AS, country) slice of hosts to place.
type portion struct {
	as      *asn.AS
	country geo.Country
	nHTTP   int
	nHTTPS  int
	nSSH    int
	// first is the index in as.Prefixes of the portion's first chunk; its
	// chunks are the prefixes allocate appended from there on.
	first int
}

// maxChunk is the largest prefix placement allocates: a /16.
const maxChunk = 1 << 16

// Build generates a world from the spec. Generation is deterministic: the
// same spec yields the same world, bit for bit. The context is checked
// between generation phases and per placed portion, so canceling a large
// build returns promptly with pipeline.ErrCanceled; spec validation
// failures are tagged pipeline.ErrBadConfig.
//
// The build runs in passes, each over state sized before it starts:
// portions (exactly counted), prefix allocation for all of them, AS
// registration, the FIB's painted blocks, and last the hosts, scattered
// chunk by chunk through scratch sized to the largest chunk and written
// straight into the FIB in address order.
func Build(ctx context.Context, spec Spec) (*World, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, pipeline.Tag(pipeline.ErrBadConfig, err)
	}
	w := &World{
		Spec:        spec,
		Key:         rng.NewKey(spec.Seed).Derive("world"),
		Countries:   geo.NewRegistry(geo.DefaultCountries()),
		Routes:      asn.NewTable(),
		asHostCount: make(map[asn.ASN]uint64),
		profileASN:  make(map[string]asn.ASN),
	}
	totalHTTP, totalHTTPS, totalSSH := spec.Targets()

	// --- 1. Profile portions, and the host mass they take from each
	// country. ---
	profiles := DefaultProfiles()
	profByCountry := map[geo.Country][3]int{}
	var profPortions []portion
	for i := range profiles {
		p := &profiles[i]
		a := &asn.AS{Number: p.ASN, Name: p.Name, Country: p.Country, Kind: p.Kind}
		w.profileASN[p.Name] = p.ASN
		for _, gm := range p.geoMix() {
			nH := scaleCount(float64(totalHTTP)*p.HTTPShare*gm.Frac, 3)
			nS := scaleCount(float64(totalHTTPS)*p.HTTPSShare*gm.Frac, 2)
			nSSH := scaleCount(float64(totalSSH)*p.SSHShare*gm.Frac, 0)
			profPortions = append(profPortions, portion{as: a, country: gm.Country, nHTTP: nH, nHTTPS: nS, nSSH: nSSH})
			acc := profByCountry[gm.Country]
			acc[0] += nH
			acc[1] += nS
			acc[2] += nSSH
			profByCountry[gm.Country] = acc
		}
	}

	// --- 2. Generic AS portions filling each country's budget, counted
	// first so the portion list is allocated once. ---
	countries := w.Countries.Countries()
	totalW := w.Countries.TotalWeight()
	generic := func(c geo.CountryInfo, emit func(nH, nS, nSSH int, kind asn.Kind)) {
		share := c.Weight / totalW
		remH := int(float64(totalHTTP)*share) - profByCountry[c.Code][0]
		remS := int(float64(totalHTTPS)*share) - profByCountry[c.Code][1]
		remSSH := int(float64(totalSSH)*share) - profByCountry[c.Code][2]
		stream := w.Key.Derive("generic").Stream(uint64(len(c.Code)), uint64(c.Code[0])<<8|uint64(c.Code[1]))
		for remH > 0 || remS > 0 || remSSH > 0 {
			// AS size: heavy-tailed. Most ASes are small (the real
			// Internet's AS size distribution has a long light tail
			// of tiny networks), with occasional giants beyond the
			// named profile ASes.
			u := stream.Float64()
			f := 0.15 + 5*u*u*u*u*u
			if stream.Float64() < 0.02 {
				f *= 25
			}
			m := int(float64(spec.GenericASHosts) * f)
			if m < 8 {
				m = 8
			}
			tot := remH + remS + remSSH
			nH := min(remH, max(0, m*remH/max(tot, 1)))
			nS := min(remS, max(0, m*remS/max(tot, 1)))
			nSSH := min(remSSH, max(0, m-nH-nS))
			if nH == 0 && nS == 0 && nSSH == 0 {
				// Remainders too small to split: dump them.
				nH, nS, nSSH = remH, remS, remSSH
			}
			emit(nH, nS, nSSH, genericKind(stream, c.Code))
			remH -= nH
			remS -= nS
			remSSH -= nSSH
		}
	}
	nGeneric := 0
	for _, c := range countries {
		generic(c, func(int, int, int, asn.Kind) { nGeneric++ })
	}
	portions := append(make([]portion, 0, len(profPortions)+nGeneric), profPortions...)
	// Generic ASNs count up from 100000 but must never collide with a
	// profile ASN: a collision makes Routes.Register drop one of the two
	// ASes, leaving its hosts unannounced (buildFIB then fails on the
	// unpainted block). Small worlds never reach the first profile number
	// above 100000 (132827), so skipping keeps them bit-identical; large
	// worlds (Scale >= ~0.07, where genASN crosses it) need the skip.
	profileNums := make(map[asn.ASN]bool, len(profiles))
	for i := range profiles {
		profileNums[profiles[i].ASN] = true
	}
	genASN := asn.ASN(100000)
	for _, c := range countries {
		generic(c, func(nH, nS, nSSH int, kind asn.Kind) {
			for profileNums[genASN] {
				genASN++
			}
			a := &asn.AS{
				Number:  genASN,
				Name:    fmt.Sprintf("%s Network %d", c.Code, genASN),
				Country: c.Code,
				Kind:    kind,
			}
			genASN++
			portions = append(portions, portion{as: a, country: c.Code, nHTTP: nH, nHTTPS: nS, nSSH: nSSH})
		})
	}

	// --- 3. Allocate every portion's prefixes, bottom-up. ---
	var alloc allocator
	machines := 0
	for i := range portions {
		if err := ctx.Err(); err != nil {
			return nil, pipeline.Canceled(err)
		}
		n, err := w.allocate(&alloc, &portions[i])
		if err != nil {
			return nil, err
		}
		machines += n
	}

	// --- 4. Register ASes (prefixes accumulated during allocation). ---
	for i := range portions {
		p := &portions[i]
		if _, done := w.Routes.Get(p.as.Number); done {
			continue
		}
		if err := w.Routes.Register(p.as); err != nil {
			return nil, err
		}
	}

	// --- 5. Scanner source block, outside announced space. ---
	srcPrefix, err := alloc.alloc(128)
	if err != nil {
		return nil, err
	}
	w.Origins = origin.NewDirectory(srcPrefix.First())

	// --- 6. Scan space size: forced by the spec (SpaceBits=32 sizes the
	// full-IPv4 sweep) or derived from the top of allocated space. ---
	if spec.SpaceBits != 0 {
		if alloc.next > uint64(1)<<spec.SpaceBits {
			return nil, pipeline.Tag(pipeline.ErrBadConfig, fmt.Errorf(
				"world: forced space 2^%d does not cover allocated space (top %d)", spec.SpaceBits, alloc.next))
		}
		w.SpaceBits = spec.SpaceBits
	} else {
		w.SpaceBits = bitsFor(alloc.next)
	}

	// --- 7. Sparse destination index over the finished topology, then the
	// hosts, scattered into it portion by portion. The allocator handed
	// out prefixes bottom-up and each chunk streams in address order, so
	// hosts arrive globally sorted with no sort and no address-keyed map. ---
	f, err := buildFIB(w, machines)
	if err != nil {
		return nil, err
	}
	if !spec.StreamHosts {
		w.hosts = make([]Host, 0, machines)
	}
	sc := scatter{idx: make(sampler, 0, alloc.largest), marks: make([]proto.Mask, alloc.largest)}
	for i := range portions {
		if err := ctx.Err(); err != nil {
			return nil, pipeline.Canceled(err)
		}
		w.place(&portions[i], f, &sc)
	}
	w.fib = f
	return w, nil
}

// layout maps a portion's machines, in placement order, to service masks.
type layout struct {
	machines int
	web      int // machines serving HTTP and/or HTTPS, placed first
	both     int // web machines serving both, placed first of those
	bigger   proto.Protocol
	sshOnWeb int // web machines that also serve SSH, one every stride
	stride   int
}

func (w *World) layout(p *portion) layout {
	l := layout{web: max(p.nHTTP, p.nHTTPS), both: min(p.nHTTP, p.nHTTPS), bigger: proto.HTTP}
	if p.nHTTPS > p.nHTTP {
		l.bigger = proto.HTTPS
	}
	l.sshOnWeb = min(int(w.Spec.SSHWebOverlap*float64(p.nSSH)), l.web)
	if l.sshOnWeb > 0 {
		l.stride = max(l.web/l.sshOnWeb, 1)
	}
	l.machines = l.web + (p.nSSH - l.sshOnWeb)
	return l
}

// mask returns the services of the portion's i-th machine; never zero.
func (l *layout) mask(i int) proto.Mask {
	var m proto.Mask
	switch {
	case i < l.both:
		m = proto.Bit(proto.HTTP) | proto.Bit(proto.HTTPS)
	case i < l.web:
		m = proto.Bit(l.bigger)
	default:
		m = proto.Bit(proto.SSH)
	}
	// SSH overlay on web machines: spread evenly.
	if i < l.web && l.sshOnWeb > 0 && i%l.stride == 0 && i/l.stride < l.sshOnWeb {
		m = m.With(proto.SSH)
	}
	return m
}

// chunkHosts returns how many of left machines a chunk prefix takes.
func (w *World) chunkHosts(pfx ip.Prefix, left int) int {
	return min(left, max(int(float64(pfx.NumAddrs())*w.Spec.HostDensity), 1))
}

// allocate gives one portion its prefixes, chunks of at most /16 sized to
// the machines still to place, each geolocated to the portion's country,
// which must be in the catalogue. It returns the portion's machine count.
func (w *World) allocate(alloc *allocator, p *portion) (int, error) {
	machines := w.layout(p).machines
	p.first = len(p.as.Prefixes)
	for placed := 0; placed < machines; {
		left := machines - placed
		want := uint64(float64(left) / w.Spec.HostDensity)
		want = min(max(want, 8), maxChunk)
		pfx, err := alloc.alloc(want)
		if err != nil {
			return 0, err
		}
		if _, ok := w.Countries.Info(p.country); !ok {
			return 0, fmt.Errorf("world: unknown country %q", p.country)
		}
		p.as.Announce(pfx, p.country)
		placed += w.chunkHosts(pfx, left)
	}
	return machines, nil
}

// scatter is one build's placement scratch, sized to the largest chunk (at
// most maxChunk) and reused by every chunk: the sampler's index, and the
// mask each drawn offset of the current chunk gets (zero where no machine
// was drawn).
type scatter struct {
	idx   sampler
	marks []proto.Mask
}

// place scatters one portion's machines over the chunks allocate gave it.
// Each chunk draws its offsets with a keyed partial Fisher–Yates, gives
// them masks in draw order (the order placed advances in), then streams
// the marked offsets in address order into the FIB and the host counters.
func (w *World) place(p *portion, f *FIB, sc *scatter) {
	l := w.layout(p)
	placed := 0
	for _, pfx := range p.as.Prefixes[p.first:] {
		if placed == l.machines {
			break
		}
		size := int(pfx.NumAddrs())
		n := w.chunkHosts(pfx, l.machines-placed)
		stream := w.Key.Derive("scatter").Stream(uint64(p.as.Number), uint64(pfx.Base.V4()))
		for _, off := range sc.idx.draw(stream, size, n) {
			sc.marks[off] = l.mask(placed)
			placed++
		}
		base := pfx.Base.V4()
		for off, m := range sc.marks[:size] {
			if m == 0 {
				continue
			}
			sc.marks[off] = 0
			f.placeHost(base+uint32(off), m)
			w.addHost(ip.AddrFrom4(base+uint32(off)), m)
		}
		w.asHostCount[p.as.Number] += uint64(n)
	}
}

// sampler draws offsets without replacement by partial Fisher–Yates over a
// reused index scratch.
type sampler []uint32

// draw returns n ≤ size distinct offsets in [0, size), in draw order. It
// aliases the scratch, so it is valid until the next draw.
func (sm *sampler) draw(s *rng.SplitMix64, size, n int) []uint32 {
	if cap(*sm) < size {
		*sm = make(sampler, size)
	}
	idx := (*sm)[:size]
	for i := range idx {
		idx[i] = uint32(i)
	}
	for i := 0; i < n; i++ {
		j := i + s.Intn(size-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:n]
}

func (w *World) addHost(addr ip.Addr, m proto.Mask) {
	if !w.Spec.StreamHosts {
		w.hosts = append(w.hosts, Host{Addr: addr, Services: m})
	}
	w.numHosts++
	for _, p := range proto.All() {
		if m.Has(p) {
			w.counts[p]++
		}
	}
}

// scaleCount rounds a fractional host count, enforcing a minimum for
// non-zero shares so small-scale worlds keep every profile observable.
func scaleCount(f float64, minNonZero int) int {
	if f <= 0 {
		return 0
	}
	n := int(f + 0.5)
	if n < minNonZero {
		n = minNonZero
	}
	return n
}

// genericKind draws an AS kind appropriate for the country.
func genericKind(s *rng.SplitMix64, c geo.Country) asn.Kind {
	u := s.Float64()
	switch {
	case u < 0.40:
		return asn.KindISP
	case u < 0.70:
		return asn.KindHosting
	case u < 0.80:
		return asn.KindCloud
	case u < 0.86:
		return asn.KindAcademic
	case u < 0.90:
		return asn.KindConsumer
	case u < 0.94:
		return asn.KindFinancial
	case u < 0.97:
		return asn.KindGovernment
	default:
		return asn.KindMedia
	}
}

func bitsFor(n uint64) uint8 {
	b := uint8(0)
	for (uint64(1) << b) < n {
		b++
	}
	return b
}
