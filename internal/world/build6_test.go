package world

import (
	"context"
	"testing"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/proto"
)

func buildV6(t *testing.T, spec V6Spec) *World {
	t.Helper()
	w, err := BuildV6(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBuildV6Deterministic pins that the same spec yields the same world:
// hosts, hitlist order, and AS table.
func TestBuildV6Deterministic(t *testing.T) {
	a := buildV6(t, TestV6Spec(42))
	b := buildV6(t, TestV6Spec(42))
	if a.NumHosts() != b.NumHosts() {
		t.Fatalf("host counts differ: %d vs %d", a.NumHosts(), b.NumHosts())
	}
	ha, hb := a.Hitlist(), b.Hitlist()
	if len(ha) != len(hb) {
		t.Fatalf("hitlist lengths differ: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("hitlist diverges at %d: %v vs %v", i, ha[i], hb[i])
		}
	}
	if a.Routes.Len() != b.Routes.Len() {
		t.Fatalf("AS counts differ: %d vs %d", a.Routes.Len(), b.Routes.Len())
	}
}

// TestBuildV6Shape checks the world's structure: the configured number of
// providers and hosts, all-v6 addresses, and a hitlist holding every live
// host plus the stale and unrouted tails.
func TestBuildV6Shape(t *testing.T) {
	spec := TestV6Spec(7)
	w := buildV6(t, spec)
	if w.Family != FamilyIPv6 {
		t.Fatalf("family = %v, want ipv6", w.Family)
	}
	wantHosts := spec.Providers * spec.IslandsPerProvider * spec.HostsPerIsland
	if w.NumHosts() != wantHosts {
		t.Fatalf("%d hosts, want %d", w.NumHosts(), wantHosts)
	}
	if w.Routes.Len() != spec.Providers {
		t.Fatalf("%d ASes, want %d", w.Routes.Len(), spec.Providers)
	}
	if n := w.HostCount(proto.HTTP); n == 0 || n > wantHosts {
		t.Fatalf("HTTP host count %d out of range", n)
	}

	// Default stale/unrouted fractions: 15% + 10% on top of live hosts.
	hl := w.Hitlist()
	want := wantHosts + int(0.15*float64(wantHosts)) + int(0.10*float64(wantHosts))
	if len(hl) != want {
		t.Fatalf("hitlist has %d entries, want %d", len(hl), want)
	}
	onList := map[string]bool{}
	for _, a := range hl {
		if a.Is4() {
			t.Fatalf("hitlist entry %v is IPv4", a)
		}
		onList[a.String()] = true
	}
	fib := w.FIB()
	live, unrouted := 0, 0
	for i := range w.hosts {
		a := w.hosts[i].Addr
		if !onList[a.String()] {
			t.Fatalf("live host %v missing from hitlist", a)
		}
		if !fib.Routed(a) {
			t.Fatalf("live host %v not routed", a)
		}
		live++
	}
	for _, a := range hl {
		if !fib.Routed(a) {
			unrouted++
		}
	}
	if unrouted == 0 {
		t.Fatal("no unrouted hitlist entries; want a dark-space tail")
	}
	if live != wantHosts {
		t.Fatalf("checked %d live hosts, want %d", live, wantHosts)
	}
}

// TestBuildV6SeedsDiffer checks different seeds give different worlds (the
// hitlist shuffle and island placement must actually consume the seed).
func TestBuildV6SeedsDiffer(t *testing.T) {
	a := buildV6(t, TestV6Spec(1))
	b := buildV6(t, TestV6Spec(2))
	ha, hb := a.Hitlist(), b.Hitlist()
	if len(ha) == len(hb) {
		same := true
		for i := range ha {
			if ha[i] != hb[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical hitlists")
		}
	}
}

// TestParseFamily pins the -family flag values.
func TestParseFamily(t *testing.T) {
	for s, want := range map[string]Family{
		"": FamilyIPv4, "ipv4": FamilyIPv4, "4": FamilyIPv4,
		"ipv6": FamilyIPv6, "6": FamilyIPv6,
	} {
		got, err := ParseFamily(s)
		if err != nil || got != want {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseFamily("ipv5"); err == nil {
		t.Error("ParseFamily accepted ipv5")
	}
}

// checkFIB6 holds the v6 FIB to the reference (longest-prefix-match tables
// over the announcements, host index: ValidateAddr) at every address in
// addrs, and holds ResolveBatch and Routed to Resolve at the same addresses.
func checkFIB6(t *testing.T, name string, w *World, addrs []ip.Addr) {
	t.Helper()
	f := w.FIB()
	batch := make([]Dest, len(addrs))
	f.ResolveBatch(addrs, batch)
	for i, a := range addrs {
		if err := f.ValidateAddr(w, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := f.Resolve(a)
		if batch[i] != d {
			t.Fatalf("%s: ResolveBatch(%v) = %+v, Resolve = %+v", name, a, batch[i], d)
		}
		if f.Routed(a) != d.Routed {
			t.Fatalf("%s: Routed(%v) = %v, Resolve.Routed = %v", name, a, !d.Routed, d.Routed)
		}
	}
}

// hostProbes returns the addresses where a /120 block index can go wrong:
// every host, its neighbours, and both edges of its /120.
func hostProbes(w *World) []ip.Addr {
	var addrs []ip.Addr
	for _, h := range w.Hosts() {
		base := ip.AddrFrom128(h.Addr.Hi(), h.Addr.Lo()&^0xff)
		addrs = append(addrs, h.Addr, h.Addr.Sub(1), h.Addr.Add(1), base, base.Add(255))
	}
	return addrs
}

// TestFIB6MatchesReference is the v6 FIB's differential proof: the hashed
// /120-block index (with its span-search fallback) must agree with the radix
// routing and geolocation tables and the host index on every hitlist entry
// (live, stale and unrouted), every host and its neighbours, and both edges
// of every host's /120. The generated worlds cover the unit-test world, the
// bench hitlist world (64 × 8 × 24) and islands spread over two /120s; the
// hand-built ones cover what the generator never makes: a prefix longer than
// /120 that splits a host block between two ASes and leaves part of another
// unannounced, and a prefix with no country.
func TestFIB6MatchesReference(t *testing.T) {
	for name, spec := range map[string]V6Spec{
		"test-spec":          TestV6Spec(42),
		"bench-spec":         {Seed: 5, Providers: 64, IslandsPerProvider: 8, HostsPerIsland: 24},
		"two-blocks-per-/64": {Seed: 9, Providers: 4, IslandsPerProvider: 3, HostsPerIsland: 100},
	} {
		w := buildV6(t, spec)
		checkFIB6(t, name, w, append(hostProbes(w), w.Hitlist()...))
	}
	if n := buildV6(t, V6Spec{Seed: 9, Providers: 4, IslandsPerProvider: 3, HostsPerIsland: 100}).FIB().NumBlocks(); n <= 4*3 {
		t.Errorf("HostsPerIsland 100 gave %d host blocks for 12 islands; want islands spanning two /120s", n)
	}

	w := handBuiltV6(t, []handPrefix{
		{200001, "2a01:0:0:1::/121", "US"},
		{200002, "2a01:0:0:1::80/121", "DE"},
		{200003, "2a01:0:0:2::10/124", "FR"},
		{200004, "2a02::/48", ""},
	}, []string{
		"2a01:0:0:1::5", "2a01:0:0:1::7f", "2a01:0:0:1::80", "2a01:0:0:1::ff",
		"2a01:0:0:2::10", "2a01:0:0:2::1f",
		"2a02::1", "2a02::100", "2a02:0:0:5::ab",
	})
	if len(w.FIB().mixed) != 2*256 {
		t.Errorf("hand-built world has %d per-address entries, want two split /120s", len(w.FIB().mixed))
	}
	addrs := hostProbes(w)
	for _, blk := range []string{"2a01:0:0:1::", "2a01:0:0:2::", "2a02::"} {
		base := ip.MustParseAddr(blk)
		for off := uint64(0); off < 512; off++ {
			addrs = append(addrs, base.Add(off))
		}
	}
	checkFIB6(t, "hand-built", w, addrs)
	if d := w.FIB().Resolve(ip.MustParseAddr("2a02::1")); !d.Host || !d.Routed || d.Country != "" {
		t.Errorf("country-less host resolves to %+v", d)
	}
}

// handPrefix is one announcement of a hand-built v6 world: an AS number, its
// prefix, and the prefix's country ("" for none).
type handPrefix struct {
	as      asn.ASN
	prefix  string
	country geo.Country
}

// handBuiltV6 assembles a v6 world from explicit announcements and hosts,
// the way BuildV6 does from generated ones.
func handBuiltV6(t *testing.T, prefixes []handPrefix, hosts []string) *World {
	t.Helper()
	w := &World{
		Family:    FamilyIPv6,
		Countries: geo.NewRegistry(geo.DefaultCountries()),
		Routes:    asn.NewTable(),
	}
	for _, hp := range prefixes {
		a := &asn.AS{Number: hp.as, Name: hp.prefix}
		a.Announce(ip.MustParsePrefix(hp.prefix), hp.country)
		if err := w.Routes.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hosts {
		w.addHost(ip.MustParseAddr(h), proto.Mask(1+i%7))
	}
	w.fib = buildFIB6(w, w.hosts)
	return w
}

// TestFIB6MemFootprint pins that a v6 FIB's footprint counts what it holds:
// non-zero, and growing with the host count but no faster than it (islands
// of 4× the hosts: 4× the masks, twice the blocks, the same spans).
func TestFIB6MemFootprint(t *testing.T) {
	spec := TestV6Spec(3)
	one := buildV6(t, spec).FIB().MemFootprint()
	spec.HostsPerIsland *= 4
	four := buildV6(t, spec).FIB().MemFootprint()
	if one == 0 || four <= one || four > 4*one {
		t.Fatalf("footprint %d B at 1× hosts, %d B at 4×: want 0 < 1× < 4× ≤ 4·(1×)", one, four)
	}
}
