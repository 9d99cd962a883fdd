package world

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
)

func buildTest(t *testing.T, seed uint64) *World {
	t.Helper()
	w, err := Build(context.Background(), TestSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildDeterministic(t *testing.T) {
	w1, w2 := buildTest(t, 7), buildTest(t, 7)
	if w1.NumHosts() != w2.NumHosts() {
		t.Fatalf("host counts differ: %d vs %d", w1.NumHosts(), w2.NumHosts())
	}
	h1, h2 := w1.Hosts(), w2.Hosts()
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("host %d differs: %+v vs %+v", i, h1[i], h2[i])
		}
	}
	if w1.SpaceBits != w2.SpaceBits {
		t.Error("space bits differ")
	}
}

func TestBuildDifferentSeedsDiffer(t *testing.T) {
	w1, w2 := buildTest(t, 1), buildTest(t, 2)
	same := 0
	h1, h2 := w1.Hosts(), w2.Hosts()
	n := len(h1)
	if len(h2) < n {
		n = len(h2)
	}
	for i := 0; i < n; i++ {
		if h1[i].Addr == h2[i].Addr {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical host placements")
	}
}

func TestHostCountsNearTargets(t *testing.T) {
	w := buildTest(t, 3)
	wantH, wantS, wantSSH := w.Spec.Targets()
	for _, c := range []struct {
		p    proto.Protocol
		want int
	}{{proto.HTTP, wantH}, {proto.HTTPS, wantS}, {proto.SSH, wantSSH}} {
		got := w.HostCount(c.p)
		// Profile minimums inflate small worlds a bit; allow 25%.
		if math.Abs(float64(got-c.want)) > 0.25*float64(c.want) {
			t.Errorf("%v hosts = %d, want ≈%d", c.p, got, c.want)
		}
	}
	// Paper ordering: HTTP > HTTPS > SSH.
	if !(w.HostCount(proto.HTTP) > w.HostCount(proto.HTTPS) && w.HostCount(proto.HTTPS) > w.HostCount(proto.SSH)) {
		t.Error("protocol population ordering violated")
	}
}

func TestHostsSortedAndUnique(t *testing.T) {
	w := buildTest(t, 4)
	hosts := w.Hosts()
	for i := 1; i < len(hosts); i++ {
		if !hosts[i-1].Addr.Less(hosts[i].Addr) {
			t.Fatalf("hosts not sorted/unique at %d: %v >= %v", i, hosts[i-1].Addr, hosts[i].Addr)
		}
	}
}

func TestEveryHostRoutedAndGeolocated(t *testing.T) {
	w := buildTest(t, 5)
	for _, h := range w.Hosts() {
		if h.Services == 0 {
			t.Fatalf("host %v has no services", h.Addr)
		}
		if _, ok := w.ASOf(h.Addr); !ok {
			t.Fatalf("host %v has no AS", h.Addr)
		}
		if _, ok := w.CountryOf(h.Addr); !ok {
			t.Fatalf("host %v has no country", h.Addr)
		}
	}
}

func TestLookupMatchesHostList(t *testing.T) {
	w := buildTest(t, 6)
	for _, h := range w.Hosts()[:100] {
		m, ok := w.Lookup(h.Addr)
		if !ok || m != h.Services {
			t.Fatalf("Lookup(%v) = %v,%v want %v", h.Addr, m, ok, h.Services)
		}
	}
	if _, ok := w.Lookup(ip.AddrFrom4(0xFFFFFFFF)); ok {
		t.Error("Lookup found a host outside the world")
	}
}

func TestProfilesPresent(t *testing.T) {
	w := buildTest(t, 8)
	for _, name := range []string{
		ProfDXTL, ProfEGI, ProfEnzu, ProfAkamai, ProfTelecomIT, ProfSparkle,
		ProfABCDE, ProfAlibabaHZ, ProfAlibabaCN, ProfBekkoame, ProfWebCentral,
		ProfCloudflare, ProfRuhrUni, ProfSKBroadband, ProfTegna, ProfWAK20,
	} {
		n, ok := w.ProfileASN(name)
		if !ok {
			t.Errorf("profile %q missing", name)
			continue
		}
		a, ok := w.Routes.Get(n)
		if !ok {
			t.Errorf("profile %q AS%d not registered", name, n)
			continue
		}
		if len(w.HostsInAS(n)) == 0 {
			t.Errorf("profile %q (AS%d, %s) has no hosts", name, n, a.Name)
		}
	}
}

func TestBulkFamiliesPresent(t *testing.T) {
	w := buildTest(t, 8)
	gov, fin, health, consumer := 0, 0, 0, 0
	for _, name := range w.ProfileNames() {
		switch {
		case IsUSGov(name):
			gov++
		case IsUSFinancial(name):
			fin++
		case IsUSHealthcare(name):
			health++
		case IsUSConsumer(name):
			consumer++
		}
	}
	if gov != NumUSGov || fin != NumUSFin || health != NumUSHealth || consumer != NumUSConsumer {
		t.Errorf("bulk families: gov=%d fin=%d health=%d consumer=%d", gov, fin, health, consumer)
	}
}

func TestDXTLGeoMix(t *testing.T) {
	w := buildTest(t, 9)
	n := w.MustProfileASN(ProfDXTL)
	byCountry := map[geo.Country]int{}
	for _, i := range w.HostsInAS(n) {
		h := w.Hosts()[i]
		c, _ := w.CountryOf(h.Addr)
		byCountry[c]++
	}
	if byCountry["HK"] == 0 || byCountry["ZA"] == 0 || byCountry["BD"] == 0 {
		t.Errorf("DXTL geo mix missing countries: %v", byCountry)
	}
	if byCountry["HK"] <= byCountry["BD"] {
		t.Errorf("DXTL HK portion should dominate BD: %v", byCountry)
	}
}

func TestGatewayIncGeolocatesUS(t *testing.T) {
	w := buildTest(t, 9)
	n := w.MustProfileASN(ProfGatewayInc)
	a, _ := w.Routes.Get(n)
	if a.Country != "JP" {
		t.Errorf("Gateway Inc registration country = %v, want JP", a.Country)
	}
	for _, i := range w.HostsInAS(n) {
		c, _ := w.CountryOf(w.Hosts()[i].Addr)
		if c != "US" {
			t.Fatalf("Gateway Inc host geolocates to %v, want US", c)
		}
	}
}

func TestSourceIPsOutsideAnnouncedSpace(t *testing.T) {
	w := buildTest(t, 10)
	for _, o := range w.Origins.All() {
		for _, src := range o.SourceIPs {
			if _, ok := w.ASOf(src); ok {
				t.Fatalf("source IP %v of %v is inside an announced prefix", src, o.ID)
			}
			if uint64(src.V4()) >= w.SpaceSize() {
				t.Fatalf("source IP %v outside scan space 2^%d", src, w.SpaceBits)
			}
		}
	}
}

func TestSpaceCoversAllHosts(t *testing.T) {
	w := buildTest(t, 11)
	for _, h := range w.Hosts() {
		if uint64(h.Addr.V4()) >= w.SpaceSize() {
			t.Fatalf("host %v outside scan space 2^%d", h.Addr, w.SpaceBits)
		}
	}
	// The space should not be wildly oversized: at least 1/8 occupancy of
	// announced prefixes is implied by density; just check the space is
	// within 2 doublings of the last host.
	last := w.Hosts()[w.NumHosts()-1].Addr
	if w.SpaceSize() > 8*uint64(last.V4()) {
		t.Errorf("space 2^%d much larger than last host %v", w.SpaceBits, last)
	}
}

func TestSlash24sHaveMultipleHosts(t *testing.T) {
	w := buildTest(t, 12)
	by24 := map[ip.Prefix]int{}
	for _, h := range w.Hosts() {
		by24[h.Addr.Slash24()]++
	}
	multi, single := 0, 0
	for _, n := range by24 {
		if n >= 2 {
			multi++
		} else {
			single++
		}
	}
	if multi < single {
		t.Errorf("/24 support too thin: %d multi-host vs %d single-host /24s", multi, single)
	}
}

func TestCountryPopulationsFollowWeights(t *testing.T) {
	w, err := Build(context.Background(), Spec{Seed: 1, Scale: 0.0002})
	if err != nil {
		t.Fatal(err)
	}
	us := w.CountryHostCount("US", proto.HTTP)
	mw := w.CountryHostCount("MW", proto.HTTP)
	if us < 10*mw {
		t.Errorf("US HTTP hosts %d should dwarf Malawi %d", us, mw)
	}
	cn := w.CountryHostCount("CN", proto.HTTP)
	if cn == 0 {
		t.Error("China has no hosts")
	}
}

func TestASWeights(t *testing.T) {
	w := buildTest(t, 13)
	nums, weights := w.ASWeights()
	if len(nums) != len(weights) || len(nums) == 0 {
		t.Fatalf("ASWeights returned %d/%d", len(nums), len(weights))
	}
	var total uint64
	for _, wt := range weights {
		total += wt
	}
	if total != uint64(w.NumHosts()) {
		t.Errorf("AS weights sum %d != hosts %d", total, w.NumHosts())
	}
}

func TestInvalidSpecs(t *testing.T) {
	if _, err := Build(context.Background(), Spec{Seed: 1, Scale: 0}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Build(context.Background(), Spec{Seed: 1, Scale: 2}); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := Build(context.Background(), Spec{Seed: 1, Scale: 0.0001, HostDensity: 1.5}); err == nil {
		t.Error("density > 1 accepted")
	}
}

func TestSSHOverlapRoughlyHalf(t *testing.T) {
	w := buildTest(t, 14)
	onWeb, alone := 0, 0
	for _, h := range w.Hosts() {
		if !h.Services.Has(proto.SSH) {
			continue
		}
		if h.Services.Has(proto.HTTP) || h.Services.Has(proto.HTTPS) {
			onWeb++
		} else {
			alone++
		}
	}
	if onWeb == 0 || alone == 0 {
		t.Errorf("SSH overlap degenerate: onWeb=%d alone=%d", onWeb, alone)
	}
}

func BenchmarkBuildTestWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), TestSpec(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestChurnLifecycle(t *testing.T) {
	c := NewChurn(rngKeyForTest(), 0.10, 3)
	const n = 50000
	var never, single, full, partial int
	for i := 0; i < n; i++ {
		addr := ip.AddrFrom4(uint32(i) * 977)
		live := 0
		prevOff := false
		gap := false
		sawLive := false
		for trial := 0; trial < 3; trial++ {
			off := c.Offline(addr, trial)
			if !off {
				if sawLive && prevOff {
					gap = true // lifecycle must be contiguous
				}
				live++
				sawLive = true
			}
			prevOff = off
		}
		if gap {
			t.Fatalf("host %v has a non-contiguous lifecycle", addr)
		}
		switch live {
		case 0:
			never++
		case 1:
			single++
		case 3:
			full++
		default:
			partial++
		}
	}
	if never != 0 {
		t.Errorf("%d hosts never live; lifecycle clamps should prevent that", never)
	}
	if single == 0 || partial == 0 {
		t.Errorf("churn produced no single-trial (%d) or partial (%d) hosts", single, partial)
	}
	if full < n*3/4 {
		t.Errorf("only %d/%d hosts live all trials at rate 0.10", full, n)
	}
	// Stability: repeated queries agree.
	if c.Offline(ip.AddrFrom4(977), 1) != c.Offline(ip.AddrFrom4(977), 1) {
		t.Error("churn not deterministic")
	}
}

func TestChurnDisabled(t *testing.T) {
	var c *Churn
	if c.Offline(ip.AddrFrom4(5), 0) {
		t.Error("nil churn marked a host offline")
	}
	c = NewChurn(rngKeyForTest(), 0, 3)
	for trial := 0; trial < 3; trial++ {
		if c.Offline(ip.AddrFrom4(5), trial) {
			t.Error("zero-rate churn marked a host offline")
		}
	}
}

func rngKeyForTest() rng.Key { return rng.NewKey(123) }

// TestAllocateRejectsUnknownCountry: a portion's prefixes take its country,
// which must be in the world's catalogue; an unknown code fails allocation
// before the prefix is announced.
func TestAllocateRejectsUnknownCountry(t *testing.T) {
	spec, err := TestSpec(1).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	w := &World{Spec: spec, Countries: geo.NewRegistry(geo.DefaultCountries())}
	p := portion{as: &asn.AS{Number: 1, Country: "US"}, country: "XX", nHTTP: 10}
	var alloc allocator
	if _, err := w.allocate(&alloc, &p); err == nil || !strings.Contains(err.Error(), `unknown country "XX"`) {
		t.Fatalf("allocate with country XX: err = %v", err)
	}
	if len(p.as.Prefixes) != 0 {
		t.Errorf("the failed portion announced %v", p.as.Prefixes)
	}
	p.country = "DE"
	if n, err := w.allocate(&alloc, &p); err != nil || n != 10 {
		t.Fatalf("allocate with country DE: %d machines, err %v", n, err)
	}
	for i := range p.as.Prefixes {
		if c := p.as.PrefixCountry(i); c != "DE" {
			t.Errorf("prefix %v geolocates to %q, want DE", p.as.Prefixes[i], c)
		}
	}
}
