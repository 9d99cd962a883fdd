package asn

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/ip"
)

func mkAS(n ASN, name string, prefixes ...string) *AS {
	a := &AS{Number: n, Name: name, Country: "US", Kind: KindHosting}
	for _, p := range prefixes {
		a.Prefixes = append(a.Prefixes, ip.MustParsePrefix(p))
	}
	return a
}

func TestTableRegister(t *testing.T) {
	tab := NewTable()
	if err := tab.Register(mkAS(100, "Alpha", "10.0.0.0/16", "10.2.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Register(mkAS(200, "Beta", "10.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
}

// TestTableRejectsDuplicates: an ASN registers once. (Overlapping prefixes
// are the FIB's to refuse: world.TestBuildFIBRefusesOverlap.)
func TestTableRejectsDuplicates(t *testing.T) {
	tab := NewTable()
	if err := tab.Register(mkAS(100, "Alpha", "10.0.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Register(mkAS(100, "AlphaAgain", "11.0.0.0/16")); err == nil {
		t.Error("Register accepted duplicate ASN")
	}
}

// TestAnnounceRecordsPrefixCountries holds Announce to its one allocation
// rule: an AS whose prefixes all geolocate to its own country keeps no
// per-prefix list, and the first prefix elsewhere starts one that fills in
// the earlier prefixes with the AS's country.
func TestAnnounceRecordsPrefixCountries(t *testing.T) {
	a := &AS{Number: 1, Country: "US"}
	a.Announce(ip.MustParsePrefix("10.0.0.0/16"), "US")
	a.Announce(ip.MustParsePrefix("10.1.0.0/16"), "US")
	if a.PrefixCountries != nil {
		t.Fatalf("single-country AS keeps PrefixCountries %v", a.PrefixCountries)
	}
	a.Announce(ip.MustParsePrefix("10.2.0.0/24"), "DE")
	a.Announce(ip.MustParsePrefix("10.3.0.0/24"), "")
	want := []geo.Country{"US", "US", "DE", ""}
	if len(a.Prefixes) != len(want) || len(a.PrefixCountries) != len(want) {
		t.Fatalf("%d prefixes, %d countries, want %d of each", len(a.Prefixes), len(a.PrefixCountries), len(want))
	}
	for i, c := range want {
		if got := a.PrefixCountry(i); got != c {
			t.Errorf("PrefixCountry(%d) = %q, want %q", i, got, c)
		}
	}
}

func TestTableGetAndAll(t *testing.T) {
	tab := NewTable()
	for _, n := range []ASN{300, 100, 200} {
		if err := tab.Register(mkAS(n, "X", ip.MakePrefix(ip.MakeAddr(byte(n/100), 0, 0, 0), 16).String())); err != nil {
			t.Fatal(err)
		}
	}
	if a, ok := tab.Get(200); !ok || a.Number != 200 {
		t.Errorf("Get(200) = %v,%v", a, ok)
	}
	if _, ok := tab.Get(999); ok {
		t.Error("Get(999) found missing AS")
	}
	all := tab.All()
	if len(all) != 3 || all[0].Number != 100 || all[2].Number != 300 {
		t.Errorf("All() = %v", all)
	}
}

func TestASNumAddrs(t *testing.T) {
	a := mkAS(1, "A", "10.0.0.0/24", "10.1.0.0/23")
	if got := a.NumAddrs(); got != 256+512 {
		t.Errorf("NumAddrs = %d", got)
	}
}

func TestKindString(t *testing.T) {
	if KindHosting.String() != "hosting" || KindFinancial.String() != "financial" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind should still format")
	}
}
