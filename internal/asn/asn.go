// Package asn provides the autonomous-system registry: each AS with the
// prefixes it announces and their countries. The paper maps destination IPs
// to origin ASes through a routing-table snapshot; here the world's FIB,
// built from this registry, answers that for every address.
package asn

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/ip"
)

// ASN is an autonomous system number.
type ASN uint32

// Kind categorizes an AS; the paper's blocking analysis distinguishes
// hosting providers, ISPs, CDNs, cloud, government, and enterprise
// (financial/health/media) networks.
type Kind uint8

const (
	KindHosting Kind = iota
	KindISP
	KindCloud
	KindCDN
	KindAcademic
	KindGovernment
	KindFinancial
	KindHealthcare
	KindMedia
	KindConsumer
	KindUtility
)

var kindNames = [...]string{
	"hosting", "isp", "cloud", "cdn", "academic", "government",
	"financial", "healthcare", "media", "consumer", "utility",
}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AS describes one autonomous system in the world.
type AS struct {
	Number   ASN
	Name     string
	Country  geo.Country
	Kind     Kind
	Prefixes []ip.Prefix
	// PrefixCountries is the country each prefix geolocates to ("" for
	// none), parallel to Prefixes; nil while every prefix is in Country.
	PrefixCountries []geo.Country
}

// Announce appends prefix p, geolocated to c.
func (a *AS) Announce(p ip.Prefix, c geo.Country) {
	if a.PrefixCountries == nil && c != a.Country {
		a.PrefixCountries = make([]geo.Country, len(a.Prefixes), len(a.Prefixes)+1)
		for i := range a.PrefixCountries {
			a.PrefixCountries[i] = a.Country
		}
	}
	a.Prefixes = append(a.Prefixes, p)
	if a.PrefixCountries != nil {
		a.PrefixCountries = append(a.PrefixCountries, c)
	}
}

// PrefixCountry returns the country Prefixes[i] geolocates to ("" for
// none).
func (a *AS) PrefixCountry(i int) geo.Country {
	if a.PrefixCountries == nil {
		return a.Country
	}
	return a.PrefixCountries[i]
}

// NumAddrs returns the total announced address space of the AS.
func (a *AS) NumAddrs() uint64 {
	var n uint64
	for _, p := range a.Prefixes {
		n += p.NumAddrs()
	}
	return n
}

// Table is the AS registry of a world. The world's FIB, built from it,
// checks that the announced prefixes are disjoint.
type Table struct {
	byNumber map[ASN]*AS
	ordered  []*AS
}

// NewTable returns an empty registry.
func NewTable() *Table {
	return &Table{byNumber: make(map[ASN]*AS)}
}

// Register adds an AS. Registering the same ASN twice is an error.
func (t *Table) Register(a *AS) error {
	if _, dup := t.byNumber[a.Number]; dup {
		return fmt.Errorf("asn: duplicate AS%d", a.Number)
	}
	t.byNumber[a.Number] = a
	t.ordered = append(t.ordered, a)
	return nil
}

// Get returns the AS with the given number.
func (t *Table) Get(n ASN) (*AS, bool) {
	a, ok := t.byNumber[n]
	return a, ok
}

// All returns every registered AS sorted by number.
func (t *Table) All() []*AS {
	out := make([]*AS, len(t.ordered))
	copy(out, t.ordered)
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// Len returns the number of registered ASes.
func (t *Table) Len() int { return len(t.byNumber) }
