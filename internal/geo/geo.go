// Package geo provides the country catalogue of a world: the codes, names
// and host weights the generator apportions hosts by. The paper geolocates
// destinations with the MaxMind GeoLite2 database; here each announced
// prefix records its country (asn.AS.PrefixCountries) and the world's FIB
// answers the country of any address.
package geo

import "sort"

// Country is an ISO 3166-1 alpha-2 country code.
type Country string

// Countries that appear in the paper's tables and figures, plus enough
// additional codes to populate a realistic long tail. Weight is the
// country's rough share of global hosts used by the world generator.
type CountryInfo struct {
	Code   Country
	Name   string
	Weight float64
}

// Registry holds the set of countries in a world.
type Registry struct {
	countries map[Country]CountryInfo
	ordered   []CountryInfo
}

// NewRegistry returns a registry with the given countries.
func NewRegistry(countries []CountryInfo) *Registry {
	r := &Registry{countries: make(map[Country]CountryInfo, len(countries))}
	for _, c := range countries {
		r.countries[c.Code] = c
		r.ordered = append(r.ordered, c)
	}
	sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].Code < r.ordered[j].Code })
	return r
}

// DefaultCountries returns the country mix used by the default synthetic
// world: every country named in the paper's tables plus a long tail. The
// weights approximate relative host populations (US/CN dominate; paper
// Table 2 column groups: >1M, >100K, >10K, >1K hosts).
func DefaultCountries() []CountryInfo {
	return []CountryInfo{
		// >1M-host tier.
		{"US", "United States", 0.235},
		{"CN", "China", 0.140},
		{"HK", "Hong Kong", 0.045},
		{"GB", "United Kingdom", 0.040},
		{"DE", "Germany", 0.055},
		{"RU", "Russia", 0.038},
		{"JP", "Japan", 0.050},
		{"FR", "France", 0.032},
		{"NL", "Netherlands", 0.025},
		{"KR", "South Korea", 0.030},
		// >100K-host tier.
		{"ZA", "South Africa", 0.012},
		{"AR", "Argentina", 0.010},
		{"IT", "Italy", 0.022},
		{"AT", "Austria", 0.008},
		{"VE", "Venezuela", 0.006},
		{"BR", "Brazil", 0.020},
		{"AU", "Australia", 0.018},
		{"PL", "Poland", 0.012},
		{"CA", "Canada", 0.018},
		{"IN", "India", 0.016},
		{"RO", "Romania", 0.008},
		{"UA", "Ukraine", 0.008},
		{"KZ", "Kazakhstan", 0.004},
		// >10K-host tier.
		{"BD", "Bangladesh", 0.003},
		{"EC", "Ecuador", 0.003},
		{"AM", "Armenia", 0.002},
		{"EE", "Estonia", 0.002},
		{"AL", "Albania", 0.002},
		{"BO", "Bolivia", 0.002},
		{"GR", "Greece", 0.004},
		{"TN", "Tunisia", 0.002},
		{"PT", "Portugal", 0.004},
		{"CO", "Colombia", 0.004},
		{"PE", "Peru", 0.003},
		// >1K-host tier.
		{"BF", "Burkina Faso", 0.0006},
		{"LY", "Libya", 0.0006},
		{"MN", "Mongolia", 0.0006},
		{"MW", "Malawi", 0.0005},
		{"SD", "Sudan", 0.0006},
		{"ZW", "Zimbabwe", 0.0005},
		{"SN", "Senegal", 0.0005},
		{"GU", "Guam", 0.0004},
		{"SG", "Singapore", 0.008},
		{"ES", "Spain", 0.010},
		{"SE", "Sweden", 0.006},
		{"CH", "Switzerland", 0.006},
		{"TR", "Turkey", 0.008},
		{"MX", "Mexico", 0.008},
		{"ID", "Indonesia", 0.008},
		{"VN", "Vietnam", 0.008},
		{"TW", "Taiwan", 0.008},
		{"CZ", "Czechia", 0.005},
	}
}

// Info returns the registered info for a country code.
func (r *Registry) Info(c Country) (CountryInfo, bool) {
	ci, ok := r.countries[c]
	return ci, ok
}

// Countries returns all registered countries sorted by code.
func (r *Registry) Countries() []CountryInfo {
	out := make([]CountryInfo, len(r.ordered))
	copy(out, r.ordered)
	return out
}

// TotalWeight returns the sum of all country weights (the generator
// normalizes by this).
func (r *Registry) TotalWeight() float64 {
	var t float64
	for _, c := range r.ordered {
		t += c.Weight
	}
	return t
}
