package analysis

import (
	"sort"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/origin"
	"repro/internal/stats"
)

// ASConcentration is one origin's Figure 4 curve: how concentrated its
// long-term inaccessible hosts are across ASes.
type ASConcentration struct {
	Origin origin.ID
	// TopShares[i] is the cumulative share of the origin's long-term
	// inaccessible hosts held by the i+1 largest contributing ASes.
	TopShares []float64
	// TopASes names the largest contributors in order.
	TopASes []asn.ASN
	// Total is the origin's long-term inaccessible host count.
	Total int
}

// ASDistribution computes Figure 4 for one protocol: per origin, the
// distribution of long-term inaccessible hosts over ASes. The paper's
// headline: three ASes hold 67% of Censys's inaccessible HTTP hosts.
func ASDistribution(c *Classifier, topo Topology) []ASConcentration {
	st := c.spine(topo)
	var out []ASConcentration
	for _, o := range c.DS.Origins {
		conc := ASConcentration{Origin: o}
		counts := map[asn.ASN]int{}
		for i, cl := range c.class[o] {
			if cl != ClassLongTerm {
				continue
			}
			conc.Total++
			if n, ok := st.asOf(i); ok {
				counts[n]++
			}
		}
		type kv struct {
			as asn.ASN
			n  int
		}
		kvs := make([]kv, 0, len(counts))
		for as, n := range counts {
			kvs = append(kvs, kv{as, n})
		}
		sort.Slice(kvs, func(i, j int) bool {
			if kvs[i].n != kvs[j].n {
				return kvs[i].n > kvs[j].n
			}
			return kvs[i].as < kvs[j].as
		})
		cum := 0
		for _, e := range kvs {
			cum += e.n
			conc.TopASes = append(conc.TopASes, e.as)
			if conc.Total > 0 {
				conc.TopShares = append(conc.TopShares, float64(cum)/float64(conc.Total))
			}
		}
		out = append(out, conc)
	}
	return out
}

// LostASRow is one origin's Figure 5 bar: how many ASes are at least
// 100%/75%/50% long-term inaccessible from it.
type LostASRow struct {
	Origin    origin.ID
	Full      int // 100% of the AS's live hosts long-term inaccessible
	AtLeast75 int
	AtLeast50 int
}

// InaccessibleASes computes Figure 5 for one protocol, considering only
// ASes with at least minHosts live hosts (avoids trivial one-host "ASes").
func InaccessibleASes(c *Classifier, topo Topology, minHosts int) []LostASRow {
	if minHosts < 1 {
		minHosts = 2
	}
	st := c.spine(topo)
	var out []LostASRow
	for _, o := range c.DS.Origins {
		lost := make([]int, len(st.groups))
		for i, cl := range c.class[o] {
			if g := st.group[i]; g >= 0 && cl == ClassLongTerm {
				lost[g]++
			}
		}
		row := LostASRow{Origin: o}
		for g, l := range lost {
			total := len(st.groups[g].hosts)
			if l == 0 || total < minHosts {
				continue
			}
			frac := float64(l) / float64(total)
			if frac >= 1 {
				row.Full++
			}
			if frac >= 0.75 {
				row.AtLeast75++
			}
			if frac >= 0.50 {
				row.AtLeast50++
			}
		}
		out = append(out, row)
	}
	return out
}

// CountryRow is one (origin, country) cell of Tables 2 and 5.
type CountryRow struct {
	Origin  origin.ID
	Country geo.Country
	// Pct is the percentage of the country's live hosts long-term
	// inaccessible from the origin.
	Pct float64
	// CountryHosts is the country's live host count.
	CountryHosts int
	// DominantASes is the smallest number of ASes that together hold
	// the majority of the origin's missing hosts in this country (the
	// tables' red/orange/yellow colour coding: 1, 2, or ≥3).
	DominantASes int
}

// CountryInaccessibility computes Table 2 (HTTP) / Table 5 (HTTPS, SSH):
// per origin and destination country, the share of the country long-term
// inaccessible, with AS-concentration annotation.
func CountryInaccessibility(c *Classifier, topo Topology) []CountryRow {
	st := c.spine(topo)
	countryHosts := map[geo.Country]int{}
	for _, cc := range st.country {
		if cc != "" {
			countryHosts[cc]++
		}
	}
	var out []CountryRow
	for _, o := range c.DS.Origins {
		perCountry := map[geo.Country]map[asn.ASN]int{}
		for i, cl := range c.class[o] {
			cc := st.country[i]
			if cl != ClassLongTerm || cc == "" {
				continue
			}
			if perCountry[cc] == nil {
				perCountry[cc] = map[asn.ASN]int{}
			}
			as, _ := st.asOf(i)
			perCountry[cc][as]++
		}
		for cc, byAS := range perCountry {
			total := 0
			var counts []int
			for _, n := range byAS {
				total += n
				counts = append(counts, n)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(counts)))
			dominant := 0
			cum := 0
			for _, n := range counts {
				dominant++
				cum += n
				if 2*cum > total {
					break
				}
			}
			row := CountryRow{
				Origin: o, Country: cc,
				CountryHosts: countryHosts[cc],
				DominantASes: dominant,
			}
			if row.CountryHosts > 0 {
				row.Pct = 100 * float64(total) / float64(row.CountryHosts)
			}
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		if out[i].Pct != out[j].Pct {
			return out[i].Pct > out[j].Pct
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// CountrySizeCorrelation computes §4.4's Spearman correlation between each
// country's host count and its long-term inaccessible host count (the paper
// reports ρ=0.92, p<0.001): big countries lose the most hosts simply
// because they have the most.
func CountrySizeCorrelation(c *Classifier, topo Topology) stats.SpearmanResult {
	hosts := map[geo.Country]float64{}
	missing := map[geo.Country]float64{}
	for i, cc := range c.spine(topo).country {
		if cc == "" {
			continue
		}
		hosts[cc]++
		for _, o := range c.DS.Origins {
			if c.OfAt(o, i) == ClassLongTerm {
				missing[cc]++
				break // count the host once, as "inaccessible from some origin"
			}
		}
	}
	countries := make([]geo.Country, 0, len(hosts))
	for cc := range hosts {
		countries = append(countries, cc)
	}
	sort.Slice(countries, func(i, j int) bool { return countries[i] < countries[j] })
	var xs, ys []float64
	for _, cc := range countries {
		xs = append(xs, hosts[cc])
		ys = append(ys, missing[cc])
	}
	return stats.Spearman(xs, ys)
}
