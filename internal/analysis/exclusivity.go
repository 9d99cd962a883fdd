package analysis

import (
	"sort"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
)

// Exclusivity captures §4's exclusive-access analysis: hosts reachable from
// only one origin (exclusively accessible) and hosts unreachable from only
// one origin (exclusively inaccessible), across all trials.
type Exclusivity struct {
	// Accessible[o] lists hosts only origin o could ever handshake with.
	Accessible map[origin.ID][]ip.Addr
	// Inaccessible[o] lists hosts only origin o persistently missed
	// (long-term inaccessible from o, accessible from every other).
	Inaccessible map[origin.ID][]ip.Addr
}

// Exclusive computes the exclusivity sets from a classifier. A host is
// exclusively accessible from o when o is the only origin that completed a
// handshake in any trial; exclusively inaccessible when o is the only
// origin classified long-term for it. The sets are computed once per
// classifier and shared by every caller, who must not modify them.
func Exclusive(c *Classifier) Exclusivity {
	c.exOnce.Do(func() {
		c.ex = Exclusivity{
			Accessible:   map[origin.ID][]ip.Addr{},
			Inaccessible: map[origin.ID][]ip.Addr{},
		}
		c.exAt = map[origin.ID][]int{}
		origins := c.DS.Origins
		classes := make([][]Class, len(origins))
		for k, o := range origins {
			classes[k] = c.class[o]
		}
		for i, a := range c.union {
			accN, accK, longN, longK := 0, -1, 0, -1
			for k, o := range origins {
				switch classes[k][i] {
				case ClassAccessible, ClassTransient:
					accN, accK = accN+1, k
				case ClassLongTerm:
					longN, longK = longN+1, k
				case ClassUnknown:
					// A host seen in one trial still counts as
					// accessible from origins that saw it then.
					for _, ok := range c.ok[o] {
						if ok.has(i) {
							accN, accK = accN+1, k
							break
						}
					}
				}
			}
			if accN == 1 {
				o := origins[accK]
				c.ex.Accessible[o] = append(c.ex.Accessible[o], a)
				c.exAt[o] = append(c.exAt[o], i)
			}
			if longN == 1 && accN == len(origins)-1 {
				o := origins[longK]
				c.ex.Inaccessible[o] = append(c.ex.Inaccessible[o], a)
			}
		}
	})
	return c.ex
}

// ShareRow is one origin's column of Table 1: its share of all exclusively
// accessible and exclusively inaccessible hosts.
type ShareRow struct {
	Origin          origin.ID
	AccessibleN     int
	InaccessibleN   int
	AccessiblePct   float64
	InaccessiblePct float64
}

// ExclusiveShare computes Table 1's row pair for one protocol.
func ExclusiveShare(ex Exclusivity, origins origin.Set) []ShareRow {
	totalAcc, totalInacc := 0, 0
	for _, o := range origins {
		totalAcc += len(ex.Accessible[o])
		totalInacc += len(ex.Inaccessible[o])
	}
	rows := make([]ShareRow, 0, len(origins))
	for _, o := range origins {
		r := ShareRow{
			Origin:        o,
			AccessibleN:   len(ex.Accessible[o]),
			InaccessibleN: len(ex.Inaccessible[o]),
		}
		if totalAcc > 0 {
			r.AccessiblePct = 100 * float64(r.AccessibleN) / float64(totalAcc)
		}
		if totalInacc > 0 {
			r.InaccessiblePct = 100 * float64(r.InaccessibleN) / float64(totalInacc)
		}
		rows = append(rows, r)
	}
	return rows
}

// CountryCell is one cell of Figure 6/16: hosts in DestCountry exclusively
// accessible from Origin, with the same-country flag highlighted.
type CountryCell struct {
	Origin      origin.ID
	DestCountry geo.Country
	Hosts       int
	// InCountry marks the dark-green diagonal: origin scanning its own
	// country.
	InCountry bool
	// CountryFrac is Hosts as a fraction of the destination country's
	// live hosts.
	CountryFrac float64
}

// ExclusiveByCountry computes Figure 6/16 for one protocol. originCountry
// maps each origin to its location; countryHosts counts each country's
// ground-truth hosts.
func ExclusiveByCountry(c *Classifier, topo Topology, originCountry map[origin.ID]geo.Country) []CountryCell {
	Exclusive(c) // fills c.exAt
	st := c.spine(topo)
	countryHosts := map[geo.Country]int{}
	for _, cc := range st.country {
		if cc != "" {
			countryHosts[cc]++
		}
	}
	var cells []CountryCell
	for _, o := range c.DS.Origins {
		counts := map[geo.Country]int{}
		for _, i := range c.exAt[o] {
			if cc := st.country[i]; cc != "" {
				counts[cc]++
			}
		}
		for cc, n := range counts {
			cell := CountryCell{
				Origin: o, DestCountry: cc, Hosts: n,
				InCountry: originCountry[o] == cc,
			}
			if th := countryHosts[cc]; th > 0 {
				cell.CountryFrac = float64(n) / float64(th)
			}
			cells = append(cells, cell)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Origin != cells[j].Origin {
			return cells[i].Origin < cells[j].Origin
		}
		if cells[i].Hosts != cells[j].Hosts {
			return cells[i].Hosts > cells[j].Hosts
		}
		return cells[i].DestCountry < cells[j].DestCountry
	})
	return cells
}

// ASShare is one bar of Figure 7: an AS's share of the hosts exclusively
// accessible from one origin.
type ASShare struct {
	Origin origin.ID
	AS     asn.ASN
	ASName string
	Hosts  int
	Share  float64
}

// ExclusiveByAS computes Figure 7: the ASes holding the largest share of
// each origin's exclusively accessible hosts (top n per origin).
func ExclusiveByAS(c *Classifier, topo Topology, topN int) []ASShare {
	ex, st := Exclusive(c), c.spine(topo)
	var out []ASShare
	for _, o := range c.DS.Origins {
		hosts := len(ex.Accessible[o])
		if hosts == 0 {
			continue
		}
		counts := map[asn.ASN]int{}
		for _, i := range c.exAt[o] {
			if n, ok := st.asOf(i); ok {
				counts[n]++
			}
		}
		shares := make([]ASShare, 0, len(counts))
		for n, cnt := range counts {
			shares = append(shares, ASShare{
				Origin: o, AS: n, ASName: topo.ASName(n),
				Hosts: cnt, Share: float64(cnt) / float64(hosts),
			})
		}
		sort.Slice(shares, func(i, j int) bool {
			if shares[i].Hosts != shares[j].Hosts {
				return shares[i].Hosts > shares[j].Hosts
			}
			return shares[i].AS < shares[j].AS
		})
		if len(shares) > topN {
			shares = shares[:topN]
		}
		out = append(out, shares...)
	}
	return out
}
