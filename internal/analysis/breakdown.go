package analysis

import (
	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/world"
)

// WorldTopo adapts a synthetic world to the Topology interface.
type WorldTopo struct {
	W *world.World
}

// ASOf implements Topology.
func (t WorldTopo) ASOf(a ip.Addr) (asn.ASN, bool) {
	as, ok := t.W.ASOf(a)
	if !ok {
		return 0, false
	}
	return as.Number, true
}

// ASName implements Topology.
func (t WorldTopo) ASName(n asn.ASN) string {
	a, ok := t.W.Routes.Get(n)
	if !ok {
		return "AS?"
	}
	return a.Name
}

// CountryOf implements Topology.
func (t WorldTopo) CountryOf(a ip.Addr) (geo.Country, bool) {
	return t.W.CountryOf(a)
}

// Category is a bucket of Figure 2's missing-host breakdown.
type Category uint8

const (
	CatTransientHost Category = iota
	CatTransientNet
	CatLongTermHost
	CatLongTermNet
	CatUnknown
	numCategories
)

var categoryNames = [...]string{
	"transient-host", "transient-net", "long-term-host", "long-term-net", "unknown",
}

// String returns the category name.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "cat(?)"
}

// Breakdown is one origin-trial cell of Figure 2: missing hosts by
// category, as fractions of the trial's ground truth.
type Breakdown struct {
	Origin origin.ID
	Trial  int
	// Counts per category.
	Counts [numCategories]int
	// GroundTruth is the trial's live-host count.
	GroundTruth int
}

// Frac returns the category's share of ground truth.
func (b *Breakdown) Frac(c Category) float64 {
	if b.GroundTruth == 0 {
		return 0
	}
	return float64(b.Counts[c]) / float64(b.GroundTruth)
}

// TotalMissing returns all missing hosts in the cell.
func (b *Breakdown) TotalMissing() int {
	n := 0
	for _, c := range b.Counts {
		n += c
	}
	return n
}

// MissingBreakdown computes Figure 2 for one protocol: for each origin and
// trial, missing hosts split into transient/long-term/unknown, each at host
// or /24-network level. A /24 counts as a network-level unit when it has at
// least two live hosts and all of them share the class (§3's "consistent
// behavior" requirement).
func MissingBreakdown(c *Classifier) []Breakdown {
	ds := c.DS
	var out []Breakdown
	for _, o := range ds.Origins {
		cls := c.class[o]
		// net marks the hosts whose /24 behaves as one unit from o: at
		// least two hosts with a consistent classification (§3). Hosts
		// classified unknown (present in a single trial, usually churn)
		// carry no signal about the network's policy and are ignored
		// when judging consistency.
		net := newBitset(len(c.union))
		slash24Runs(c.union, func(lo, hi int) {
			informative := 0
			var cl Class
			for i := lo; i < hi; i++ {
				hc := cls[i]
				if hc == ClassUnknown {
					continue
				}
				if informative == 0 {
					cl = hc
				} else if hc != cl {
					return
				}
				informative++
			}
			if informative >= 2 {
				for i := lo; i < hi; i++ {
					net.set(i)
				}
			}
		})
		for t := 0; t < ds.Trials; t++ {
			if c.ok[o][t] == nil {
				continue
			}
			b := Breakdown{Origin: o, Trial: t, GroundTruth: len(ds.GroundTruth(c.Proto, t))}
			c.eachMissed(o, t, func(i int) {
				isNet := net.has(i)
				switch cls[i] {
				case ClassTransient:
					if isNet {
						b.Counts[CatTransientNet]++
					} else {
						b.Counts[CatTransientHost]++
					}
				case ClassLongTerm:
					if isNet {
						b.Counts[CatLongTermNet]++
					} else {
						b.Counts[CatLongTermHost]++
					}
				default:
					b.Counts[CatUnknown]++
				}
			})
			out = append(out, b)
		}
	}
	return out
}

// slash24Runs calls fn with the bounds [lo, hi) of every run of sorted
// addresses that share a /24 (an IPv6 /64): in address order a block's
// hosts are contiguous.
func slash24Runs(addrs []ip.Addr, fn func(lo, hi int)) {
	for lo := 0; lo < len(addrs); {
		k, hi := addrs[lo].Slash24(), lo+1
		for hi < len(addrs) && addrs[hi].Slash24() == k {
			hi++
		}
		fn(lo, hi)
		lo = hi
	}
}

// OverlapHistogram computes Figures 3 and 8: for hosts of the given class,
// how many origins share that classification of the host. Index i of the
// result counts hosts missed by exactly i+1 origins. The exclude set drops
// origins from the denominator (the paper excludes Censys in Figure 3's
// headline number).
func OverlapHistogram(c *Classifier, cl Class, exclude origin.Set) []int {
	var classes [][]Class
	for _, o := range c.DS.Origins {
		if !exclude.Contains(o) {
			classes = append(classes, c.class[o])
		}
	}
	hist := make([]int, len(c.DS.Origins))
	for i := range c.union {
		count := 0
		for _, cls := range classes {
			if cls[i] == cl {
				count++
			}
		}
		if count > 0 {
			hist[count-1]++
		}
	}
	return hist
}
