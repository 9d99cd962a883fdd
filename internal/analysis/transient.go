package analysis

import (
	"math"
	"sort"

	"repro/internal/asn"
	"repro/internal/origin"
	"repro/internal/stats"
)

// ASLossSpread is one AS's row for Figure 9 / Table 3: the spread of
// per-origin transient loss rates.
type ASLossSpread struct {
	AS     asn.ASN
	ASName string
	Hosts  int // live hosts in the AS (union over trials)
	// Rate[o] is the origin's transient loss rate in the AS: transient
	// hosts / live hosts.
	Rate map[origin.ID]float64
	// Delta is the max pairwise difference (percentage points / 100).
	Delta float64
	// Diff is the host-count difference between the worst and best
	// origin (Table 3's "Diff" column).
	Diff int
	// Ratio is worst/best (Table 3's "Ratio"; +Inf collapses to a large
	// number when the best origin lost zero hosts).
	Ratio float64
}

// TransientLossSpread computes, for every AS with at least minHosts live
// hosts, the per-origin transient loss rates and their spread. Every AS's
// row is computed once per classifier; the rows share their Rate maps with
// that cache, so callers must not modify them.
func TransientLossSpread(c *Classifier, topo Topology, minHosts int) []ASLossSpread {
	if minHosts < 1 {
		minHosts = 2
	}
	c.spreadOnce.Do(func() { c.spreads = transientLossSpread(c, topo) })
	var out []ASLossSpread
	for _, row := range c.spreads {
		if row.Hosts >= minHosts {
			out = append(out, row)
		}
	}
	return out
}

// transientLossSpread is every AS's row, by Diff, then AS number.
func transientLossSpread(c *Classifier, topo Topology) []ASLossSpread {
	groups := c.spine(topo).groups
	out := make([]ASLossSpread, 0, len(groups))
	for _, gr := range groups {
		hosts := gr.hosts
		row := ASLossSpread{
			AS: gr.AS, ASName: topo.ASName(gr.AS), Hosts: len(hosts),
			Rate: map[origin.ID]float64{},
		}
		minRate, maxRate := math.Inf(1), math.Inf(-1)
		var minN, maxN int
		for _, o := range c.DS.Origins {
			n, cls := 0, c.class[o]
			for _, i := range hosts {
				if cls[i] == ClassTransient {
					n++
				}
			}
			r := float64(n) / float64(len(hosts))
			row.Rate[o] = r
			if r < minRate {
				minRate, minN = r, n
			}
			if r > maxRate {
				maxRate, maxN = r, n
			}
		}
		row.Delta = maxRate - minRate
		row.Diff = maxN - minN
		if minN > 0 {
			row.Ratio = float64(maxN) / float64(minN)
		} else if maxN > 0 {
			row.Ratio = float64(maxN) // paper-style huge ratios for zero baselines
		} else {
			row.Ratio = 1
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Diff != out[j].Diff {
			return out[i].Diff > out[j].Diff
		}
		return out[i].AS < out[j].AS
	})
	return out
}

// SpreadCDF converts the spreads into Figure 9's two CDFs: plain (one point
// per AS) and weighted by AS size (the dashed line).
func SpreadCDF(spreads []ASLossSpread) (plain, weighted []stats.CDFPoint) {
	xs := make([]float64, len(spreads))
	ws := make([]float64, len(spreads))
	for i, s := range spreads {
		xs[i] = s.Delta
		ws[i] = float64(s.Hosts)
	}
	return stats.CDF(xs, nil), stats.CDF(xs, ws)
}

// StabilityReport is Figure 11 plus §5.1's flip statistic.
type StabilityReport struct {
	// ASesConsidered is the number of ASes with enough hosts analyzed.
	ASesConsidered int
	// ConsistentBest[o] counts ASes where o had strictly the best
	// coverage in every trial; ConsistentWorst likewise.
	ConsistentBest  map[origin.ID]int
	ConsistentWorst map[origin.ID]int
	// Flips counts ASes where some origin was strictly best in one
	// trial and strictly worst in another (§5.1: ~23% of ASes).
	Flips int
}

// BestWorstStability ranks origins per destination AS per trial by the
// number of live hosts they saw and measures rank stability across trials.
func BestWorstStability(c *Classifier, topo Topology, minHosts int) StabilityReport {
	if minHosts < 1 {
		minHosts = 5
	}
	rep := StabilityReport{
		ConsistentBest:  map[origin.ID]int{},
		ConsistentWorst: map[origin.ID]int{},
	}
	origins := c.DS.Origins
	counts := make([]int, len(origins))
	for _, gr := range c.spine(topo).groups {
		if len(gr.hosts) < minHosts {
			continue
		}
		rep.ASesConsidered++
		// Per trial, compute each origin's host count and the
		// (possibly tied) best/worst sets. Consistency requires a
		// strict, untied winner in every trial; a flip happens when
		// an origin is among the best in one trial and among the
		// worst in another, with a real spread in both trials
		// (§5.1's "the worst scanning origin in one trial will
		// become the best scanning origin in another").
		bests := make([]origin.ID, 0, c.DS.Trials)
		worsts := make([]origin.ID, 0, c.DS.Trials)
		wasBest := map[origin.ID]bool{}
		wasWorst := map[origin.ID]bool{}
		for t := 0; t < c.DS.Trials; t++ {
			bestN, worstN := -1, math.MaxInt
			for k, o := range origins {
				// A success bit implies the host was live in t.
				ok := c.ok[o][t]
				counts[k] = -1
				if ok == nil {
					continue
				}
				n := 0
				for _, i := range gr.hosts {
					if ok.has(i) {
						n++
					}
				}
				counts[k] = n
				bestN, worstN = max(bestN, n), min(worstN, n)
			}
			if bestN < 0 || bestN == worstN {
				continue // nobody scanned, or no spread this trial
			}
			var bestSet, worstSet origin.Set
			for k, n := range counts {
				if n == bestN {
					bestSet = append(bestSet, origins[k])
				}
				if n == worstN {
					worstSet = append(worstSet, origins[k])
				}
			}
			// Consistency uses strict (untied) winners: a tied "best"
			// origin says nothing about a stable ranking.
			if len(bestSet) == 1 {
				bests = append(bests, bestSet[0])
			}
			if len(worstSet) == 1 {
				worsts = append(worsts, worstSet[0])
			}
			// Flips tolerate ties but require a non-trivial spread
			// (≥2 hosts between best and worst), so a single lost
			// host cannot manufacture a best→worst reversal.
			if bestN-worstN >= 2 {
				for _, o := range bestSet {
					wasBest[o] = true
				}
				for _, o := range worstSet {
					wasWorst[o] = true
				}
			}
		}
		if len(bests) == c.DS.Trials && allSame(bests) {
			rep.ConsistentBest[bests[0]]++
		}
		if len(worsts) == c.DS.Trials && allSame(worsts) {
			rep.ConsistentWorst[worsts[0]]++
		}
		for o := range wasBest {
			if wasWorst[o] {
				rep.Flips++
				break
			}
		}
	}
	return rep
}

func allSame(os []origin.ID) bool {
	for _, o := range os[1:] {
		if o != os[0] {
			return false
		}
	}
	return true
}
