package analysis

import (
	"sort"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/stats"
)

// PacketLossEstimate is the §5.2 estimator output for one (origin, trial):
// the fraction of responsive hosts that answered exactly one of the two
// probes — a lower bound on random packet drop. RST-only hosts and
// duplicate responses are excluded, and the analysis is restricted to
// ground-truth (L7-confirmed) hosts, as in the paper.
type PacketLossEstimate struct {
	Origin origin.ID
	Trial  int
	// Global estimate.
	Rate float64
	// PerAS estimates (ASes with ≥ minHosts responsive hosts only).
	PerAS map[asn.ASN]float64
}

// PacketLoss computes the estimator for one (origin, protocol, trial).
func PacketLoss(ds *results.Dataset, topo Topology, p proto.Protocol, o origin.ID, trial int, minHosts int) PacketLossEstimate {
	s := ds.Scan(o, p, trial)
	if s == nil {
		return lossTally{}.estimate(o, trial, minHosts)
	}
	return tallyLoss(s, ds.GroundTruth(p, trial), topo.ASOf).estimate(o, trial, minHosts)
}

// PacketLoss is the package's PacketLoss for the classifier's protocol,
// read from tallies counted once per (origin, trial) and shared by every
// caller.
func (c *Classifier) PacketLoss(topo Topology, o origin.ID, trial int, minHosts int) PacketLossEstimate {
	lts := c.lossTallies(topo)[o]
	if trial < 0 || trial >= len(lts) || lts[trial] == nil {
		return lossTally{}.estimate(o, trial, minHosts)
	}
	return lts[trial].estimate(o, trial, minHosts)
}

// lossTally is §5.2's count for one (origin, trial), globally and per AS:
// responsive hosts, and those that answered one probe only.
type lossTally struct {
	all   lossCount
	perAS map[asn.ASN]*lossCount
}

type lossCount struct{ one, responding int }

func (c *lossCount) add(one bool) {
	c.responding++
	if one {
		c.one++
	}
}

func (c *lossCount) rate() float64 { return float64(c.one) / float64(c.responding) }

// tallyLoss walks the trial's ground truth against the scan. RST-only and
// unresponsive hosts are excluded per §5.2; asOf resolves each counted
// host's AS, in address order.
func tallyLoss(s *results.ScanResult, gt []ip.Addr, asOf func(ip.Addr) (asn.ASN, bool)) *lossTally {
	lt := &lossTally{perAS: map[asn.ASN]*lossCount{}}
	addrs := s.Addrs()
	j := 0
	for _, h := range gt {
		for j < len(addrs) && addrs[j].Less(h) {
			j++
		}
		if j >= len(addrs) || addrs[j] != h {
			continue
		}
		r := s.RecordAt(j)
		if r.ProbeMask == 0 || r.RST {
			continue
		}
		one := r.ProbeMask != 0b11
		lt.all.add(one)
		if as, ok := asOf(h); ok {
			c := lt.perAS[as]
			if c == nil {
				c = &lossCount{}
				lt.perAS[as] = c
			}
			c.add(one)
		}
	}
	return lt
}

func (lt lossTally) estimate(o origin.ID, trial, minHosts int) PacketLossEstimate {
	if minHosts < 1 {
		minHosts = 5
	}
	est := PacketLossEstimate{Origin: o, Trial: trial, PerAS: map[asn.ASN]float64{}}
	if lt.all.responding > 0 {
		est.Rate = lt.all.rate()
	}
	for as, c := range lt.perAS {
		if c.responding >= minHosts {
			est.PerAS[as] = c.rate()
		}
	}
	return est
}

// lossTallies counts every (origin, trial) once per classifier, reading
// each host's AS from the spine; a trial the origin did not scan is nil.
func (c *Classifier) lossTallies(topo Topology) map[origin.ID][]*lossTally {
	c.lossOnce.Do(func() {
		st := c.spine(topo)
		c.loss = make(map[origin.ID][]*lossTally, len(c.DS.Origins))
		for _, o := range c.DS.Origins {
			c.loss[o] = make([]*lossTally, c.DS.Trials)
			for t := range c.loss[o] {
				if s := c.DS.Scan(o, c.Proto, t); s != nil {
					ui := 0
					c.loss[o][t] = tallyLoss(s, c.DS.GroundTruth(c.Proto, t), func(h ip.Addr) (asn.ASN, bool) {
						for c.union[ui].Less(h) {
							ui++
						}
						return st.asOf(ui)
					})
				}
			}
		}
	})
	return c.loss
}

// DropVsTransient correlates, per AS, the origin's packet-loss estimate
// with its transient host-loss rate (§5.2 reports only weak correlation,
// ρ = 0.40–0.52: loss is not simply random drop).
func DropVsTransient(c *Classifier, topo Topology, minHosts int) map[origin.ID]stats.SpearmanResult {
	out := map[origin.ID]stats.SpearmanResult{}
	spreads := TransientLossSpread(c, topo, minHosts)
	for _, o := range c.DS.Origins {
		// Average the per-trial drop estimates per AS.
		acc := map[asn.ASN]float64{}
		n := 0
		for t := 0; t < c.DS.Trials; t++ {
			if c.ok[o][t] == nil {
				continue
			}
			est := c.PacketLoss(topo, o, t, minHosts)
			for as, r := range est.PerAS {
				acc[as] += r
			}
			n++
		}
		if n == 0 {
			continue
		}
		var xs, ys []float64
		for _, sp := range spreads {
			drop, ok := acc[sp.AS]
			if !ok {
				continue
			}
			xs = append(xs, drop/float64(n))
			ys = append(ys, sp.Rate[o])
		}
		out[o] = stats.Spearman(xs, ys)
	}
	return out
}

// OriginASPoint is one point of Figure 10: one origin's view of one AS.
type OriginASPoint struct {
	Origin    origin.ID
	Transient float64 // transient host-loss rate in the AS
	Drop      float64 // mean packet-loss estimate across trials
}

// LossVsDropForAS extracts Figure 10's per-origin points for one AS.
func LossVsDropForAS(c *Classifier, topo Topology, as asn.ASN) []OriginASPoint {
	st := c.spine(topo)
	g := sort.Search(len(st.groups), func(g int) bool { return st.groups[g].AS >= as })
	if g == len(st.groups) || st.groups[g].AS != as {
		return nil
	}
	hosts := st.groups[g].hosts
	var pts []OriginASPoint
	for _, o := range c.DS.Origins {
		tr := 0
		for _, i := range hosts {
			if c.class[o][i] == ClassTransient {
				tr++
			}
		}
		var dropSum float64
		n := 0
		for _, lt := range c.lossTallies(topo)[o] {
			if lt != nil && lt.perAS[as] != nil && lt.perAS[as].responding >= 2 {
				dropSum += lt.perAS[as].rate()
				n++
			}
		}
		pt := OriginASPoint{Origin: o, Transient: float64(tr) / float64(len(hosts))}
		if n > 0 {
			pt.Drop = dropSum / float64(n)
		}
		pts = append(pts, pt)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Origin < pts[j].Origin })
	return pts
}
