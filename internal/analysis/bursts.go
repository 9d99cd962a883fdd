package analysis

import (
	"time"

	"repro/internal/asn"
	"repro/internal/origin"
	"repro/internal/stats"
)

// BurstReport summarizes §5.3 for one protocol: how much transient loss
// coincides with hour-granularity burst outages.
type BurstReport struct {
	// PerOriginTrial[o][t] is the fraction of the origin's transiently
	// missed hosts in trial t that fall in burst hours (14–36% in the
	// paper).
	PerOriginTrial map[origin.ID][]float64
	// ASesWithBurst is the fraction of destination ASes (with ≥1
	// transient host) that show at least one detected burst (45%).
	ASesWithBurst float64
	// SingleOriginBursts is the fraction of (AS, hour) bursts affecting
	// exactly one origin (~60%); WithinThree within three (≥91%).
	SingleOriginBursts float64
	WithinThree        float64
	// SingleOriginByOrigin counts single-origin bursts per origin
	// (Australia accounts for 30–40%).
	SingleOriginByOrigin map[origin.ID]int
}

// hourOf buckets a virtual time into scan hours.
func hourOf(t time.Duration) int { return int(t / time.Hour) }

// Bursts runs the paper's §5.3 analysis: build hourly series of
// transiently missed hosts per (origin, destination AS, trial), detect
// outliers ≥2σ above the 4-hour rolling mean, and attribute loss.
func Bursts(c *Classifier, topo Topology, scanHours int) BurstReport {
	if scanHours <= 0 {
		scanHours = 21
	}
	ds := c.DS
	rep := BurstReport{
		PerOriginTrial:       map[origin.ID][]float64{},
		SingleOriginByOrigin: map[origin.ID]int{},
	}

	// series[o][as][trial][hour] = transiently missed hosts.
	type key struct {
		o     origin.ID
		as    asn.ASN
		trial int
	}
	series := map[key][]float64{}
	transientASes := map[asn.ASN]bool{}
	// missedAt[o][trial] total transient misses; inBurst counts later.
	missed := map[origin.ID][]int{}
	for _, o := range ds.Origins {
		missed[o] = make([]int, ds.Trials)
		rep.PerOriginTrial[o] = make([]float64, ds.Trials)
	}

	st := c.spine(topo)
	// firstT[t][i] is when union[i] was probed in trial t, from the first
	// origin (in dataset order) that recorded it; built on first need.
	firstT := make([][]time.Duration, ds.Trials)
	for _, o := range ds.Origins {
		cls := c.class[o]
		for t := 0; t < ds.Trials; t++ {
			s := ds.Scan(o, c.Proto, t)
			if s == nil {
				continue
			}
			// Missed hosts come in address order, so one cursor into the
			// scan's address column finds each one's own record.
			addrs := s.Addrs()
			j := 0
			c.eachMissed(o, t, func(i int) {
				g := st.group[i]
				if cls[i] != ClassTransient || g < 0 {
					return
				}
				as, a := st.groups[g].AS, c.union[i]
				transientASes[as] = true
				k := key{o, as, t}
				if series[k] == nil {
					series[k] = make([]float64, scanHours)
				}
				for j < len(addrs) && addrs[j].Less(a) {
					j++
				}
				h := 0
				if j < len(addrs) && addrs[j] == a {
					h = hourOf(s.RecordAt(j).T)
				} else {
					// Scans are synchronized: another origin's
					// record of the host gives the probe hour.
					if firstT[t] == nil {
						firstT[t] = c.firstProbeTimes(t)
					}
					if pt := firstT[t][i]; pt >= 0 {
						h = hourOf(pt)
					}
				}
				if h >= scanHours {
					h = scanHours - 1
				}
				series[k][h]++
				missed[o][t]++
			})
		}
	}

	// Detect bursts per series; aggregate.
	type burstKey struct {
		as    asn.ASN
		trial int
		hour  int
	}
	burstOrigins := map[burstKey]map[origin.ID]bool{}
	asesWithBurst := map[asn.ASN]bool{}
	inBurst := map[origin.ID][]int{}
	for _, o := range ds.Origins {
		inBurst[o] = make([]int, ds.Trials)
	}
	for k, ser := range series {
		idxs := stats.DetectBursts(ser, 4, 2)
		for _, h := range idxs {
			// Require a real burst, not one stray host poking above
			// a flat series: the paper chose hour granularity so an
			// average AS under random loss loses more than one host
			// per hour; demand at least 2 in the spike.
			if ser[h] < 2 {
				continue
			}
			bk := burstKey{k.as, k.trial, h}
			if burstOrigins[bk] == nil {
				burstOrigins[bk] = map[origin.ID]bool{}
			}
			burstOrigins[bk][k.o] = true
			asesWithBurst[k.as] = true
			inBurst[k.o][k.trial] += int(ser[h])
		}
	}

	for _, o := range ds.Origins {
		for t := 0; t < ds.Trials; t++ {
			if missed[o][t] > 0 {
				rep.PerOriginTrial[o][t] = float64(inBurst[o][t]) / float64(missed[o][t])
			}
		}
	}
	if len(transientASes) > 0 {
		rep.ASesWithBurst = float64(len(asesWithBurst)) / float64(len(transientASes))
	}
	single, within3 := 0, 0
	for _, os := range burstOrigins {
		if len(os) == 1 {
			single++
			for o := range os {
				rep.SingleOriginByOrigin[o]++
			}
		}
		if len(os) <= 3 {
			within3++
		}
	}
	if len(burstOrigins) > 0 {
		rep.SingleOriginBursts = float64(single) / float64(len(burstOrigins))
		rep.WithinThree = float64(within3) / float64(len(burstOrigins))
	}
	return rep
}

// firstProbeTimes returns, per spine host, when it was probed in the trial
// according to the first origin (in dataset order) that recorded it, or -1
// (scans are seed-synchronized, so all origins probe a target at the same
// virtual time). One merge walk per origin's scan against the spine.
func (c *Classifier) firstProbeTimes(trial int) []time.Duration {
	out := make([]time.Duration, len(c.union))
	for i := range out {
		out[i] = -1
	}
	for _, o := range c.DS.Origins {
		s := c.DS.Scan(o, c.Proto, trial)
		if s == nil {
			continue
		}
		ui := 0
		for j, a := range s.Addrs() {
			for ui < len(c.union) && c.union[ui].Less(a) {
				ui++
			}
			if ui < len(c.union) && c.union[ui] == a && out[ui] < 0 {
				out[ui] = s.RecordAt(j).T
			}
		}
	}
	return out
}
