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
	for _, o := range ds.Origins {
		cls := c.class[o]
		for t := 0; t < ds.Trials; t++ {
			c.eachMissed(o, t, func(i, g int) {
				gr := st.group[i]
				if cls[i] != ClassTransient || gr < 0 {
					return
				}
				as := st.groups[gr].AS
				transientASes[as] = true
				k := key{o, as, t}
				if series[k] == nil {
					series[k] = make([]float64, scanHours)
				}
				h := hourOf(c.probeTime(t, g))
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

// probeTime is when ground-truth host g of the trial was probed, read from
// the first origin (in dataset order) that recorded it: scans are
// seed-synchronized, so every origin probes a target at the same virtual
// time, missed or not. Every ground-truth host has a record.
func (c *Classifier) probeTime(trial, g int) time.Duration {
	j := c.joins[trial]
	for _, o := range c.DS.Origins {
		if r, ok := j.Of(o).Record(g); ok {
			return r.T
		}
	}
	return 0
}
