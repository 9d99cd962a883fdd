package analysis

import (
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/stats"
)

// CoverageCell is one (origin, trial) entry of Table 4a.
type CoverageCell struct {
	Origin   origin.ID
	Trial    int
	Coverage float64 // 2-probe
	Single   float64 // 1-probe simulation
}

// CoverageTable is Table 4a for one protocol: per-origin per-trial coverage
// plus the all-origin intersection and the ground-truth union size.
type CoverageTable struct {
	Proto proto.Protocol
	Cells []CoverageCell
	// Intersection[t] is the fraction of trial t's ground truth that
	// every origin saw; Union[t] is the ground-truth host count.
	Intersection []float64
	Union        []int
}

// Coverage computes Table 4a for one protocol.
func Coverage(ds *results.Dataset, p proto.Protocol) CoverageTable {
	t := CoverageTable{Proto: p}
	for trial := 0; trial < ds.Trials; trial++ {
		gt := ds.GroundTruth(p, trial)
		t.Union = append(t.Union, len(gt))
		inter := ds.Intersection(p, trial)
		if len(gt) > 0 {
			t.Intersection = append(t.Intersection, float64(inter)/float64(len(gt)))
		} else {
			t.Intersection = append(t.Intersection, 0)
		}
		for _, o := range ds.Origins {
			if ds.Scan(o, p, trial) == nil {
				continue
			}
			t.Cells = append(t.Cells, CoverageCell{
				Origin:   o,
				Trial:    trial,
				Coverage: ds.Coverage(o, p, trial, false),
				Single:   ds.Coverage(o, p, trial, true),
			})
		}
	}
	return t
}

// Mean returns the origin's mean coverage across its trials.
func (t *CoverageTable) Mean(o origin.ID, singleProbe bool) float64 {
	var vals []float64
	for _, c := range t.Cells {
		if c.Origin != o {
			continue
		}
		if singleProbe {
			vals = append(vals, c.Single)
		} else {
			vals = append(vals, c.Coverage)
		}
	}
	return stats.Mean(vals)
}

// PairwiseMcNemar runs McNemar's test between every pair of origins for
// one protocol and trial over the ground-truth hosts, Bonferroni-corrected
// for the number of pairs (§3).
type McNemarPair struct {
	OrigA, OrigB origin.ID
	stats.McNemarResult
	PAdjusted float64
}

// PairwiseMcNemar computes the §3 significance matrix.
func PairwiseMcNemar(ds *results.Dataset, p proto.Protocol, trial int) []McNemarPair {
	j := ds.Join(p, trial)
	var origins origin.Set
	var cols []results.Column
	for _, o := range ds.Origins {
		if col := j.Of(o); col.Scan != nil {
			origins = append(origins, o)
			cols = append(cols, col)
		}
	}
	nPairs := len(origins) * (len(origins) - 1) / 2
	var out []McNemarPair
	for a := range origins {
		for b := a + 1; b < len(origins); b++ {
			var onlyA, onlyB uint64
			for g := range j.GT {
				va, vb := cols[a].Success(g, false), cols[b].Success(g, false)
				if va && !vb {
					onlyA++
				} else if vb && !va {
					onlyB++
				}
			}
			r := stats.McNemar(onlyA, onlyB)
			out = append(out, McNemarPair{
				OrigA: origins[a], OrigB: origins[b], McNemarResult: r,
				PAdjusted: stats.Bonferroni(r.P, nPairs),
			})
		}
	}
	return out
}

// ProbeStats quantifies the §7 probe-level findings for one origin,
// protocol, and trial: 1- vs 2-probe coverage and the both-probes-lost
// conditional probability (the paper finds ≥93%, i.e. loss is correlated).
type ProbeStats struct {
	Origin          origin.ID
	Trial           int
	Coverage2Probe  float64
	Coverage1Probe  float64
	LostAtLeastOne  int
	LostBoth        int
	BothLostPortion float64
}

// Probes computes ProbeStats over the trial's ground truth.
func Probes(ds *results.Dataset, p proto.Protocol, o origin.ID, trial int) ProbeStats {
	ps := ProbeStats{Origin: o, Trial: trial}
	ps.Coverage2Probe = ds.Coverage(o, p, trial, false)
	ps.Coverage1Probe = ds.Coverage(o, p, trial, true)
	j := ds.Join(p, trial)
	col := j.Of(o)
	if col.Scan == nil {
		return ps
	}
	for g := range j.GT {
		r, _ := col.Record(g)
		switch {
		case r.ProbeMask == 0b11:
			// both probes answered
		case r.ProbeMask == 0:
			ps.LostAtLeastOne++
			ps.LostBoth++
		default:
			ps.LostAtLeastOne++
		}
	}
	if ps.LostAtLeastOne > 0 {
		ps.BothLostPortion = float64(ps.LostBoth) / float64(ps.LostAtLeastOne)
	}
	return ps
}
