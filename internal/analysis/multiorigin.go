package analysis

import (
	"context"
	"sort"

	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/stats"
)

// ComboCoverage is one origin-combination's coverage.
type ComboCoverage struct {
	Origins  origin.Set
	Coverage float64
}

// MultiOriginLevel summarizes all k-origin combinations for Figure 15/17:
// the box-plot statistics of coverage at each k.
type MultiOriginLevel struct {
	K      int
	Median float64
	Mean   float64
	Min    float64
	Max    float64
	Sigma  float64
	// Best is the combination with the highest coverage.
	Best ComboCoverage
	// Worst is the combination with the lowest coverage.
	Worst ComboCoverage
	// All lists every combination, sorted descending by coverage.
	All []ComboCoverage
}

// MultiOrigin computes coverage for every subset of origins of every size,
// averaged across trials, for one protocol (Figures 15, 17, 18).
// singleProbe selects the 1-probe simulation.
//
// One pass per origin and trial over the trial's join records which
// origins saw each ground-truth host; a combination's coverage is then the
// share of hosts whose origin mask meets its own, counted over a histogram
// of the trial's distinct masks (at most 2^n, however many hosts), where
// Dataset.CoverageOfSet (the single-combination API the tests hold this
// to) tests every host against every origin of the combination.
// Combinations are reduced in lexicographic order, which fixes first-wins
// ties and float summation order. ctx is checked once per level; a
// canceled evaluation returns the levels completed so far with
// pipeline.ErrCanceled.
func MultiOrigin(ctx context.Context, ds *results.Dataset, p proto.Protocol, origins origin.Set, singleProbe bool) ([]MultiOriginLevel, error) {
	n := len(origins)
	// seen[t][g] has bit i set when origins[i] completed a handshake with
	// GroundTruth(p, t)[g], scanned[t] when origins[i] scanned trial t at
	// all. 64 bits are enough: no wider set could be enumerated.
	seen := make([][]uint64, ds.Trials)
	scanned := make([]uint64, ds.Trials)
	for t := range seen {
		j := ds.Join(p, t)
		seen[t] = make([]uint64, len(j.GT))
		for i, o := range origins {
			col := j.Of(o)
			if col.Scan == nil {
				continue
			}
			scanned[t] |= 1 << i
			for g := range seen[t] {
				if col.Success(g, singleProbe) {
					seen[t][g] |= 1 << i
				}
			}
		}
	}
	// Hosts with the same origin mask count alike: hist[t] holds each
	// distinct mask of trial t once, as (mask, hosts).
	hist := make([][][2]uint64, ds.Trials)
	for t, masks := range seen {
		at := map[uint64]int{}
		for _, m := range masks {
			if _, ok := at[m]; !ok {
				at[m] = len(hist[t])
				hist[t] = append(hist[t], [2]uint64{m, 0})
			}
			hist[t][at[m]][1]++
		}
	}
	// coverage averages a combination over the trials its first origin
	// scanned (Carinet scanned one), as CoverageOfCombo does.
	coverage := func(combo uint64, first int) (float64, bool) {
		var sum float64
		trials := 0
		for t, masks := range seen {
			if scanned[t]&(1<<first) == 0 {
				continue
			}
			trials++
			if len(masks) == 0 {
				continue
			}
			hit := 0
			for _, mh := range hist[t] {
				if mh[0]&combo != 0 {
					hit += int(mh[1])
				}
			}
			sum += float64(hit) / float64(len(masks))
		}
		return sum / float64(trials), trials > 0
	}

	var levels []MultiOriginLevel
	for k := 1; k <= n; k++ {
		lvl := MultiOriginLevel{K: k, Min: 2, Max: -1}
		var vals []float64
		forEachCombo(n, k, func(idx []int) {
			combo := make(origin.Set, k)
			var bits uint64
			for i, j := range idx {
				combo[i] = origins[j]
				bits |= 1 << j
			}
			cov, ok := coverage(bits, idx[0])
			if !ok {
				return
			}
			cc := ComboCoverage{Origins: combo, Coverage: cov}
			lvl.All = append(lvl.All, cc)
			vals = append(vals, cov)
			if cov < lvl.Min {
				lvl.Min, lvl.Worst = cov, cc
			}
			if cov > lvl.Max {
				lvl.Max, lvl.Best = cov, cc
			}
		})
		if err := ctx.Err(); err != nil {
			return levels, pipeline.Canceled(err)
		}
		lvl.Median = stats.Median(vals)
		lvl.Mean = stats.Mean(vals)
		lvl.Sigma = stats.StdDev(vals)
		sort.Slice(lvl.All, func(i, j int) bool { return lvl.All[i].Coverage > lvl.All[j].Coverage })
		levels = append(levels, lvl)
	}
	return levels, nil
}

// CoverageOfCombo returns the trial-averaged coverage of one specific
// origin combination (used to pull out named combos like HE-NTT-TELIA).
func CoverageOfCombo(ds *results.Dataset, p proto.Protocol, combo origin.Set, singleProbe bool) float64 {
	var sum float64
	trials := 0
	for t := 0; t < ds.Trials; t++ {
		if ds.Scan(combo[0], p, t) == nil {
			continue
		}
		sum += ds.CoverageOfSet(combo, p, t, singleProbe)
		trials++
	}
	if trials == 0 {
		return 0
	}
	return sum / float64(trials)
}

// forEachCombo enumerates k-subsets of [0, n) in lexicographic order.
func forEachCombo(n, k int, fn func(idx []int)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
