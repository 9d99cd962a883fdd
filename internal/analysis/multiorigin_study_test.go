package analysis_test

// External so it can run a real study: internal/experiment imports this
// package.

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/world"
)

// multiOriginBySet is MultiOrigin computed the slow way: every combination
// × trial through Dataset.CoverageOfSet's k-cursor merge, visited and
// reduced in lexicographic order.
func multiOriginBySet(ds *results.Dataset, p proto.Protocol, origins origin.Set, singleProbe bool) []analysis.MultiOriginLevel {
	var levels []analysis.MultiOriginLevel
	for k := 1; k <= len(origins); k++ {
		lvl := analysis.MultiOriginLevel{K: k, Min: 2, Max: -1}
		var vals []float64
		var visit func(from int, combo origin.Set)
		visit = func(from int, combo origin.Set) {
			if len(combo) < k {
				for i := from; i < len(origins); i++ {
					visit(i+1, append(combo[:len(combo):len(combo)], origins[i]))
				}
				return
			}
			var sum float64
			trials := 0
			for t := 0; t < ds.Trials; t++ {
				if ds.Scan(combo[0], p, t) != nil {
					sum += ds.CoverageOfSet(combo, p, t, singleProbe)
					trials++
				}
			}
			if trials == 0 {
				return
			}
			cc := analysis.ComboCoverage{Origins: combo, Coverage: sum / float64(trials)}
			lvl.All = append(lvl.All, cc)
			vals = append(vals, cc.Coverage)
			if cc.Coverage < lvl.Min {
				lvl.Min, lvl.Worst = cc.Coverage, cc
			}
			if cc.Coverage > lvl.Max {
				lvl.Max, lvl.Best = cc.Coverage, cc
			}
		}
		visit(0, nil)
		lvl.Median, lvl.Mean, lvl.Sigma = stats.Median(vals), stats.Mean(vals), stats.StdDev(vals)
		sort.Slice(lvl.All, func(i, j int) bool { return lvl.All[i].Coverage > lvl.All[j].Coverage })
		levels = append(levels, lvl)
	}
	return levels
}

// TestMultiOriginMatchesCoverageOfSet: on a TestSpec study with Carinet
// (an origin that scanned one trial only), every level MultiOrigin returns
// — every combination's trial-averaged coverage, the order of ties, the
// floats of the summary statistics — equals the one computed through
// CoverageOfSet, for each protocol and both probe counts.
func TestMultiOriginMatchesCoverageOfSet(t *testing.T) {
	ctx := context.Background()
	stu, err := experiment.NewStudy(ctx, experiment.Config{WorldSpec: world.TestSpec(11), IncludeCarinet: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := stu.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Origins.Contains(origin.CARINET) || ds.Trials < 2 {
		t.Fatalf("study has origins %v × %d trials; want Carinet and several trials", ds.Origins, ds.Trials)
	}
	for _, p := range proto.All() {
		for _, single := range []bool{false, true} {
			got, err := analysis.MultiOrigin(ctx, ds, p, ds.Origins, single)
			if err != nil {
				t.Fatal(err)
			}
			want := multiOriginBySet(ds, p, ds.Origins, single)
			if len(got) != len(ds.Origins) || len(got[0].All) != len(ds.Origins) {
				t.Fatalf("%v single=%v: %d levels, %d singletons", p, single, len(got), len(got[0].All))
			}
			for k := range want {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("%v single=%v level %d:\n got %+v\nwant %+v", p, single, k+1, got[k], want[k])
				}
			}
		}
	}
}
