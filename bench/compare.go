package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := new(resultFile)
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// spread is a metric's run-to-run spread as a share of its median: the
// distance between the quartiles (as Python's statistics.quantiles gives
// them) from four samples up, the whole range below that.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if n := len(s); n >= 4 {
		q := func(k int) float64 {
			pos := float64(k*(n+1)) / 4
			i := min(max(int(pos), 1), n-1)
			return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
		}
		lo, hi = q(1), q(3)
	}
	return ratio(hi-lo, median(s))
}

// verdict compares one metric of two runs of the benchmark. base and change
// are the two sides' samples.
func verdict(d metricDef, base, change sample) (worseBy float64, v string) {
	worseBy = ratio(change.Value-base.Value, base.Value)
	better := func(x, y float64) bool { return x < y }
	if d.better == "higher" {
		worseBy = -worseBy
		better = func(x, y float64) bool { return x > y }
	}
	if max(spread(base.Samples), spread(change.Samples)) > d.bound {
		// Too noisy to call unchanged — unless every run of the change
		// reads better than every run of the base.
		for _, c := range change.Samples {
			for _, b := range base.Samples {
				if !better(c, b) {
					return worseBy, "unresolved"
				}
			}
		}
		return worseBy, "ok"
	}
	if worseBy > d.bound {
		return worseBy, "worse"
	}
	return worseBy, "ok"
}

// compareFiles prints, per workload × end-to-end metric, both values, the
// ratio with its base, the bound and the verdict; it reports whether any
// metric is worse. Failed operations on the change's side count as worse.
func compareFiles(out io.Writer, basePath, changePath string) (anyWorse bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base   %s: commit %.12s, seed %d, GOMAXPROCS %d, load %.2f\n", basePath,
		base.Env.Commit, base.Env.Seed, base.Env.GOMAXPROCS, base.Env.LoadAvg1)
	fmt.Fprintf(out, "change %s: commit %.12s, seed %d, GOMAXPROCS %d, load %.2f\n", changePath,
		change.Env.Commit, change.Env.Seed, change.Env.GOMAXPROCS, change.Env.LoadAvg1)
	fmt.Fprintf(out, "%-9s %-14s %14s %14s %-6s %16s %7s  %s\n",
		"workload", "metric", "base", "change", "unit", "change/base", "bound", "verdict")
	changed := map[string]*workloadResult{}
	for i := range change.Workloads {
		changed[change.Workloads[i].Name] = &change.Workloads[i]
	}
	for i := range base.Workloads {
		b := &base.Workloads[i]
		c, ok := changed[b.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", changePath, b.Name)
		}
		for _, d := range endToEnd {
			bs, cs := b.EndToEnd[d.name], c.EndToEnd[d.name]
			_, v := verdict(d, bs, cs)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-9s %-14s %14.6g %14.6g %-6s %9.4f of base %6.1f%%  %s\n",
				b.Name, d.name, bs.Value, cs.Value, d.unit, ratio(cs.Value, bs.Value), 100*d.bound, v)
		}
		if b.Pin != c.Pin {
			fmt.Fprintf(out, "%-9s dataset differs: %+v vs %+v\n", b.Name, b.Pin, c.Pin)
		}
		if c.Failed > b.Failed {
			anyWorse = true
			fmt.Fprintf(out, "%-9s failed operations: %d of %d vs %d of %d: worse\n", b.Name, c.Failed, c.Attempted, b.Failed, b.Attempted)
		}
	}
	return anyWorse, nil
}
