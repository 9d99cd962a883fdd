package analysis_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/proto"
	"repro/internal/results"
)

// freshCopy returns a dataset holding ds's sealed scans with no join built.
func freshCopy(t *testing.T, ds *results.Dataset) *results.Dataset {
	t.Helper()
	out := results.NewDataset(ds.Origins, ds.Trials)
	for _, o := range ds.Origins {
		for _, p := range proto.All() {
			for tr := 0; tr < ds.Trials; tr++ {
				if s := ds.Scan(o, p, tr); s != nil {
					if err := out.Put(s); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return out
}

// joinAnswers is what the passes that read a trial's join directly return
// for every protocol and trial.
type joinAnswers struct {
	coverage  []analysis.CoverageTable
	mcnemar   [][]analysis.McNemarPair
	agreement []analysis.Slash24Agreement
	multi     [][]analysis.MultiOriginLevel
}

// run computes the answers, starting with the pass numbered first, so that
// goroutines started at different passes race different callers into each
// join's first build.
func (a *joinAnswers) run(ds *results.Dataset, first int) error {
	passes := []func(p proto.Protocol) error{
		func(p proto.Protocol) error {
			a.coverage = append(a.coverage, analysis.Coverage(ds, p))
			return nil
		},
		func(p proto.Protocol) error {
			for tr := 0; tr < ds.Trials; tr++ {
				a.mcnemar = append(a.mcnemar, analysis.PairwiseMcNemar(ds, p, tr))
			}
			return nil
		},
		func(p proto.Protocol) error {
			for tr := 0; tr < ds.Trials; tr++ {
				a.agreement = append(a.agreement, analysis.AgreementWithin(ds, p, tr, 2, 0.05))
			}
			return nil
		},
		func(p proto.Protocol) error {
			lvls, err := analysis.MultiOrigin(context.Background(), ds, p, ds.Origins, false)
			a.multi = append(a.multi, lvls)
			return err
		},
	}
	for k := range passes {
		pass := passes[(first+k)%len(passes)]
		for _, p := range proto.All() {
			if err := pass(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestJoinFirstBuildConcurrentReaders: four goroutines run Coverage,
// PairwiseMcNemar, AgreementWithin and MultiOrigin on one dataset whose
// joins are not built yet, each starting at a different pass. Under -race
// this is the joins' publication check; every goroutine must get the
// answers a serial run gets.
func TestJoinFirstBuildConcurrentReaders(t *testing.T) {
	_, ds := v4Study(t, 42)
	var want joinAnswers
	if err := want.run(freshCopy(t, ds), 0); err != nil {
		t.Fatal(err)
	}
	shared := freshCopy(t, ds)
	got := make([]joinAnswers, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = got[g].run(shared, g)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		assertEqual(t, "Coverage", got[g].coverage, want.coverage)
		assertEqual(t, "PairwiseMcNemar", got[g].mcnemar, want.mcnemar)
		assertEqual(t, "AgreementWithin", got[g].agreement, want.agreement)
		assertEqual(t, "MultiOrigin", got[g].multi, want.multi)
	}
}
