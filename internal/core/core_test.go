package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
)

var (
	coreOnce sync.Once
	coreStu  *Study
	coreErr  error
)

func study(t *testing.T) *Study {
	t.Helper()
	coreOnce.Do(func() {
		coreStu, coreErr = New(context.Background(), experiment.Config{WorldSpec: world.TestSpec(42)})
		if coreErr == nil {
			coreErr = coreStu.Run(context.Background())
		}
	})
	if coreErr != nil {
		t.Fatal(coreErr)
	}
	return coreStu
}

func TestRunIsIdempotent(t *testing.T) {
	s := study(t)
	ds := s.DS
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.DS != ds {
		t.Error("second Run replaced the dataset")
	}
}

func TestClassifierCached(t *testing.T) {
	s := study(t)
	a := s.Classifier(proto.HTTP)
	b := s.Classifier(proto.HTTP)
	if a != b {
		t.Error("classifier not cached")
	}
	if s.Classifier(proto.SSH) == a {
		t.Error("protocols share a classifier")
	}
}

func TestEveryAccessorProducesData(t *testing.T) {
	s := study(t)
	if len(s.Fig1Coverage(proto.HTTP).Cells) == 0 {
		t.Error("Fig1 empty")
	}
	if len(s.Fig2MissingBreakdown(proto.HTTP)) == 0 {
		t.Error("Fig2 empty")
	}
	if sum(s.Fig3LongTermOverlap(proto.HTTP, nil)) == 0 {
		t.Error("Fig3 empty")
	}
	if len(s.Fig4ASDistribution(proto.HTTP)) == 0 {
		t.Error("Fig4 empty")
	}
	if len(s.Fig5LostASes(proto.HTTP)) == 0 {
		t.Error("Fig5 empty")
	}
	if len(s.Fig6ExclusiveByCountry(proto.HTTP)) == 0 {
		t.Error("Fig6 empty")
	}
	if len(s.Fig7ExclusiveByAS(proto.HTTP, 3)) == 0 {
		t.Error("Fig7 empty")
	}
	if sum(s.Fig8TransientOverlap(proto.HTTP)) == 0 {
		t.Error("Fig8 empty")
	}
	spreads, plain, weighted := s.Fig9LossSpread(proto.HTTP)
	if len(spreads) == 0 || len(plain) == 0 || len(weighted) == 0 {
		t.Error("Fig9 empty")
	}
	if len(s.Fig10LossVsDrop(proto.HTTP, world.ProfTelecomIT)) == 0 {
		t.Error("Fig10 empty")
	}
	if s.Fig11BestWorst(proto.HTTP).ASesConsidered == 0 {
		t.Error("Fig11 empty")
	}
	if len(s.Fig12AlibabaTimeline(origin.US1, 0)) != 21 {
		t.Error("Fig12 wrong length")
	}
	if len(s.Fig14SSHCauses()) == 0 {
		t.Error("Fig14 empty")
	}
	if lvls, err := s.Fig15MultiOrigin(context.Background(), proto.HTTP, false); err != nil || len(lvls) != len(origin.StudySet()) {
		t.Errorf("Fig15 levels = %d (err %v)", len(lvls), err)
	}
	if len(s.Tab1ExclusiveShare(proto.HTTP)) == 0 {
		t.Error("Tab1 empty")
	}
	if len(s.Tab2Countries(proto.HTTP)) == 0 {
		t.Error("Tab2 empty")
	}
	if len(s.McNemar(proto.HTTP, 0)) == 0 {
		t.Error("McNemar empty")
	}
	if s.CountryCorrelation(proto.HTTP).N < 3 {
		t.Error("country correlation degenerate")
	}
	if s.PacketLoss(proto.HTTP, origin.AU, 0).Rate <= 0 {
		t.Error("packet loss estimator returned zero for AU")
	}
	if len(s.DropVsTransient(proto.HTTP)) == 0 {
		t.Error("drop-vs-transient empty")
	}
	if s.Probes(proto.HTTP, origin.AU, 0).Coverage2Probe <= 0 {
		t.Error("probe stats empty")
	}
	if len(s.Bursts(proto.HTTP).PerOriginTrial) == 0 {
		t.Error("bursts empty")
	}
	if top, distinct := s.Banners(proto.HTTP, origin.US1, 0, 5); len(top) == 0 || distinct == 0 {
		t.Errorf("banners: %d rows, %d distinct", len(top), distinct)
	}
	if a := s.Agreement(proto.HTTP, 0); a.Blocks == 0 || len(a.PerPair) == 0 {
		t.Errorf("agreement over %d blocks, %d pairs", a.Blocks, len(a.PerPair))
	}
	// The two accessors that scan again come last.
	if curves, err := s.Fig13SSHRetry(context.Background(), 3, 8); err != nil || len(curves) == 0 || len(curves[0].Success) != 9 {
		t.Errorf("Fig13 curves = %v (err %v)", curves, err)
	}
	if pts, err := s.ProbeSweep(context.Background(), origin.US1, proto.HTTP, 0, 3, 0); err != nil || len(pts) != 3 || pts[2].Coverage <= 0 {
		t.Errorf("probe sweep = %v (err %v)", pts, err)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func TestUseDatasetRoundTrip(t *testing.T) {
	s := study(t)
	var buf bytes.Buffer
	if err := s.DS.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := results.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A second study over the same world must produce identical analyses
	// from the loaded dataset.
	s2, err := New(context.Background(), experiment.Config{WorldSpec: world.TestSpec(42)})
	if err != nil {
		t.Fatal(err)
	}
	s2.UseDataset(ds)
	a := s.Fig1Coverage(proto.HTTP)
	b := s2.Fig1Coverage(proto.HTTP)
	if a.Mean(origin.CEN, false) != b.Mean(origin.CEN, false) {
		t.Error("analyses differ after dataset round trip")
	}
	h1 := s.Fig3LongTermOverlap(proto.SSH, nil)
	h2 := s2.Fig3LongTermOverlap(proto.SSH, nil)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("overlap histograms differ after round trip")
		}
	}
}
