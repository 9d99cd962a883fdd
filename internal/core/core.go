// Package core is the library's high-level entry point: it ties the world
// generator, scenario, scanner, and analyses together into the paper's
// study, and exposes one accessor per table and figure of the evaluation.
package core

import (
	"context"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/geo"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/world"
)

// Study is a completed (or ready-to-run) reproduction study.
type Study struct {
	Exp *experiment.Study
	DS  *results.Dataset

	complete bool
	// The per-protocol index and Table 4a, computed once per dataset:
	// Run and UseDataset drop them.
	classifiers map[proto.Protocol]*analysis.Classifier
	coverage    map[proto.Protocol]analysis.CoverageTable
}

// New prepares a study from an experiment config. World generation honours
// ctx; see experiment.NewStudy.
func New(ctx context.Context, cfg experiment.Config) (*Study, error) {
	exp, err := experiment.NewStudy(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := &Study{Exp: exp}
	s.reset()
	return s, nil
}

// Run executes all scans. It is idempotent: a second call after a complete
// run reuses the existing dataset. A canceled or failed run stores (and
// returns an error alongside) the partial dataset — every scan sealed
// before the interruption — and a later Run call retries from scratch.
func (s *Study) Run(ctx context.Context) error {
	if s.complete {
		return nil
	}
	ds, err := s.Exp.Run(ctx)
	s.DS = ds
	s.reset()
	if err != nil {
		return err
	}
	s.complete = true
	return nil
}

// UseDataset attaches a previously collected dataset (e.g. loaded from
// disk) instead of running the scans.
func (s *Study) UseDataset(ds *results.Dataset) {
	s.DS = ds
	s.complete = true
	s.reset()
}

func (s *Study) reset() {
	s.classifiers = map[proto.Protocol]*analysis.Classifier{}
	s.coverage = map[proto.Protocol]analysis.CoverageTable{}
}

// World returns the study's synthetic Internet.
func (s *Study) World() *world.World { return s.Exp.World }

// Topo returns the topology view used by the analyses.
func (s *Study) Topo() analysis.Topology { return analysis.WorldTopo{W: s.Exp.World} }

// Classifier returns (and caches) the per-protocol accessibility
// classification.
func (s *Study) Classifier(p proto.Protocol) *analysis.Classifier {
	if c, ok := s.classifiers[p]; ok {
		return c
	}
	c := analysis.NewClassifier(s.DS, p)
	s.classifiers[p] = c
	return c
}

// OriginCountries maps each origin to its country, for the geographic
// analyses.
func (s *Study) OriginCountries() map[origin.ID]geo.Country {
	m := map[origin.ID]geo.Country{}
	for _, o := range s.Exp.World.Origins.All() {
		m[o.ID] = o.Country
	}
	return m
}

// --- one accessor per table/figure ---

// Fig1Coverage returns per-origin mean coverage (Figure 1, Table 4a).
// The table is shared by its callers; they must not modify it.
func (s *Study) Fig1Coverage(p proto.Protocol) analysis.CoverageTable {
	if _, ok := s.coverage[p]; !ok {
		s.coverage[p] = analysis.Coverage(s.DS, p)
	}
	return s.coverage[p]
}

// Fig2MissingBreakdown returns the missing-host breakdown (Figure 2).
func (s *Study) Fig2MissingBreakdown(p proto.Protocol) []analysis.Breakdown {
	return analysis.MissingBreakdown(s.Classifier(p))
}

// Fig3LongTermOverlap returns the long-term overlap histogram (Figure 3).
func (s *Study) Fig3LongTermOverlap(p proto.Protocol, exclude origin.Set) []int {
	return analysis.OverlapHistogram(s.Classifier(p), analysis.ClassLongTerm, exclude)
}

// Fig4ASDistribution returns long-term AS concentration (Figure 4).
func (s *Study) Fig4ASDistribution(p proto.Protocol) []analysis.ASConcentration {
	return analysis.ASDistribution(s.Classifier(p), s.Topo())
}

// Fig5LostASes returns the inaccessible-AS counts (Figure 5).
func (s *Study) Fig5LostASes(p proto.Protocol) []analysis.LostASRow {
	return analysis.InaccessibleASes(s.Classifier(p), s.Topo(), 2)
}

// Fig6ExclusiveByCountry returns the exclusive-access country matrix
// (Figure 6 for HTTP; Figure 16 for HTTPS/SSH).
func (s *Study) Fig6ExclusiveByCountry(p proto.Protocol) []analysis.CountryCell {
	return analysis.ExclusiveByCountry(s.Classifier(p), s.Topo(), s.OriginCountries())
}

// Fig7ExclusiveByAS returns the exclusive-access AS shares (Figure 7).
func (s *Study) Fig7ExclusiveByAS(p proto.Protocol, topN int) []analysis.ASShare {
	return analysis.ExclusiveByAS(s.Classifier(p), s.Topo(), topN)
}

// Fig8TransientOverlap returns the transient overlap histogram (Figure 8).
func (s *Study) Fig8TransientOverlap(p proto.Protocol) []int {
	return analysis.OverlapHistogram(s.Classifier(p), analysis.ClassTransient, nil)
}

// Fig9LossSpread returns per-AS transient spreads and their CDFs (Fig 9).
func (s *Study) Fig9LossSpread(p proto.Protocol) ([]analysis.ASLossSpread, []stats.CDFPoint, []stats.CDFPoint) {
	spreads := analysis.TransientLossSpread(s.Classifier(p), s.Topo(), 2)
	plain, weighted := analysis.SpreadCDF(spreads)
	return spreads, plain, weighted
}

// Fig10LossVsDrop returns Figure 10's per-origin points for a profile AS.
func (s *Study) Fig10LossVsDrop(p proto.Protocol, profile string) []analysis.OriginASPoint {
	as := s.Exp.World.MustProfileASN(profile)
	return analysis.LossVsDropForAS(s.Classifier(p), s.Topo(), as)
}

// Fig11BestWorst returns origin-rank stability (Figure 11, §5.1).
func (s *Study) Fig11BestWorst(p proto.Protocol) analysis.StabilityReport {
	return analysis.BestWorstStability(s.Classifier(p), s.Topo(), 5)
}

// Fig12AlibabaTimeline returns the temporal-blocking timeline (Figure 12).
func (s *Study) Fig12AlibabaTimeline(o origin.ID, trial int) []analysis.HourlyOutcome {
	return analysis.TemporalTimeline(s.DS, s.Topo(), s.Exp.Scenario.Alibaba.ASes, o, trial, 21)
}

// Fig13SSHRetry runs the retry sub-experiment (Figure 13).
func (s *Study) Fig13SSHRetry(ctx context.Context, topASes, maxRetries int) ([]experiment.RetryCurve, error) {
	return s.Exp.SSHRetry(ctx, s.DS, topASes, maxRetries)
}

// Fig14SSHCauses returns the SSH cause breakdown (Figure 14).
func (s *Study) Fig14SSHCauses() []analysis.SSHBreakdown {
	return analysis.SSHCauses(s.Classifier(proto.SSH), s.Topo(), s.Exp.Scenario.Alibaba.ASes)
}

// Fig15MultiOrigin returns multi-origin coverage levels (Figures 15/17).
func (s *Study) Fig15MultiOrigin(ctx context.Context, p proto.Protocol, singleProbe bool) ([]analysis.MultiOriginLevel, error) {
	return analysis.MultiOrigin(ctx, s.DS, p, studyOriginsOf(s.DS), singleProbe)
}

// Tab1ExclusiveShare returns Table 1's attribution rows.
func (s *Study) Tab1ExclusiveShare(p proto.Protocol) []analysis.ShareRow {
	ex := analysis.Exclusive(s.Classifier(p))
	return analysis.ExclusiveShare(ex, studyOriginsOf(s.DS))
}

// Tab2Countries returns Tables 2/5: country-level long-term loss.
func (s *Study) Tab2Countries(p proto.Protocol) []analysis.CountryRow {
	return analysis.CountryInaccessibility(s.Classifier(p), s.Topo())
}

// McNemar returns §3's pairwise significance tests.
func (s *Study) McNemar(p proto.Protocol, trial int) []analysis.McNemarPair {
	return analysis.PairwiseMcNemar(s.DS, p, trial)
}

// CountryCorrelation returns §4.4's Spearman ρ.
func (s *Study) CountryCorrelation(p proto.Protocol) stats.SpearmanResult {
	return analysis.CountrySizeCorrelation(s.Classifier(p), s.Topo())
}

// PacketLoss returns the §5.2 estimator for one origin and trial.
func (s *Study) PacketLoss(p proto.Protocol, o origin.ID, trial int) analysis.PacketLossEstimate {
	return s.Classifier(p).PacketLoss(s.Topo(), o, trial, 5)
}

// DropVsTransient returns §5.2's per-origin correlation between packet
// drop and transient loss.
func (s *Study) DropVsTransient(p proto.Protocol) map[origin.ID]stats.SpearmanResult {
	return analysis.DropVsTransient(s.Classifier(p), s.Topo(), 5)
}

// Bursts returns §5.3's burst-outage attribution.
func (s *Study) Bursts(p proto.Protocol) analysis.BurstReport {
	return analysis.Bursts(s.Classifier(p), s.Topo(), 21)
}

// Probes returns §7's probe-level statistics.
func (s *Study) Probes(p proto.Protocol, o origin.ID, trial int) analysis.ProbeStats {
	return analysis.Probes(s.DS, p, o, trial)
}

// Banners returns the top application banners one origin captured — the
// Censys-style census ZGrab's handshakes exist to produce.
func (s *Study) Banners(p proto.Protocol, o origin.ID, trial, topN int) ([]analysis.BannerCount, int) {
	return analysis.BannerCensus(s.DS, p, o, trial, topN)
}

// Agreement returns the §8 Heidemann-style /24 response-rate agreement
// (the paper: 87%% of /24s within 5%% across its origin pairs).
func (s *Study) Agreement(p proto.Protocol, trial int) analysis.Slash24Agreement {
	return analysis.AgreementWithin(s.DS, p, trial, 2, 0.05)
}

// ProbeSweep re-scans one origin with 1..maxProbes probes per target and an
// optional inter-probe delay, returning the coverage curve (§7/§8's
// single-origin multi-probe estimate).
func (s *Study) ProbeSweep(ctx context.Context, o origin.ID, p proto.Protocol, trial, maxProbes int, delay time.Duration) ([]experiment.ProbeSweepPoint, error) {
	return s.Exp.MultiProbeSweep(ctx, s.DS, o, p, trial, maxProbes, delay)
}

// studyOriginsOf returns the dataset's origins excluding Carinet, which
// the paper leaves out of aggregate statistics.
func studyOriginsOf(ds *results.Dataset) origin.Set {
	var out origin.Set
	for _, o := range ds.Origins {
		if o != origin.CARINET {
			out = append(out, o)
		}
	}
	return out
}
