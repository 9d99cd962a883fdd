package experiment

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/scenario"
	"repro/internal/world"
)

// The full-study fixture is expensive (~6s); build it once per test binary.
var (
	fixOnce sync.Once
	fixStu  *Study
	fixDS   *results.Dataset
	fixErr  error
)

func fixture(t *testing.T) (*Study, *results.Dataset) {
	t.Helper()
	fixOnce.Do(func() {
		fixStu, fixErr = NewStudy(context.Background(), Config{WorldSpec: world.TestSpec(42), IncludeCarinet: true})
		if fixErr != nil {
			return
		}
		fixDS, fixErr = fixStu.Run(context.Background())
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixStu, fixDS
}

func TestStudyProducesAllScans(t *testing.T) {
	_, ds := fixture(t)
	for _, p := range proto.All() {
		for trial := 0; trial < 3; trial++ {
			for _, o := range origin.StudySet() {
				if ds.Scan(o, p, trial) == nil {
					t.Fatalf("missing scan %v/%v/%d", o, p, trial)
				}
			}
		}
	}
	// Carinet scanned trial 0 only.
	if ds.Scan(origin.CARINET, proto.HTTP, 0) == nil {
		t.Error("Carinet trial 0 missing")
	}
	if ds.Scan(origin.CARINET, proto.HTTP, 1) != nil {
		t.Error("Carinet should not scan trial 1")
	}
}

func TestGroundTruthNearWorldPopulation(t *testing.T) {
	st, ds := fixture(t)
	for _, p := range proto.All() {
		for trial := 0; trial < 3; trial++ {
			gt := len(ds.GroundTruth(p, trial))
			pop := st.World.HostCount(p)
			// Churn keeps a slice of hosts offline each trial.
			if gt < pop*85/100 || gt > pop {
				t.Errorf("%v trial %d: ground truth %d vs population %d", p, trial, gt, pop)
			}
		}
	}
}

func TestNoOriginAchievesFullCoverage(t *testing.T) {
	// §3: "No single origin ... achieves greater coverage than 98% of
	// HTTP, 99% of HTTPS, or 92% of SSH hosts in any trial" — at our
	// scale, assert every origin misses something and coverage is sane.
	_, ds := fixture(t)
	for _, p := range proto.All() {
		for trial := 0; trial < 3; trial++ {
			for _, o := range origin.StudySet() {
				cov := ds.Coverage(o, p, trial, false)
				if cov >= 1.0 {
					t.Errorf("%v/%v/%d coverage = 1.0: nothing missed", o, p, trial)
				}
				if cov < 0.70 {
					t.Errorf("%v/%v/%d coverage = %v: implausibly low", o, p, trial, cov)
				}
			}
		}
	}
}

func TestCensysSeesFewerHTTPHostsThanAcademics(t *testing.T) {
	// Figure 1 / §4.1: Censys's blocking makes it the worst HTTP origin.
	_, ds := fixture(t)
	tab := analysis.Coverage(ds, proto.HTTP)
	cen := tab.Mean(origin.CEN, false)
	for _, o := range []origin.ID{origin.AU, origin.BR, origin.DE, origin.JP, origin.US1, origin.US64} {
		if m := tab.Mean(o, false); m <= cen {
			t.Errorf("%v mean %.4f should exceed Censys %.4f", o, m, cen)
		}
	}
}

func TestSSHCoverageLowerThanHTTP(t *testing.T) {
	// Figure 1: origins see ~10% fewer SSH hosts than HTTP(S).
	_, ds := fixture(t)
	http := analysis.Coverage(ds, proto.HTTP)
	ssh := analysis.Coverage(ds, proto.SSH)
	lower := 0
	for _, o := range origin.StudySet() {
		if ssh.Mean(o, false) < http.Mean(o, false) {
			lower++
		}
	}
	if lower < 6 {
		t.Errorf("only %d/7 origins have lower SSH coverage than HTTP", lower)
	}
}

func TestUS64BestLongTermCoverage(t *testing.T) {
	// §4.3: US64 consistently has the fewest long-term inaccessible
	// hosts (IDS evasion + ABCDE notwithstanding).
	_, ds := fixture(t)
	c := analysis.NewClassifier(ds, proto.HTTP)
	us64 := len(c.HostsOfClass(origin.US64, analysis.ClassLongTerm))
	cen := len(c.HostsOfClass(origin.CEN, analysis.ClassLongTerm))
	if cen <= us64 {
		t.Errorf("Censys long-term (%d) should far exceed US64 (%d)", cen, us64)
	}
	worse := 0
	for _, o := range []origin.ID{origin.AU, origin.BR, origin.DE, origin.JP, origin.CEN} {
		if len(c.HostsOfClass(o, analysis.ClassLongTerm)) > us64 {
			worse++
		}
	}
	if worse < 4 {
		t.Errorf("US64 should have near-minimal long-term loss (%d worse origins)", worse)
	}
}

func TestTransientDominatesMissingHosts(t *testing.T) {
	// §3: transient issues account for about half of missing hosts and
	// mostly affect individual hosts, not whole /24s.
	_, ds := fixture(t)
	c := analysis.NewClassifier(ds, proto.HTTP)
	bds := analysis.MissingBreakdown(c)
	var trans, transNet, total int
	for _, b := range bds {
		if b.Origin == origin.CEN || b.Origin == origin.CARINET {
			continue // Censys's blocking dwarfs transience, as in the paper
		}
		trans += b.Counts[analysis.CatTransientHost] + b.Counts[analysis.CatTransientNet]
		transNet += b.Counts[analysis.CatTransientNet]
		total += b.TotalMissing()
	}
	if total == 0 {
		t.Fatal("no missing hosts at all")
	}
	if frac := float64(trans) / float64(total); frac < 0.30 {
		t.Errorf("transient fraction %.2f, want dominant (paper: ~52%%)", frac)
	}
	if transNet > trans/2 {
		t.Errorf("network-level transient %d of %d: should be mostly host-level", transNet, trans)
	}
}

func TestMcNemarSignificantBetweenOrigins(t *testing.T) {
	// §3: statistically significant differences between all origin pairs.
	_, ds := fixture(t)
	pairs := analysis.PairwiseMcNemar(ds, proto.HTTP, 0)
	significant := 0
	for _, pr := range pairs {
		if pr.PAdjusted < 0.001 {
			significant++
		}
	}
	// The paper's dataset has 58M hosts; at the ~3k-host test scale many
	// origin pairs have too few discordant hosts for statistical power,
	// so require only that a solid fraction of pairs separate clearly.
	if significant < len(pairs)/3 {
		t.Errorf("only %d/%d pairs significant", significant, len(pairs))
	}
}

func TestBothProbesLostCorrelated(t *testing.T) {
	// §7: in ≥93% of loss cases both probes are lost. Assert strong
	// correlation (>2/3) for most origins at our scale.
	_, ds := fixture(t)
	good := 0
	for _, o := range origin.StudySet() {
		ps := analysis.Probes(ds, proto.HTTP, o, 0)
		if ps.LostAtLeastOne == 0 {
			continue
		}
		if ps.BothLostPortion > 0.66 {
			good++
		}
	}
	if good < 5 {
		t.Errorf("probe loss not correlated enough: %d/7 origins above 2/3", good)
	}
}

func TestMultiOriginRecoversCoverage(t *testing.T) {
	// §7 / Figure 15: 2–3 origins recover most loss with low variance.
	_, ds := fixture(t)
	levels, err := analysis.MultiOrigin(context.Background(), ds, proto.HTTP, origin.StudySet(), false)
	if err != nil {
		t.Fatal(err)
	}
	if levels[1].Median <= levels[0].Median {
		t.Errorf("2-origin median %.4f should beat 1-origin %.4f", levels[1].Median, levels[0].Median)
	}
	if levels[2].Median <= levels[1].Median {
		t.Errorf("3-origin median should beat 2-origin")
	}
	if levels[2].Sigma >= levels[0].Sigma {
		t.Errorf("3-origin σ %.5f should be far below 1-origin σ %.5f", levels[2].Sigma, levels[0].Sigma)
	}
	if levels[2].Median < 0.985 {
		t.Errorf("3-origin median coverage %.4f, want ≥ 0.985", levels[2].Median)
	}
}

func TestAlibabaTemporalBlockingSSH(t *testing.T) {
	// §6 / Figure 12: single-IP origins see Alibaba SSH resets late in
	// the scan; US64 does not.
	st, ds := fixture(t)
	topo := analysis.WorldTopo{W: st.World}
	ases := st.Scenario.Alibaba.ASes
	tl := analysis.TemporalTimeline(ds, topo, ases, origin.US1, 0, 21)
	early, late := 0, 0
	for _, h := range tl {
		if h.Hour < 9 {
			early += h.Reset
		} else {
			late += h.Reset
		}
	}
	if late == 0 {
		t.Error("US1 saw no late-scan Alibaba resets")
	}
	if early > late {
		t.Errorf("resets should concentrate after detection: early=%d late=%d", early, late)
	}
	tl64 := analysis.TemporalTimeline(ds, topo, ases, origin.US64, 0, 21)
	resets64 := 0
	for _, h := range tl64 {
		resets64 += h.Reset
	}
	if resets64 > late/4 {
		t.Errorf("US64 should largely evade temporal blocking: %d resets", resets64)
	}
}

func TestSSHCausesIncludeProbabilisticBlocking(t *testing.T) {
	// §6 / Figure 14: MaxStartups-style probabilistic blocking is a
	// major cause of missing SSH hosts.
	st, ds := fixture(t)
	c := analysis.NewClassifier(ds, proto.SSH)
	bks := analysis.SSHCauses(c, analysis.WorldTopo{W: st.World}, st.Scenario.Alibaba.ASes)
	for _, b := range bks {
		if b.Origin != origin.US1 {
			continue
		}
		if b.Missing == 0 {
			t.Fatal("US1 missed no SSH hosts")
		}
		frac := float64(b.Counts[analysis.CauseProbabilistic]) / float64(b.Missing)
		if frac < 0.15 {
			t.Errorf("probabilistic cause fraction %.2f, want substantial (paper: 32–63%%)", frac)
		}
	}
}

func TestSSHRetryCurvesIncrease(t *testing.T) {
	// §6 / Figure 13: retrying the SSH handshake raises success.
	st, ds := fixture(t)
	before := runtime.NumGoroutine()
	curves, err := st.SSHRetry(context.Background(), ds, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The retry grabs are typed handshakes: nothing to wait for, so the count
	// is checked at once, with no settling time.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("SSHRetry left goroutines behind: %d before, %d after", before, after)
	}
	if len(curves) == 0 {
		t.Fatal("no retry curves")
	}
	improved := 0
	for _, c := range curves {
		if len(c.Success) != 9 {
			t.Fatalf("curve has %d points", len(c.Success))
		}
		if c.Success[8] >= c.Success[0] {
			improved++
		}
		if c.Success[8] < c.Success[0] {
			t.Logf("AS %v (%s): %v", c.AS, c.ASName, c.Success)
		}
	}
	if improved < len(curves)-1 {
		t.Errorf("retries helped in only %d/%d ASes", improved, len(curves))
	}
}

func TestDeterministicStudy(t *testing.T) {
	// Same seed → identical coverage numbers.
	run := func() float64 {
		st, err := NewStudy(context.Background(), Config{
			WorldSpec: world.TestSpec(7), Trials: 1,
			Protocols: []proto.Protocol{proto.HTTP},
			Origins:   origin.Set{origin.AU, origin.CEN},
		})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return ds.Coverage(origin.AU, proto.HTTP, 0, false)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed runs differ: %v vs %v", a, b)
	}
}

func TestFollowUpFreshCensysImproves(t *testing.T) {
	// §7 / Table 4b: Censys with a fresh IP gains >5% HTTP coverage.
	_, mainDS := fixture(t)
	mainTab := analysis.Coverage(mainDS, proto.HTTP)
	mainCov := mainTab.Mean(origin.CEN, false)

	_, fuDS, err := FollowUp(context.Background(), world.TestSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	fuTab := analysis.Coverage(fuDS, proto.HTTP)
	fuCov := fuTab.Mean(origin.CEN, false)
	if fuCov <= mainCov+0.02 {
		t.Errorf("fresh-IP Censys %.4f should clearly beat blocked Censys %.4f", fuCov, mainCov)
	}
	// Co-located Tier-1 triad: worst (or near-worst) among 3-subsets.
	levels, err := analysis.MultiOrigin(context.Background(), fuDS, proto.HTTP, origin.FollowUpSet(), false)
	if err != nil {
		t.Fatal(err)
	}
	triad := analysis.CoverageOfCombo(fuDS, proto.HTTP,
		origin.Set{origin.HE, origin.NTTC, origin.TELIA}, false)
	k3 := levels[2]
	if triad > k3.Median {
		t.Errorf("co-located triad %.4f should be below the k=3 median %.4f", triad, k3.Median)
	}
	// But still within a respectable band of the median (paper: −0.4%).
	if k3.Median-triad > 0.03 {
		t.Errorf("triad %.4f too far below median %.4f", triad, k3.Median)
	}
}

func TestShardedScansPartitionAndMerge(t *testing.T) {
	// Two shards of the same scan cover disjoint target sets whose union
	// equals the unsharded scan's targets — ZMap sharding semantics.
	mk := func(shard, shards int) *results.ScanResult {
		st, err := NewStudy(context.Background(), Config{
			WorldSpec: world.TestSpec(13), Trials: 1,
			Protocols: []proto.Protocol{proto.HTTP},
			Origins:   origin.Set{origin.US1},
			Shard:     shard, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.ScanOne(context.Background(), origin.US1, proto.HTTP, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := mk(0, 1)
	s0, s1 := mk(0, 2), mk(1, 2)
	if s0.Targets+s1.Targets != full.Targets {
		t.Errorf("shard targets %d+%d != full %d", s0.Targets, s1.Targets, full.Targets)
	}
	// No host appears in both shards, and the union covers the full scan.
	merged := map[ip.Addr]bool{}
	s0.Each(func(r results.HostRecord) { merged[r.Addr] = true })
	overlap := 0
	s1.Each(func(r results.HostRecord) {
		if merged[r.Addr] {
			overlap++
		}
		merged[r.Addr] = true
	})
	if overlap != 0 {
		t.Errorf("%d hosts appear in both shards", overlap)
	}
	fullCount := 0
	missing := 0
	full.Each(func(r results.HostRecord) {
		fullCount++
		if !merged[r.Addr] {
			missing++
		}
	})
	// Loss draws depend on probe timing, which shifts slightly under
	// sharding; allow a small fringe but demand near-complete agreement.
	if missing > fullCount/50 {
		t.Errorf("merged shards miss %d/%d hosts of the full scan", missing, fullCount)
	}
}

func TestChurnProducesUnknownHosts(t *testing.T) {
	// With between-trial churn, some hosts are live in only one trial
	// and classify as unknown when missed (§2: temporal churn; §3:
	// hosts present in only one trial are labeled unknown), and the
	// per-trial ground-truth sizes differ as in Table 4a.
	_, ds := fixture(t)
	sizes := map[int]bool{}
	for trial := 0; trial < 3; trial++ {
		sizes[len(ds.GroundTruth(proto.HTTP, trial))] = true
	}
	if len(sizes) < 2 {
		t.Error("ground-truth sizes identical across trials despite churn")
	}
	c := analysis.NewClassifier(ds, proto.HTTP)
	unknown := 0
	for _, o := range origin.StudySet() {
		unknown += len(c.HostsOfClass(o, analysis.ClassUnknown))
	}
	if unknown == 0 {
		t.Error("churn produced no unknown classifications")
	}
}

func TestChurnDisableable(t *testing.T) {
	st, err := NewStudy(context.Background(), Config{
		WorldSpec: world.TestSpec(3), Trials: 2,
		Protocols:      []proto.Protocol{proto.HTTP},
		Origins:        origin.Set{origin.US1},
		ScenarioConfig: scenario.Config{ChurnRate: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Scenario.Churn.Rate != 0 {
		t.Errorf("churn rate = %v, want disabled", st.Scenario.Churn.Rate)
	}
	_ = ds
}

// TestReplyHintStreamingWorld pins the reply-count hint on worlds built with
// StreamHosts: Hosts() is nil there, and a hint taken from its length sized
// the result store (and zmap's per-shard reply buffers) at zero, so they
// regrew by append through the whole sweep. A streamed build must get the
// hint the retained build of the same spec gets — the host count.
func TestReplyHintStreamingWorld(t *testing.T) {
	spec := world.Spec{Seed: 9, Scale: 0.00005}
	hint := func(spec world.Spec) (int, *Study) {
		st, err := NewStudy(context.Background(), Config{WorldSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return st.replyHint(), st
	}
	retained, st := hint(spec)
	if want := len(st.World.Hosts()); retained != want || want == 0 {
		t.Fatalf("retained build: hint %d, want the %d hosts", retained, want)
	}
	spec.StreamHosts = true
	streamed, st := hint(spec)
	if st.World.Hosts() != nil {
		t.Fatal("StreamHosts build retained its host slice")
	}
	if streamed != retained {
		t.Errorf("streamed build: hint %d, retained build of the same spec %d", streamed, retained)
	}
}

// TestNonsenseInputsAreBadConfig: a negative retry budget (which would grab
// with no attempt and record every host as Attempts 0, FailNone) and a
// trial outside [0, Trials) are refused with pipeline.ErrBadConfig, not
// scanned.
func TestNonsenseInputsAreBadConfig(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00003}, Trials: 2,
		Protocols: []proto.Protocol{proto.HTTP}, Origins: origin.Set{origin.US1},
	}
	st, err := NewStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(trial int) func() error {
		return func() error {
			_, err := st.ScanOne(ctx, origin.US1, proto.HTTP, trial)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
		bad  bool
	}{
		{"negative retries", func() error {
			neg := cfg
			neg.Retries = -1
			_, err := NewStudy(ctx, neg)
			return err
		}, true},
		{"trial -1", scan(-1), true},
		{"trial past the last", scan(2), true},
		{"last trial", scan(1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if tc.bad && !errors.Is(err, pipeline.ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
			if !tc.bad && err != nil {
				t.Errorf("err = %v, want a scan", err)
			}
		})
	}
}
