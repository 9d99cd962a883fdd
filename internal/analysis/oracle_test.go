package analysis_test

// The passes below are the analyses as they were before the classifier
// became the report's shared per-protocol index: a binary search of the
// scan columns per host, a Topology lookup per host, everything recomputed
// per call. They are kept verbatim (ties broken by a total order) as the
// reference the index-based passes must equal.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/asn"
	"repro/internal/experiment"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/world"
	"repro/internal/zgrab"
)

func oracleMissedInTrial(c *analysis.Classifier, o origin.ID, trial int) []ip.Addr {
	s := c.DS.Scan(o, c.Proto, trial)
	if s == nil {
		return nil
	}
	addrs := ip.AddrSlice(s.Addrs())
	var out []ip.Addr
	j := 0
	for _, a := range c.DS.GroundTruth(c.Proto, trial) {
		for j < len(addrs) && addrs[j].Less(a) {
			j++
		}
		if !(j < len(addrs) && addrs[j] == a && s.SuccessAt(j, false)) {
			out = append(out, a)
		}
	}
	return out
}

func oracleExclusive(c *analysis.Classifier) analysis.Exclusivity {
	ex := analysis.Exclusivity{
		Accessible:   map[origin.ID][]ip.Addr{},
		Inaccessible: map[origin.ID][]ip.Addr{},
	}
	for i, a := range c.Union() {
		var accessibleFrom, longTermFrom origin.Set
		for _, o := range c.DS.Origins {
			switch c.OfAt(o, i) {
			case analysis.ClassAccessible, analysis.ClassTransient:
				accessibleFrom = append(accessibleFrom, o)
			case analysis.ClassLongTerm:
				longTermFrom = append(longTermFrom, o)
			case analysis.ClassUnknown:
				if oracleSawEver(c, o, a) {
					accessibleFrom = append(accessibleFrom, o)
				}
			}
		}
		if len(accessibleFrom) == 1 {
			o := accessibleFrom[0]
			ex.Accessible[o] = append(ex.Accessible[o], a)
		}
		if len(longTermFrom) == 1 && len(accessibleFrom) == len(c.DS.Origins)-1 {
			o := longTermFrom[0]
			ex.Inaccessible[o] = append(ex.Inaccessible[o], a)
		}
	}
	return ex
}

func oracleSawEver(c *analysis.Classifier, o origin.ID, a ip.Addr) bool {
	for t := 0; t < c.DS.Trials; t++ {
		if s := c.DS.Scan(o, c.Proto, t); s != nil && s.Success(a, false) {
			return true
		}
	}
	return false
}

func oraclePacketLoss(ds *results.Dataset, topo analysis.Topology, p proto.Protocol, o origin.ID, trial int, minHosts int) analysis.PacketLossEstimate {
	if minHosts < 1 {
		minHosts = 5
	}
	est := analysis.PacketLossEstimate{Origin: o, Trial: trial, PerAS: map[asn.ASN]float64{}}
	s := ds.Scan(o, p, trial)
	if s == nil {
		return est
	}
	type counts struct{ one, responding int }
	perAS := map[asn.ASN]*counts{}
	var one, responding int
	addrs := s.Addrs()
	j := 0
	for _, h := range ds.GroundTruth(p, trial) {
		for j < len(addrs) && addrs[j].Less(h) {
			j++
		}
		if j >= len(addrs) || addrs[j] != h {
			continue
		}
		r := s.RecordAt(j)
		if r.ProbeMask == 0 || r.RST {
			continue
		}
		responding++
		isOne := r.ProbeMask != 0b11
		if isOne {
			one++
		}
		if as, okAS := topo.ASOf(h); okAS {
			c := perAS[as]
			if c == nil {
				c = &counts{}
				perAS[as] = c
			}
			c.responding++
			if isOne {
				c.one++
			}
		}
	}
	if responding > 0 {
		est.Rate = float64(one) / float64(responding)
	}
	for as, c := range perAS {
		if c.responding >= minHosts {
			est.PerAS[as] = float64(c.one) / float64(c.responding)
		}
	}
	return est
}

func oracleGroupByAS(c *analysis.Classifier, topo analysis.Topology) map[asn.ASN][]int {
	asHosts := map[asn.ASN][]int{}
	for i, a := range c.Union() {
		if n, ok := topo.ASOf(a); ok {
			asHosts[n] = append(asHosts[n], i)
		}
	}
	return asHosts
}

func oracleBestWorstStability(c *analysis.Classifier, topo analysis.Topology, minHosts int) analysis.StabilityReport {
	if minHosts < 1 {
		minHosts = 5
	}
	rep := analysis.StabilityReport{
		ConsistentBest:  map[origin.ID]int{},
		ConsistentWorst: map[origin.ID]int{},
	}
	asHosts := oracleGroupByAS(c, topo)
	origins := c.DS.Origins
	for _, hosts := range asHosts {
		if len(hosts) < minHosts {
			continue
		}
		rep.ASesConsidered++
		bests := make([]origin.ID, 0, c.DS.Trials)
		worsts := make([]origin.ID, 0, c.DS.Trials)
		wasBest := map[origin.ID]bool{}
		wasWorst := map[origin.ID]bool{}
		for t := 0; t < c.DS.Trials; t++ {
			counts := map[origin.ID]int{}
			bestN, worstN := -1, math.MaxInt
			for _, o := range origins {
				s := c.DS.Scan(o, c.Proto, t)
				if s == nil {
					continue
				}
				n := 0
				union := c.Union()
				for _, i := range hosts {
					if c.PresentAt(i, t) && s.Success(union[i], false) {
						n++
					}
				}
				counts[o] = n
				if n > bestN {
					bestN = n
				}
				if n < worstN {
					worstN = n
				}
			}
			if bestN == worstN {
				continue
			}
			var bestSet, worstSet origin.Set
			for o, n := range counts {
				if n == bestN {
					bestSet = append(bestSet, o)
				}
				if n == worstN {
					worstSet = append(worstSet, o)
				}
			}
			if len(bestSet) == 1 {
				bests = append(bests, bestSet[0])
			}
			if len(worstSet) == 1 {
				worsts = append(worsts, worstSet[0])
			}
			if bestN-worstN >= 2 {
				for _, o := range bestSet {
					wasBest[o] = true
				}
				for _, o := range worstSet {
					wasWorst[o] = true
				}
			}
		}
		if len(bests) == c.DS.Trials && oracleAllSame(bests) {
			rep.ConsistentBest[bests[0]]++
		}
		if len(worsts) == c.DS.Trials && oracleAllSame(worsts) {
			rep.ConsistentWorst[worsts[0]]++
		}
		for o := range wasBest {
			if wasWorst[o] {
				rep.Flips++
				break
			}
		}
	}
	return rep
}

func oracleAllSame(os []origin.ID) bool {
	for _, o := range os[1:] {
		if o != os[0] {
			return false
		}
	}
	return true
}

func oracleBursts(c *analysis.Classifier, topo analysis.Topology, scanHours int) analysis.BurstReport {
	if scanHours <= 0 {
		scanHours = 21
	}
	ds := c.DS
	rep := analysis.BurstReport{
		PerOriginTrial:       map[origin.ID][]float64{},
		SingleOriginByOrigin: map[origin.ID]int{},
	}
	type key struct {
		o     origin.ID
		as    asn.ASN
		trial int
	}
	series := map[key][]float64{}
	transientASes := map[asn.ASN]bool{}
	missed := map[origin.ID][]int{}
	for _, o := range ds.Origins {
		missed[o] = make([]int, ds.Trials)
		rep.PerOriginTrial[o] = make([]float64, ds.Trials)
	}
	hostAS := map[ip.Addr]asn.ASN{}
	for _, a := range c.Union() {
		if n, ok := topo.ASOf(a); ok {
			hostAS[a] = n
		}
	}
	for _, o := range ds.Origins {
		for t := 0; t < ds.Trials; t++ {
			s := ds.Scan(o, c.Proto, t)
			if s == nil {
				continue
			}
			addrs := s.Addrs()
			union := c.Union()
			ui, j := 0, 0
			for _, a := range oracleMissedInTrial(c, o, t) {
				for union[ui].Less(a) {
					ui++
				}
				if c.OfAt(o, ui) != analysis.ClassTransient {
					continue
				}
				as, ok := hostAS[a]
				if !ok {
					continue
				}
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
					h = int(s.RecordAt(j).T / time.Hour)
				} else if pt, okp := oracleProbeTime(c, a, t); okp {
					h = int(pt / time.Hour)
				}
				if h >= scanHours {
					h = scanHours - 1
				}
				series[k][h]++
				missed[o][t]++
			}
		}
	}
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
		for _, h := range stats.DetectBursts(ser, 4, 2) {
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

func oracleProbeTime(c *analysis.Classifier, a ip.Addr, trial int) (time.Duration, bool) {
	for _, o := range c.DS.Origins {
		if s := c.DS.Scan(o, c.Proto, trial); s != nil {
			if r, ok := s.Get(a); ok {
				return r.T, true
			}
		}
	}
	return 0, false
}

func oracleSSHCauses(c *analysis.Classifier, topo analysis.Topology, temporalASes []asn.ASN) []analysis.SSHBreakdown {
	ds := c.DS
	isTemporal := map[asn.ASN]bool{}
	for _, a := range temporalASes {
		isTemporal[a] = true
	}
	var out []analysis.SSHBreakdown
	for _, o := range ds.Origins {
		b := analysis.SSHBreakdown{Origin: o}
		for t := 0; t < ds.Trials; t++ {
			s := ds.Scan(o, proto.SSH, t)
			if s == nil {
				continue
			}
			addrs := s.Addrs()
			j := 0
			for _, a := range oracleMissedInTrial(c, o, t) {
				b.Missing++
				for j < len(addrs) && addrs[j].Less(a) {
					j++
				}
				ok := j < len(addrs) && addrs[j] == a
				var r results.HostRecord
				if ok {
					r = s.RecordAt(j)
				}
				as, _ := topo.ASOf(a)
				switch {
				case isTemporal[as] && ok && r.Fail == zgrab.FailReset:
					b.Counts[analysis.CauseAlibabaTemporal]++
				case ok && (r.Fail == zgrab.FailClosed || r.Fail == zgrab.FailReset) && oracleSeenByOther(ds, o, a, t):
					b.Counts[analysis.CauseProbabilistic]++
				default:
					b.Counts[analysis.CauseOther]++
				}
			}
		}
		out = append(out, b)
	}
	return out
}

func oracleSeenByOther(ds *results.Dataset, self origin.ID, a ip.Addr, trial int) bool {
	for _, o := range ds.Origins {
		if o == self {
			continue
		}
		if s := ds.Scan(o, proto.SSH, trial); s != nil && s.Success(a, false) {
			return true
		}
	}
	return false
}

func oracleAgreementWithin(ds *results.Dataset, p proto.Protocol, trial int, minHosts int, tolerance float64) analysis.Slash24Agreement {
	if minHosts < 1 {
		minHosts = 2
	}
	gt := ds.GroundTruth(p, trial)
	blocks := map[ip.Prefix][]ip.Addr{}
	for _, a := range gt {
		k := a.Slash24()
		blocks[k] = append(blocks[k], a)
	}
	var usable []([]ip.Addr)
	for _, hosts := range blocks {
		if len(hosts) >= minHosts {
			usable = append(usable, hosts)
		}
	}
	var origins origin.Set
	for _, o := range ds.Origins {
		if ds.Scan(o, p, trial) != nil {
			origins = append(origins, o)
		}
	}
	rate := func(o origin.ID, hosts []ip.Addr) float64 {
		s := ds.MustScan(o, p, trial)
		n := 0
		for _, a := range hosts {
			if s.Success(a, false) {
				n++
			}
		}
		return float64(n) / float64(len(hosts))
	}
	out := analysis.Slash24Agreement{Blocks: len(usable)}
	if len(usable) == 0 {
		return out
	}
	var sum float64
	for i := 0; i < len(origins); i++ {
		for j := i + 1; j < len(origins); j++ {
			agree := 0
			for _, hosts := range usable {
				d := rate(origins[i], hosts) - rate(origins[j], hosts)
				if d < 0 {
					d = -d
				}
				if d <= tolerance {
					agree++
				}
			}
			pa := analysis.PairAgreement{
				A: origins[i], B: origins[j],
				Agreement: float64(agree) / float64(len(usable)),
			}
			out.PerPair = append(out.PerPair, pa)
			sum += pa.Agreement
		}
	}
	out.Mean = sum / float64(len(out.PerPair))
	return out
}

// oracleStudies holds one study per fixture name, run on first use.
var oracleStudies sync.Map // string -> *oracleFixture

type oracleFixture struct {
	once sync.Once
	stu  *experiment.Study
	ds   *results.Dataset
	err  error
}

func oracleStudy(t *testing.T, name string, cfg experiment.Config) (*experiment.Study, *results.Dataset) {
	t.Helper()
	v, _ := oracleStudies.LoadOrStore(name, &oracleFixture{})
	f := v.(*oracleFixture)
	f.once.Do(func() {
		ctx := context.Background()
		if f.stu, f.err = experiment.NewStudy(ctx, cfg); f.err == nil {
			f.ds, f.err = f.stu.Run(ctx)
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.stu, f.ds
}

var oracleSeeds = []uint64{11, 42, 2020}

func v4Study(t *testing.T, seed uint64) (*experiment.Study, *results.Dataset) {
	return oracleStudy(t, fmt.Sprint("v4-", seed),
		experiment.Config{WorldSpec: world.TestSpec(seed), IncludeCarinet: true})
}

func v6Study(t *testing.T) (*experiment.Study, *results.Dataset) {
	return oracleStudy(t, "v6", experiment.Config{
		WorldSpec: world.Spec{Seed: 99},
		Family:    world.FamilyIPv6,
		V6Spec:    world.TestV6Spec(99),
		Trials:    2,
		Protocols: []proto.Protocol{proto.HTTP, proto.SSH},
	})
}

func assertEqual(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestIndexedPassesMatchOracles: on three seeds, with Carinet scanning one
// trial only, every pass that reads the classifier's success bits, spine
// columns and shared tallies returns what its per-host-search oracle does.
func TestIndexedPassesMatchOracles(t *testing.T) {
	for _, seed := range oracleSeeds {
		stu, ds := v4Study(t, seed)
		topo := analysis.WorldTopo{W: stu.World}
		for _, p := range proto.All() {
			c := analysis.NewClassifier(ds, p)
			for _, o := range ds.Origins {
				for tr := 0; tr < ds.Trials; tr++ {
					assertEqual(t, "MissedInTrial", c.MissedInTrial(o, tr), oracleMissedInTrial(c, o, tr))
					for _, min := range []int{0, 2, 5} {
						want := oraclePacketLoss(ds, topo, p, o, tr, min)
						assertEqual(t, "PacketLoss", analysis.PacketLoss(ds, topo, p, o, tr, min), want)
						assertEqual(t, "Classifier.PacketLoss", c.PacketLoss(topo, o, tr, min), want)
					}
				}
			}
			for tr := 0; tr < ds.Trials; tr++ {
				assertEqual(t, "AgreementWithin",
					analysis.AgreementWithin(ds, p, tr, 2, 0.05), oracleAgreementWithin(ds, p, tr, 2, 0.05))
			}
			assertEqual(t, "Exclusive", analysis.Exclusive(c), oracleExclusive(c))
			assertEqual(t, "BestWorstStability",
				analysis.BestWorstStability(c, topo, 5), oracleBestWorstStability(c, topo, 5))
			assertEqual(t, "Bursts", analysis.Bursts(c, topo, 21), oracleBursts(c, topo, 21))
			if p == proto.SSH {
				alibaba := stu.Scenario.Alibaba.ASes
				assertEqual(t, "SSHCauses", analysis.SSHCauses(c, topo, alibaba), oracleSSHCauses(c, topo, alibaba))
			}
		}
	}
}

// TestIndexedExclusiveMatchesOracleV6: the exclusivity columns on an IPv6
// hitlist dataset, whose /64 blocks and provider ASes the v4 studies do not
// exercise.
func TestIndexedExclusiveMatchesOracleV6(t *testing.T) {
	_, ds := v6Study(t)
	for _, p := range []proto.Protocol{proto.HTTP, proto.SSH} {
		c := analysis.NewClassifier(ds, p)
		assertEqual(t, "Exclusive", analysis.Exclusive(c), oracleExclusive(c))
		for tr := 0; tr < ds.Trials; tr++ {
			assertEqual(t, "AgreementWithin",
				analysis.AgreementWithin(ds, p, tr, 2, 0.05), oracleAgreementWithin(ds, p, tr, 2, 0.05))
		}
	}
}

// countingTopo counts the lookups a pass makes through it.
type countingTopo struct {
	analysis.Topology
	as, country *atomic.Int64
}

func (c countingTopo) ASOf(a ip.Addr) (asn.ASN, bool) {
	c.as.Add(1)
	return c.Topology.ASOf(a)
}

func (c countingTopo) CountryOf(a ip.Addr) (geo.Country, bool) {
	c.country.Add(1)
	return c.Topology.CountryOf(a)
}

// TestSpineColumnsAreLazyAndBuiltOnce: Coverage, NewClassifier and
// Exclusive — the hitlist report — resolve nothing through the topology;
// the first pass that needs AS or country resolves each union host exactly
// once, and every later pass reads those columns.
func TestSpineColumnsAreLazyAndBuiltOnce(t *testing.T) {
	for _, fixture := range []func(*testing.T) (*experiment.Study, *results.Dataset){
		func(t *testing.T) (*experiment.Study, *results.Dataset) { return v4Study(t, 42) },
		v6Study,
	} {
		stu, ds := fixture(t)
		topo := countingTopo{analysis.WorldTopo{W: stu.World}, new(atomic.Int64), new(atomic.Int64)}
		p := proto.HTTP
		analysis.Coverage(ds, p)
		c := analysis.NewClassifier(ds, p)
		analysis.Exclusive(c)
		if n, m := topo.as.Load(), topo.country.Load(); n != 0 || m != 0 {
			t.Fatalf("Coverage + NewClassifier + Exclusive made %d AS and %d country lookups", n, m)
		}
		analysis.TransientLossSpread(c, topo, 2)
		analysis.ExclusiveByCountry(c, topo, nil)
		analysis.ExclusiveByAS(c, topo, 3)
		analysis.BestWorstStability(c, topo, 5)
		analysis.Bursts(c, topo, 21)
		analysis.DropVsTransient(c, topo, 5)
		analysis.CountryInaccessibility(c, topo)
		c.PacketLoss(topo, ds.Origins[0], 0, 5)
		want := int64(len(c.Union()))
		if n, m := topo.as.Load(), topo.country.Load(); n != want || m != want {
			t.Errorf("passes made %d AS and %d country lookups over a %d-host spine; want one each per host", n, m, want)
		}
	}
}

// TestLazyColumnsConcurrentReaders: four goroutines run the passes that
// build the lazy columns and shared results on one fresh classifier; under
// -race this is the columns' publication check, and every goroutine must
// see the same answers.
func TestLazyColumnsConcurrentReaders(t *testing.T) {
	stu, ds := v4Study(t, 42)
	topo := analysis.WorldTopo{W: stu.World}
	c := analysis.NewClassifier(ds, proto.HTTP)
	type answers struct {
		ex     analysis.Exclusivity
		byAS   []analysis.ASShare
		spread []analysis.ASLossSpread
		loss   analysis.PacketLossEstimate
		bursts analysis.BurstReport
		stab   analysis.StabilityReport
	}
	got := make([]answers, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(a *answers) {
			defer wg.Done()
			a.ex = analysis.Exclusive(c)
			a.byAS = analysis.ExclusiveByAS(c, topo, 3)
			a.spread = analysis.TransientLossSpread(c, topo, 2)
			a.loss = c.PacketLoss(topo, ds.Origins[0], 0, 5)
			a.bursts = analysis.Bursts(c, topo, 21)
			a.stab = analysis.BestWorstStability(c, topo, 5)
		}(&got[g])
	}
	wg.Wait()
	for g := 1; g < len(got); g++ {
		assertEqual(t, "concurrent answers", got[g], got[0])
	}
}
