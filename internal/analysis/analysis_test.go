package analysis

import (
	"context"
	"errors"
	"testing"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/zgrab"
)

// fakeTopo maps address high bytes to ASes and countries for handcrafted
// datasets: AS = first octet, country by table.
type fakeTopo struct {
	countries map[byte]geo.Country
}

func (f fakeTopo) ASOf(a ip.Addr) (asn.ASN, bool) { return asn.ASN(a.V4() >> 24), true }
func (f fakeTopo) ASName(n asn.ASN) string        { return "AS" + string(rune('A'+n%26)) }
func (f fakeTopo) CountryOf(a ip.Addr) (geo.Country, bool) {
	if f.countries == nil {
		return "US", true
	}
	c, ok := f.countries[byte(a.V4()>>24)]
	if !ok {
		return "US", true
	}
	return c, true
}

// mkDS builds a dataset where outcome[o][trial][addr] gives L7 success.
// Hosts not mentioned in a trial's map for ANY origin are absent from that
// trial's ground truth. ProbeMask is 0b11 for successes and for explicit
// l4only entries, 0 otherwise.
type outcomeSpec map[origin.ID][]map[ip.Addr]bool

func mkDS(t *testing.T, origins origin.Set, trials int, spec outcomeSpec) *results.Dataset {
	t.Helper()
	ds := results.NewDataset(origins, trials)
	for _, o := range origins {
		for tr := 0; tr < trials; tr++ {
			sr := results.NewScanResult(o, proto.HTTP, tr)
			if int(o) < 100 && spec[o] != nil && tr < len(spec[o]) {
				for a, ok := range spec[o][tr] {
					rec := results.HostRecord{Addr: a, ProbeMask: 0b11, L7: ok}
					if !ok {
						rec.ProbeMask = 0
						rec.Fail = zgrab.FailTimeout
					}
					sr.Add(rec)
				}
			}
			ds.Put(sr)
		}
	}
	return ds
}

var (
	h1 = ip.MustParseAddr("1.0.0.1")
	h2 = ip.MustParseAddr("1.0.0.2")
	h3 = ip.MustParseAddr("2.0.0.1")
	h4 = ip.MustParseAddr("2.0.0.2")
	h5 = ip.MustParseAddr("3.0.0.1")
)

// twoOriginDS: AU sees everything always; BR misses h1 in trial 0 only
// (transient), misses h3 in all trials (long-term), and h5 exists only in
// trial 1 where BR misses it (unknown).
func twoOriginDS(t *testing.T) *results.Dataset {
	all := map[ip.Addr]bool{h1: true, h2: true, h3: true, h4: true}
	allWith5 := map[ip.Addr]bool{h1: true, h2: true, h3: true, h4: true, h5: true}
	return mkDS(t, origin.Set{origin.AU, origin.BR}, 3, outcomeSpec{
		origin.AU: {all, allWith5, all},
		origin.BR: {
			{h1: false, h2: true, h3: false, h4: true},
			{h1: true, h2: true, h3: false, h4: true, h5: false},
			{h1: true, h2: true, h3: false, h4: true},
		},
	})
}

func TestClassifierBasics(t *testing.T) {
	ds := twoOriginDS(t)
	c := NewClassifier(ds, proto.HTTP)

	if got := len(c.Union()); got != 5 {
		t.Fatalf("union = %d, want 5", got)
	}
	cases := []struct {
		o    origin.ID
		a    ip.Addr
		want Class
	}{
		{origin.AU, h1, ClassAccessible},
		{origin.AU, h3, ClassAccessible},
		{origin.BR, h1, ClassTransient},
		{origin.BR, h2, ClassAccessible},
		{origin.BR, h3, ClassLongTerm},
		{origin.BR, h4, ClassAccessible},
		{origin.BR, h5, ClassUnknown},
		{origin.AU, h5, ClassAccessible}, // seen in its only trial
	}
	for _, cse := range cases {
		if got := c.Of(cse.o, cse.a); got != cse.want {
			t.Errorf("class(%v, %v) = %v, want %v", cse.o, cse.a, got, cse.want)
		}
	}
	if n := len(c.HostsOfClass(origin.BR, ClassLongTerm)); n != 1 {
		t.Errorf("BR long-term count = %d", n)
	}
	if !c.PresentIn(h5, 1) || c.PresentIn(h5, 0) {
		t.Error("presence wrong for h5")
	}
	if c.TrialsPresent(h1) != 3 || c.TrialsPresent(h5) != 1 {
		t.Error("TrialsPresent wrong")
	}
}

func TestMissedInTrial(t *testing.T) {
	ds := twoOriginDS(t)
	c := NewClassifier(ds, proto.HTTP)
	missed := c.MissedInTrial(origin.BR, 0)
	if len(missed) != 2 {
		t.Fatalf("BR missed %v in trial 0, want h1 and h3", missed)
	}
	if len(c.MissedInTrial(origin.AU, 0)) != 0 {
		t.Error("AU should miss nothing")
	}
}

func TestMissingBreakdown(t *testing.T) {
	ds := twoOriginDS(t)
	c := NewClassifier(ds, proto.HTTP)
	bds := MissingBreakdown(c)
	// Find BR trial 0: h1 transient (its /24 peer h2 is accessible →
	// host-level), h3 long-term (peer h4 accessible → host-level).
	var br0 *Breakdown
	for i := range bds {
		if bds[i].Origin == origin.BR && bds[i].Trial == 0 {
			br0 = &bds[i]
		}
	}
	if br0 == nil {
		t.Fatal("no BR trial-0 breakdown")
	}
	if br0.Counts[CatTransientHost] != 1 || br0.Counts[CatLongTermHost] != 1 {
		t.Errorf("BR trial 0 counts = %v", br0.Counts)
	}
	if br0.Counts[CatTransientNet] != 0 || br0.Counts[CatLongTermNet] != 0 {
		t.Errorf("unexpected network-level counts: %v", br0.Counts)
	}
	if br0.GroundTruth != 4 {
		t.Errorf("trial 0 ground truth = %d", br0.GroundTruth)
	}
	if br0.Frac(CatTransientHost) != 0.25 {
		t.Errorf("transient-host frac = %v", br0.Frac(CatTransientHost))
	}
	// BR trial 1: h5 unknown, h3 long-term.
	var br1 *Breakdown
	for i := range bds {
		if bds[i].Origin == origin.BR && bds[i].Trial == 1 {
			br1 = &bds[i]
		}
	}
	if br1.Counts[CatUnknown] != 1 {
		t.Errorf("BR trial 1 unknown = %d", br1.Counts[CatUnknown])
	}
}

func TestMissingBreakdownNetworkLevel(t *testing.T) {
	// Both hosts of a /24 long-term missed by BR: network-level.
	all := map[ip.Addr]bool{h1: true, h2: true, h3: true}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 2, outcomeSpec{
		origin.AU: {all, all},
		origin.BR: {
			{h1: false, h2: false, h3: true},
			{h1: false, h2: false, h3: true},
		},
	})
	c := NewClassifier(ds, proto.HTTP)
	bds := MissingBreakdown(c)
	for _, b := range bds {
		if b.Origin == origin.BR {
			if b.Counts[CatLongTermNet] != 2 || b.Counts[CatLongTermHost] != 0 {
				t.Errorf("trial %d counts = %v, want 2 long-term-net", b.Trial, b.Counts)
			}
		}
	}
}

func TestOverlapHistogram(t *testing.T) {
	// h3 long-term from BR only; with 2 origins histogram[0] counts it.
	ds := twoOriginDS(t)
	c := NewClassifier(ds, proto.HTTP)
	hist := OverlapHistogram(c, ClassLongTerm, nil)
	if hist[0] != 1 {
		t.Errorf("hist = %v, want one host missed by exactly 1 origin", hist)
	}
	// Exclusion removes BR's contribution entirely.
	hist = OverlapHistogram(c, ClassLongTerm, origin.Set{origin.BR})
	for _, n := range hist {
		if n != 0 {
			t.Errorf("hist with BR excluded = %v", hist)
		}
	}
}

func TestCoverageTable(t *testing.T) {
	ds := twoOriginDS(t)
	tab := Coverage(ds, proto.HTTP)
	if len(tab.Union) != 3 || tab.Union[0] != 4 || tab.Union[1] != 5 {
		t.Fatalf("unions = %v", tab.Union)
	}
	// Trial 0: AU 4/4, BR 2/4; intersection 2/4.
	if got := cellFor(tab, origin.AU, 0); got != 1.0 {
		t.Errorf("AU trial0 coverage = %v", got)
	}
	if got := cellFor(tab, origin.BR, 0); got != 0.5 {
		t.Errorf("BR trial0 coverage = %v", got)
	}
	if tab.Intersection[0] != 0.5 {
		t.Errorf("intersection = %v", tab.Intersection[0])
	}
	if m := tab.Mean(origin.BR, false); m < 0.5 || m > 0.81 {
		t.Errorf("BR mean = %v", m)
	}
}

func cellFor(tab CoverageTable, o origin.ID, trial int) float64 {
	for _, c := range tab.Cells {
		if c.Origin == o && c.Trial == trial {
			return c.Coverage
		}
	}
	return -1
}

func TestPairwiseMcNemar(t *testing.T) {
	// Build a dataset where BR misses 40 hosts AU sees: significant.
	auMap := map[ip.Addr]bool{}
	brMap := map[ip.Addr]bool{}
	for i := 0; i < 200; i++ {
		a := ip.AddrFrom4(0x01000000 + uint32(i))
		auMap[a] = true
		brMap[a] = i >= 40
	}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 1, outcomeSpec{
		origin.AU: {auMap},
		origin.BR: {brMap},
	})
	pairs := PairwiseMcNemar(ds, proto.HTTP, 0)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0].B != 40 || pairs[0].C != 0 {
		t.Errorf("discordant counts = %d,%d", pairs[0].B, pairs[0].C)
	}
	if pairs[0].PAdjusted > 0.001 {
		t.Errorf("adjusted p = %v, want significant", pairs[0].PAdjusted)
	}
}

func TestExclusive(t *testing.T) {
	// h3: long-term from BR, accessible from AU only → exclusively
	// accessible from AU and exclusively inaccessible from BR.
	ds := twoOriginDS(t)
	c := NewClassifier(ds, proto.HTTP)
	ex := Exclusive(c)
	// h3 (long-term from BR) and h5 (present only in trial 1, unseen by
	// BR there) are both reachable from AU alone.
	if len(ex.Accessible[origin.AU]) != 2 || ex.Accessible[origin.AU][0] != h3 || ex.Accessible[origin.AU][1] != h5 {
		t.Errorf("AU exclusive access = %v", ex.Accessible[origin.AU])
	}
	if len(ex.Inaccessible[origin.BR]) != 1 || ex.Inaccessible[origin.BR][0] != h3 {
		t.Errorf("BR exclusive inaccess = %v", ex.Inaccessible[origin.BR])
	}
	rows := ExclusiveShare(ex, ds.Origins)
	for _, r := range rows {
		if r.Origin == origin.AU && r.AccessiblePct != 100 {
			t.Errorf("AU accessible share = %v", r.AccessiblePct)
		}
		if r.Origin == origin.BR && r.InaccessiblePct != 100 {
			t.Errorf("BR inaccessible share = %v", r.InaccessiblePct)
		}
	}
}

func TestExclusiveByCountryAndAS(t *testing.T) {
	ds := twoOriginDS(t)
	c := NewClassifier(ds, proto.HTTP)
	topo := fakeTopo{countries: map[byte]geo.Country{1: "US", 2: "JP", 3: "DE"}}
	cells := ExclusiveByCountry(c, topo, map[origin.ID]geo.Country{origin.AU: "AU", origin.BR: "BR"})
	// h3 is in AS 2 → country JP; exclusively accessible from AU.
	found := false
	for _, cell := range cells {
		if cell.Origin == origin.AU && cell.DestCountry == "JP" {
			found = true
			if cell.Hosts != 1 || cell.InCountry {
				t.Errorf("cell = %+v", cell)
			}
			if cell.CountryFrac <= 0 || cell.CountryFrac > 1 {
				t.Errorf("country frac = %v", cell.CountryFrac)
			}
		}
	}
	if !found {
		t.Fatalf("no AU/JP cell: %v", cells)
	}
	shares := ExclusiveByAS(c, topo, 5)
	if len(shares) != 2 || shares[0].Share != 0.5 {
		t.Errorf("AS shares = %+v", shares)
	}
}

func TestASDistributionAndLostASes(t *testing.T) {
	// BR long-term misses both hosts of AS 2 and nothing else.
	all := map[ip.Addr]bool{h1: true, h2: true, h3: true, h4: true}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 2, outcomeSpec{
		origin.AU: {all, all},
		origin.BR: {
			{h1: true, h2: true, h3: false, h4: false},
			{h1: true, h2: true, h3: false, h4: false},
		},
	})
	c := NewClassifier(ds, proto.HTTP)
	topo := fakeTopo{}
	dist := ASDistribution(c, topo)
	for _, d := range dist {
		if d.Origin == origin.BR {
			if d.Total != 2 || len(d.TopShares) != 1 || d.TopShares[0] != 1.0 {
				t.Errorf("BR concentration = %+v", d)
			}
			if d.TopASes[0] != 2 {
				t.Errorf("top AS = %v", d.TopASes[0])
			}
		}
		if d.Origin == origin.AU && d.Total != 0 {
			t.Errorf("AU should have no long-term hosts")
		}
	}
	rows := InaccessibleASes(c, topo, 2)
	for _, r := range rows {
		if r.Origin == origin.BR {
			if r.Full != 1 || r.AtLeast75 != 1 || r.AtLeast50 != 1 {
				t.Errorf("BR lost ASes = %+v", r)
			}
		}
	}
}

func TestCountryInaccessibility(t *testing.T) {
	all := map[ip.Addr]bool{h1: true, h2: true, h3: true, h4: true}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 2, outcomeSpec{
		origin.AU: {all, all},
		origin.BR: {
			{h1: true, h2: true, h3: false, h4: false},
			{h1: true, h2: true, h3: false, h4: false},
		},
	})
	c := NewClassifier(ds, proto.HTTP)
	topo := fakeTopo{countries: map[byte]geo.Country{1: "US", 2: "BD"}}
	rows := CountryInaccessibility(c, topo)
	found := false
	for _, r := range rows {
		if r.Origin == origin.BR && r.Country == "BD" {
			found = true
			if r.Pct != 100 || r.DominantASes != 1 {
				t.Errorf("row = %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("no BR/BD row")
	}
	corr := CountrySizeCorrelation(c, topo)
	if corr.N < 2 {
		t.Errorf("correlation over %d countries", corr.N)
	}
}

func TestTransientLossSpread(t *testing.T) {
	// AS1 has 4 hosts; BR transiently misses 2 of them, AU none.
	hs := []ip.Addr{
		ip.MustParseAddr("1.0.0.1"), ip.MustParseAddr("1.0.0.2"),
		ip.MustParseAddr("1.0.0.3"), ip.MustParseAddr("1.0.0.4"),
	}
	mk := func(miss ...ip.Addr) map[ip.Addr]bool {
		m := map[ip.Addr]bool{}
		for _, h := range hs {
			m[h] = true
		}
		for _, h := range miss {
			m[h] = false
		}
		return m
	}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 2, outcomeSpec{
		origin.AU: {mk(), mk()},
		origin.BR: {mk(hs[0], hs[1]), mk()},
	})
	c := NewClassifier(ds, proto.HTTP)
	spreads := TransientLossSpread(c, fakeTopo{}, 2)
	if len(spreads) != 1 {
		t.Fatalf("spreads = %+v", spreads)
	}
	sp := spreads[0]
	if sp.Rate[origin.BR] != 0.5 || sp.Rate[origin.AU] != 0 {
		t.Errorf("rates = %v", sp.Rate)
	}
	if sp.Delta != 0.5 || sp.Diff != 2 {
		t.Errorf("delta=%v diff=%d", sp.Delta, sp.Diff)
	}
	plain, weighted := SpreadCDF(spreads)
	if len(plain) != 1 || len(weighted) != 1 {
		t.Error("CDFs empty")
	}
}

func TestBestWorstStability(t *testing.T) {
	// AS1: AU always best (sees all), BR always worst.
	hs := []ip.Addr{
		ip.MustParseAddr("1.0.0.1"), ip.MustParseAddr("1.0.0.2"),
		ip.MustParseAddr("1.0.0.3"), ip.MustParseAddr("1.0.0.4"),
		ip.MustParseAddr("1.0.0.5"),
	}
	mk := func(missN int) map[ip.Addr]bool {
		m := map[ip.Addr]bool{}
		for i, h := range hs {
			m[h] = i >= missN
		}
		return m
	}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 3, outcomeSpec{
		origin.AU: {mk(0), mk(0), mk(0)},
		origin.BR: {mk(2), mk(1), mk(2)},
	})
	c := NewClassifier(ds, proto.HTTP)
	rep := BestWorstStability(c, fakeTopo{}, 5)
	if rep.ASesConsidered != 1 {
		t.Fatalf("considered = %d", rep.ASesConsidered)
	}
	if rep.ConsistentBest[origin.AU] != 1 || rep.ConsistentWorst[origin.BR] != 1 {
		t.Errorf("best/worst = %v / %v", rep.ConsistentBest, rep.ConsistentWorst)
	}
	if rep.Flips != 0 {
		t.Errorf("flips = %d", rep.Flips)
	}
}

func TestProbesBothLost(t *testing.T) {
	ds := results.NewDataset(origin.Set{origin.AU, origin.BR}, 1)
	sAU := results.NewScanResult(origin.AU, proto.HTTP, 0)
	sBR := results.NewScanResult(origin.BR, proto.HTTP, 0)
	// 10 hosts: AU sees all with both probes. BR: 6 both probes, 1 with
	// one probe, 3 with none (both lost, L7 fails).
	for i := 0; i < 10; i++ {
		a := ip.AddrFrom4(0x01000000 + uint32(i))
		sAU.Add(results.HostRecord{Addr: a, ProbeMask: 0b11, L7: true})
		rec := results.HostRecord{Addr: a}
		switch {
		case i < 6:
			rec.ProbeMask, rec.L7 = 0b11, true
		case i == 6:
			rec.ProbeMask, rec.L7 = 0b10, true
		default:
			rec.ProbeMask = 0
		}
		sBR.Add(rec)
	}
	ds.Put(sAU)
	ds.Put(sBR)
	ps := Probes(ds, proto.HTTP, origin.BR, 0)
	if ps.LostAtLeastOne != 4 || ps.LostBoth != 3 {
		t.Errorf("lost = %d/%d", ps.LostBoth, ps.LostAtLeastOne)
	}
	if ps.BothLostPortion != 0.75 {
		t.Errorf("portion = %v", ps.BothLostPortion)
	}
	if ps.Coverage2Probe != 0.7 {
		t.Errorf("2-probe coverage = %v", ps.Coverage2Probe)
	}
	// Single probe: host 6 has mask 0b10 (probe 0 lost) → excluded.
	if ps.Coverage1Probe != 0.6 {
		t.Errorf("1-probe coverage = %v", ps.Coverage1Probe)
	}
}

func TestPacketLossEstimator(t *testing.T) {
	ds := results.NewDataset(origin.Set{origin.AU}, 1)
	s := results.NewScanResult(origin.AU, proto.HTTP, 0)
	// 20 responding hosts, 2 with exactly one probe answered, 1 RST-only
	// (excluded), 1 unresponsive (excluded).
	for i := 0; i < 20; i++ {
		a := ip.AddrFrom4(0x01000000 + uint32(i))
		mask := uint8(0b11)
		if i < 2 {
			mask = 0b01
		}
		s.Add(results.HostRecord{Addr: a, ProbeMask: mask, L7: true})
	}
	s.Add(results.HostRecord{Addr: ip.AddrFrom4(0x01000100), RST: true, L7: false})
	ds.Put(s)
	est := PacketLoss(ds, fakeTopo{}, proto.HTTP, origin.AU, 0, 2)
	if est.Rate != 0.1 {
		t.Errorf("rate = %v, want 0.1", est.Rate)
	}
	if r, ok := est.PerAS[1]; !ok || r != 0.1 {
		t.Errorf("per-AS = %v", est.PerAS)
	}
}

func TestMultiOrigin(t *testing.T) {
	// AU sees 3/4, BR sees a different 3/4; union sees 4/4.
	hs := []ip.Addr{h1, h2, h3, h4}
	mk := func(miss ip.Addr) map[ip.Addr]bool {
		m := map[ip.Addr]bool{}
		for _, h := range hs {
			m[h] = h != miss
		}
		return m
	}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 1, outcomeSpec{
		origin.AU: {mk(h1)},
		origin.BR: {mk(h4)},
	})
	levels, err := MultiOrigin(context.Background(), ds, proto.HTTP, ds.Origins, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 {
		t.Fatalf("levels = %d", len(levels))
	}
	if levels[0].K != 1 || levels[0].Median != 0.75 {
		t.Errorf("k=1: %+v", levels[0])
	}
	if levels[1].K != 2 || levels[1].Median != 1.0 {
		t.Errorf("k=2: %+v", levels[1])
	}
	if got := CoverageOfCombo(ds, proto.HTTP, origin.Set{origin.AU, origin.BR}, false); got != 1.0 {
		t.Errorf("combo coverage = %v", got)
	}
}

func TestMultiOriginCanceled(t *testing.T) {
	hs := []ip.Addr{h1, h2, h3, h4}
	alive := map[ip.Addr]bool{}
	for _, h := range hs {
		alive[h] = true
	}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 1, outcomeSpec{
		origin.AU: {alive},
		origin.BR: {alive},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MultiOrigin(ctx, ds, proto.HTTP, ds.Origins, false); !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestForEachCombo(t *testing.T) {
	var combos [][]int
	forEachCombo(4, 2, func(idx []int) {
		combos = append(combos, append([]int(nil), idx...))
	})
	if len(combos) != 6 {
		t.Fatalf("C(4,2) = %d", len(combos))
	}
	seen := map[[2]int]bool{}
	for _, c := range combos {
		k := [2]int{c[0], c[1]}
		if c[0] >= c[1] || seen[k] {
			t.Fatalf("bad combo %v", c)
		}
		seen[k] = true
	}
}

func TestSSHCausesAttribution(t *testing.T) {
	ds := results.NewDataset(origin.Set{origin.AU, origin.BR}, 2)
	alibaba := ip.MustParseAddr("9.0.0.1") // AS 9 = temporal
	maxst := ip.MustParseAddr("1.0.0.1")
	other := ip.MustParseAddr("2.0.0.1")
	for tr := 0; tr < 2; tr++ {
		sAU := results.NewScanResult(origin.AU, proto.SSH, tr)
		sAU.Add(results.HostRecord{Addr: alibaba, ProbeMask: 0b11, L7: true})
		sAU.Add(results.HostRecord{Addr: maxst, ProbeMask: 0b11, L7: true})
		sAU.Add(results.HostRecord{Addr: other, ProbeMask: 0b11, L7: true})
		ds.Put(sAU)
		sBR := results.NewScanResult(origin.BR, proto.SSH, tr)
		// BR: alibaba host resets; maxstartups host closes; other drops.
		sBR.Add(results.HostRecord{Addr: alibaba, ProbeMask: 0b11, Fail: zgrab.FailReset})
		sBR.Add(results.HostRecord{Addr: maxst, ProbeMask: 0b11, Fail: zgrab.FailClosed})
		sBR.Add(results.HostRecord{Addr: other, ProbeMask: 0, Fail: zgrab.FailTimeout})
		ds.Put(sBR)
	}
	c := NewClassifier(ds, proto.SSH)
	bks := SSHCauses(c, fakeTopo{}, []asn.ASN{9})
	for _, b := range bks {
		if b.Origin != origin.BR {
			continue
		}
		if b.Counts[CauseAlibabaTemporal] != 2 {
			t.Errorf("alibaba count = %d", b.Counts[CauseAlibabaTemporal])
		}
		if b.Counts[CauseProbabilistic] != 2 {
			t.Errorf("probabilistic count = %d", b.Counts[CauseProbabilistic])
		}
		if b.Counts[CauseOther] != 2 {
			t.Errorf("other count = %d", b.Counts[CauseOther])
		}
		if b.Missing != 6 {
			t.Errorf("missing = %d", b.Missing)
		}
	}
}

func TestAgreementWithin(t *testing.T) {
	// Two /24 blocks: in block 1 both origins agree (both see both
	// hosts); in block 2 BR misses both hosts while AU sees them —
	// disagreement beyond 5%.
	b1a, b1b := ip.MustParseAddr("1.0.0.1"), ip.MustParseAddr("1.0.0.2")
	b2a, b2b := ip.MustParseAddr("1.0.1.1"), ip.MustParseAddr("1.0.1.2")
	all := map[ip.Addr]bool{b1a: true, b1b: true, b2a: true, b2b: true}
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 1, outcomeSpec{
		origin.AU: {all},
		origin.BR: {{b1a: true, b1b: true, b2a: false, b2b: false}},
	})
	agg := AgreementWithin(ds, proto.HTTP, 0, 2, 0.05)
	if agg.Blocks != 2 {
		t.Fatalf("blocks = %d", agg.Blocks)
	}
	if len(agg.PerPair) != 1 || agg.PerPair[0].Agreement != 0.5 {
		t.Errorf("agreement = %+v", agg.PerPair)
	}
	if agg.Mean != 0.5 {
		t.Errorf("mean = %v", agg.Mean)
	}
}

func TestAgreementEmptyDataset(t *testing.T) {
	ds := mkDS(t, origin.Set{origin.AU, origin.BR}, 1, outcomeSpec{})
	agg := AgreementWithin(ds, proto.HTTP, 0, 2, 0.05)
	if agg.Blocks != 0 || len(agg.PerPair) != 0 {
		t.Errorf("empty dataset agreement = %+v", agg)
	}
}

// TestAgreementOneOrigin: with a single scanning origin there is no pair to
// compare, so the mean is 0, not 0/0.
func TestAgreementOneOrigin(t *testing.T) {
	b1a, b1b := ip.MustParseAddr("1.0.0.1"), ip.MustParseAddr("1.0.0.2")
	ds := mkDS(t, origin.Set{origin.AU}, 2, outcomeSpec{
		origin.AU: {{b1a: true, b1b: true}, {b1a: true, b1b: false}},
	})
	for trial := 0; trial < ds.Trials; trial++ {
		agg := AgreementWithin(ds, proto.HTTP, trial, 1, 0.05)
		if agg.Blocks == 0 || len(agg.PerPair) != 0 || agg.Mean != 0 {
			t.Errorf("trial %d: one-origin agreement = %+v, want blocks, no pairs, mean 0", trial, agg)
		}
	}
}
