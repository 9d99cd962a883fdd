package loss

import (
	"math"
	"testing"
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/rng"
)

func testMatrix() *Matrix { return overriddenMatrix(nil) }

// overriddenMatrix is testMatrix with the given paths pinned.
func overriddenMatrix(ov map[Pair]Params) *Matrix {
	return NewMatrix(rng.NewKey(42).Derive("loss"), Config{
		OriginFactor: map[origin.ID]float64{origin.AU: 3.0},
		Overrides:    ov,
	})
}

func TestParamsDeterministic(t *testing.T) {
	m1, m2 := testMatrix(), testMatrix()
	for as := asn.ASN(1); as < 50; as++ {
		for trial := 0; trial < 3; trial++ {
			if m1.Params(origin.DE, as, trial) != m2.Params(origin.DE, as, trial) {
				t.Fatalf("params differ for AS%d trial %d", as, trial)
			}
		}
	}
}

func TestParamsPositiveAndBounded(t *testing.T) {
	m := testMatrix()
	for as := asn.ASN(1); as < 200; as++ {
		for _, o := range origin.StudySet() {
			p := m.Params(o, as, 0)
			if p.PacketDrop <= 0 || p.PacketDrop > 0.25 {
				t.Fatalf("PacketDrop %v out of range for %v AS%d", p.PacketDrop, o, as)
			}
			if p.EpisodeRate <= 0 || p.EpisodeRate > 0.95 {
				t.Fatalf("EpisodeRate %v out of range", p.EpisodeRate)
			}
		}
	}
}

func TestOriginFactorRaisesDrop(t *testing.T) {
	m := testMatrix()
	var au, de float64
	for as := asn.ASN(1); as < 300; as++ {
		au += m.Params(origin.AU, as, 0).PacketDrop
		de += m.Params(origin.DE, as, 0).PacketDrop
	}
	if au < 2*de {
		t.Errorf("AU mean drop %v should be ~3x DE %v", au/300, de/300)
	}
}

func TestOverridePinsPath(t *testing.T) {
	m := overriddenMatrix(map[Pair]Params{{origin.DE, 3269}: {PacketDrop: 0.40}})
	p := m.Params(origin.DE, 3269, 1)
	if p.PacketDrop != 0.40 {
		t.Errorf("override drop = %v", p.PacketDrop)
	}
	// Stable episode component follows the override.
	if p.EpisodeRate < 0.40*1.0 {
		t.Errorf("episode rate %v should include stable alpha component", p.EpisodeRate)
	}
	// Other origins unaffected.
	if q := m.Params(origin.BR, 3269, 1); q.PacketDrop > 0.05 {
		t.Errorf("override leaked to other origin: %v", q.PacketDrop)
	}
}

func TestQuietASesHaveIdenticalRates(t *testing.T) {
	// For quiet ASes (no volatile spread class), every origin must see an
	// identical volatile component, producing zero pairwise difference —
	// the left half of the paper's Figure 9 CDF.
	m := NewMatrix(rng.NewKey(7).Derive("loss"), Config{})
	quiet := 0
	for as := asn.ASN(1); as < 500; as++ {
		rates := map[float64]bool{}
		for _, o := range origin.StudySet() {
			p := m.Params(o, as, 0)
			// Isolate the volatile part; round away fp residue from
			// the stable-component subtraction.
			v := math.Round((p.EpisodeRate-1.0*p.PacketDrop)*1e9) / 1e9
			rates[v] = true
		}
		if len(rates) == 1 {
			quiet++
		}
	}
	if quiet < 150 || quiet > 350 {
		t.Errorf("quiet AS count %d/499, want roughly half", quiet)
	}
}

func TestVolatileComponentChangesAcrossTrials(t *testing.T) {
	m := testMatrix()
	changed := 0
	for as := asn.ASN(1); as < 200; as++ {
		p0 := m.Params(origin.JP, as, 0)
		p1 := m.Params(origin.JP, as, 1)
		if p0.EpisodeRate != p1.EpisodeRate {
			changed++
		}
	}
	if changed == 0 {
		t.Error("episode rates never change across trials")
	}
}

func TestTrialMultiplier(t *testing.T) {
	key := rng.NewKey(9).Derive("loss")
	base := NewMatrix(key, Config{})
	boosted := NewMatrix(key, Config{
		TrialMultiplier: map[origin.ID][]float64{origin.AU: {1, 4, 1}},
	})
	var sumBase, sumBoost float64
	for as := asn.ASN(1); as < 400; as++ {
		sumBase += base.Params(origin.AU, as, 1).EpisodeRate
		sumBoost += boosted.Params(origin.AU, as, 1).EpisodeRate
	}
	if sumBoost <= sumBase*1.5 {
		t.Errorf("trial multiplier had no effect: %v vs %v", sumBoost, sumBase)
	}
	// Other trials unaffected.
	if base.Params(origin.AU, 5, 0) != boosted.Params(origin.AU, 5, 0) {
		t.Error("multiplier leaked into other trials")
	}
}

func TestEpisodeCorrelation(t *testing.T) {
	// An episode must affect every packet of the host's window: the same
	// (origin, dst, trial) always yields the same answer.
	m := testMatrix()
	dst := ip.MustParseAddr("10.0.0.1")
	path := m.Path(origin.AU, 77, 2)
	first := path.EpisodeActive(dst)
	for i := 0; i < 10; i++ {
		if path = m.Path(origin.AU, 77, 2); path.EpisodeActive(dst) != first {
			t.Fatal("EpisodeActive not stable within a trial")
		}
	}
}

func TestEpisodeRateEmpirical(t *testing.T) {
	m := NewMatrix(rng.NewKey(11).Derive("loss"), Config{})
	const as = asn.ASN(123)
	p := m.Params(origin.US1, as, 0)
	path := m.Path(origin.US1, as, 0)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if path.EpisodeActive(ip.AddrFrom4(uint32(i))) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p.EpisodeRate) > 0.01+p.EpisodeRate {
		t.Errorf("empirical episode rate %v vs params %v", got, p.EpisodeRate)
	}
}

func TestPacketLossPairCorrelation(t *testing.T) {
	// With the default PairCorrelation, most probe-pair losses lose both
	// packets — the paper's >93%-both-lost finding.
	m := NewMatrix(rng.NewKey(13).Derive("loss"), Config{BasePacketDrop: 0.05})
	const as = asn.ASN(9)
	p := m.Params(origin.US1, as, 0)
	path := m.Path(origin.US1, as, 0)
	var lost0, either, both int
	const n = 200000
	for i := 0; i < n; i++ {
		dst := ip.AddrFrom4(uint32(i))
		l0 := path.PacketLost(dst, 0, 0)
		l1 := path.PacketLost(dst, 1, 0)
		if l0 {
			lost0++
		}
		if l0 || l1 {
			either++
		}
		if l0 && l1 {
			both++
		}
	}
	// Marginal drop rate still ≈ PacketDrop (micro-burst + residual).
	p0 := float64(lost0) / n
	expected := p.PacketDrop*0.85 + p.PacketDrop*0.15
	if math.Abs(p0-expected) > 0.012 {
		t.Errorf("empirical drop %v vs expected %v", p0, expected)
	}
	// Correlation: both-lost dominates loss events.
	if either == 0 {
		t.Fatal("no losses at all")
	}
	if frac := float64(both) / float64(either); frac < 0.70 {
		t.Errorf("both-lost fraction %v, want strongly correlated", frac)
	}
}

func TestPacketLossZeroCorrelationIndependent(t *testing.T) {
	// PairCorrelation can be effectively disabled for ablations.
	m := NewMatrix(rng.NewKey(14).Derive("loss"), Config{BasePacketDrop: 0.05, PairCorrelation: 1e-9})
	const as = asn.ASN(9)
	path := m.Path(origin.US1, as, 0)
	var both, either int
	const n = 200000
	for i := 0; i < n; i++ {
		dst := ip.AddrFrom4(uint32(i))
		l0 := path.PacketLost(dst, 0, 0)
		l1 := path.PacketLost(dst, 1, 0)
		if l0 || l1 {
			either++
		}
		if l0 && l1 {
			both++
		}
	}
	if either == 0 {
		t.Fatal("no losses")
	}
	if frac := float64(both) / float64(either); frac > 0.15 {
		t.Errorf("independent losses should rarely coincide: %v", frac)
	}
}

func TestConnFailProbShape(t *testing.T) {
	// Connections retransmit, so moderate loss rarely kills them, while
	// catastrophic loss almost always does.
	if f := ConnFailProb(0.0); f != 0 {
		t.Errorf("ConnFailProb(0) = %v", f)
	}
	if f := ConnFailProb(0.16); f > 0.20 {
		t.Errorf("ConnFailProb(0.16) = %v, want modest (<0.20)", f)
	}
	if f := ConnFailProb(0.55); f < 0.70 {
		t.Errorf("ConnFailProb(0.55) = %v, want near-certain failure", f)
	}
	for q := 0.0; q < 1.0; q += 0.05 {
		if ConnFailProb(q) < 0 || ConnFailProb(q) > 1 {
			t.Fatalf("ConnFailProb(%v) out of [0,1]", q)
		}
		if q > 0 && ConnFailProb(q) < ConnFailProb(q-0.05) {
			t.Fatalf("ConnFailProb not monotone at %v", q)
		}
	}
}

func TestBadPrefixOverride(t *testing.T) {
	m := overriddenMatrix(map[Pair]Params{{origin.DE, 3269}: {PacketDrop: 0.16, BadPrefixFrac: 0.38, BadDrop: 0.55}})
	de := m.Path(origin.DE, 3269, 0)
	bad, good := 0, 0
	for i := 0; i < 2000; i++ {
		dst := ip.AddrFrom4(uint32(i) << 8) // distinct /24s
		q := de.DropFor(dst)
		switch q {
		case 0.55:
			bad++
		case 0.16:
			good++
		default:
			t.Fatalf("unexpected drop %v", q)
		}
	}
	frac := float64(bad) / float64(bad+good)
	if math.Abs(frac-0.38) > 0.05 {
		t.Errorf("bad-prefix fraction %v, want ~0.38", frac)
	}
	// All hosts within one /24 share the fate.
	q1 := de.DropFor(ip.MustParseAddr("10.1.1.1"))
	q2 := de.DropFor(ip.MustParseAddr("10.1.1.200"))
	if q1 != q2 {
		t.Error("bad-prefix decision must be /24-level")
	}
	// Other origins see the default path.
	br := m.Path(origin.BR, 3269, 0)
	if q := br.DropFor(ip.MustParseAddr("10.1.1.1")); q == 0.55 || q == 0.16 {
		t.Errorf("override leaked to BR: %v", q)
	}
}

func TestSiteAliasCorrelatesLoss(t *testing.T) {
	key := rng.NewKey(31).Derive("loss")
	aliased := NewMatrix(key, Config{SiteAlias: map[origin.ID]origin.ID{
		origin.HE: origin.HE, origin.NTTC: origin.HE, origin.TELIA: origin.HE,
	}})
	free := NewMatrix(key, Config{})
	var dAliased, dFree float64
	for as := asn.ASN(1); as < 400; as++ {
		a := aliased.Params(origin.HE, as, 0).EpisodeRate
		b := aliased.Params(origin.NTTC, as, 0).EpisodeRate
		dAliased += abs(a - b)
		c := free.Params(origin.HE, as, 0).EpisodeRate
		d := free.Params(origin.NTTC, as, 0).EpisodeRate
		dFree += abs(c - d)
	}
	if dAliased >= dFree {
		t.Errorf("site alias should correlate losses: aliased diff %v vs free %v", dAliased, dFree)
	}
	if dAliased == 0 {
		t.Error("aliased origins should still differ slightly")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestDelayedProbesEscapeMicroBursts(t *testing.T) {
	// Two probes in the same micro-burst window share fate; a probe
	// delayed past the window draws an independent burst — the paper's
	// §7 delayed-probe recommendation.
	m := NewMatrix(rng.NewKey(77).Derive("loss"), Config{BasePacketDrop: 0.10})
	const as = asn.ASN(4)
	path := m.Path(origin.US1, as, 0)
	var bothBack, bothDelay, eitherBack, eitherDelay int
	const n = 100000
	for i := 0; i < n; i++ {
		dst := ip.AddrFrom4(uint32(i))
		b0 := path.PacketLost(dst, 0, 0)
		b1 := path.PacketLost(dst, 1, 0)
		d1 := path.PacketLost(dst, 1, 10*MicroBurstWindow)
		if b0 || b1 {
			eitherBack++
		}
		if b0 && b1 {
			bothBack++
		}
		if b0 || d1 {
			eitherDelay++
		}
		if b0 && d1 {
			bothDelay++
		}
	}
	fracBack := float64(bothBack) / float64(eitherBack)
	fracDelay := float64(bothDelay) / float64(eitherDelay)
	if fracBack < 2*fracDelay {
		t.Errorf("delayed probes should decorrelate loss: back-to-back %v vs delayed %v", fracBack, fracDelay)
	}
}

// TestProbeLostMatchesPacketLost pins the folded per-probe draw to the
// per-packet definition: ProbeLost(i) == PacketLost(2i) || PacketLost(2i+1)
// for probe indexes 0–2, drawn fresh and with one TargetDraws carried
// through a target's probes, across MicroBurstWindow boundaries (the instants
// either side of one, and whole windows apart), on ordinary paths and on a
// path whose bad-prefix /24s swap in a far higher drop. Loss is turned up so
// every branch of the disjunction fires.
func TestProbeLostMatchesPacketLost(t *testing.T) {
	m := NewMatrix(rng.NewKey(42).Derive("loss"), Config{
		BasePacketDrop: 0.08,
		OriginFactor:   map[origin.ID]float64{origin.AU: 2.5},
		SiteAlias:      map[origin.ID]origin.ID{origin.HE: origin.HE, origin.NTTC: origin.HE},
		Overrides:      map[Pair]Params{{origin.DE, 9}: {PacketDrop: 0.02, BadPrefixFrac: 0.4, BadDrop: 0.45}},
	})
	times := []time.Duration{
		0, MicroBurstWindow - 1, MicroBurstWindow, MicroBurstWindow + 1,
		2*MicroBurstWindow - 1, 2 * MicroBurstWindow, 7*time.Hour + 29*time.Second, 7*time.Hour + 30*time.Second,
	}
	lost, kept, badNets := 0, 0, 0
	for _, o := range []origin.ID{origin.AU, origin.DE, origin.US1, origin.NTTC} {
		for as := asn.ASN(1); as <= 12; as++ {
			for trial := 0; trial < 2; trial++ {
				p := m.Path(o, as, trial)
				for h := uint32(0); h < 96; h++ {
					dst := ip.AddrFrom4(uint32(as)<<16 | h*67) // spans several /24s per AS
					if p.DropFor(dst) == 0.45 {
						badNets++
					}
					// shared carries the target's draws from probe to probe
					// and window to window, as ProbeBatch's memo does.
					var shared TargetDraws
					for _, at := range times {
						for i := uint64(0); i < 3; i++ {
							var fresh TargetDraws
							got, memo := p.ProbeLost(&fresh, dst, i, at), p.ProbeLost(&shared, dst, i, at)
							want := p.PacketLost(dst, 2*i, at) || p.PacketLost(dst, 2*i+1, at)
							if got != want || memo != want {
								t.Fatalf("%v→AS%d trial %d %v probe %d at %v: ProbeLost %v (with the target's earlier draws %v), PacketLost pair %v", o, as, trial, dst, i, at, got, memo, want)
							}
							if got {
								lost++
							} else {
								kept++
							}
						}
					}
				}
			}
		}
	}
	if lost == 0 || kept == 0 || badNets == 0 {
		t.Fatalf("differential is vacuous: %d lost, %d kept, %d bad-prefix hosts", lost, kept, badNets)
	}
}
