package policy

import (
	"math"
	"testing"
	"time"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/rng"
)

func baseQuery() *Query {
	return &Query{
		Origin:     origin.CEN,
		SrcIP:      ip.MustParseAddr("203.0.113.1"),
		SrcCountry: "US",
		NumSrcIPs:  1,
		Rep:        origin.RepHeavy,
		Dst:        ip.MustParseAddr("10.1.2.3"),
		DstAS:      100,
		DstCountry: "HK",
		Proto:      proto.HTTP,
		Trial:      0,
	}
}

func TestVerdictL4Responsive(t *testing.T) {
	cases := map[Verdict]bool{
		Allow:            true,
		Silent:           false,
		RefuseTCP:        false,
		ResetAfterAccept: true,
		CloseAfterAccept: true,
	}
	for v, want := range cases {
		if got := v.L4Responsive(); got != want {
			t.Errorf("%v.L4Responsive() = %v, want %v", v, got, want)
		}
	}
}

func TestStaticBlockMatchesOriginAndDest(t *testing.T) {
	b := &StaticBlock{
		RuleName: "dxtl-blocks-censys",
		Origins:  OriginMatch{IDs: origin.Set{origin.CEN}},
		Dests:    DestMatch{ASes: []asn.ASN{100}},
		Action:   Silent,
	}
	q := baseQuery()
	if v, ok := b.Evaluate(q); !ok || v != Silent {
		t.Errorf("Censys to AS100 = %v,%v, want Silent", v, ok)
	}
	q.Origin = origin.AU
	q.Rep = origin.RepUsed
	if _, ok := b.Evaluate(q); ok {
		t.Error("AU should not match a Censys-only block")
	}
	q = baseQuery()
	q.DstAS = 200
	if _, ok := b.Evaluate(q); ok {
		t.Error("other AS should not match")
	}
}

func TestStaticBlockHostFraction(t *testing.T) {
	b := &StaticBlock{
		RuleName:     "egi-blocks-censys",
		Origins:      OriginMatch{IDs: origin.Set{origin.CEN}},
		Dests:        DestMatch{ASes: []asn.ASN{100}},
		Action:       Silent,
		HostFraction: 0.9,
		Key:          rng.NewKey(1).Derive("egi"),
	}
	blocked := 0
	const n = 20000
	for i := 0; i < n; i++ {
		q := baseQuery()
		q.Dst = ip.AddrFrom4(0x0a000000 + uint32(i))
		if _, ok := b.Evaluate(q); ok {
			blocked++
		}
	}
	frac := float64(blocked) / n
	if math.Abs(frac-0.9) > 0.02 {
		t.Errorf("blocked fraction %v, want ~0.9", frac)
	}
	// Same host always gets the same decision across trials and probes.
	q := baseQuery()
	q.Dst = ip.MustParseAddr("10.0.0.77")
	_, first := b.Evaluate(q)
	for trial := 1; trial < 3; trial++ {
		q.Trial = trial
		if _, got := b.Evaluate(q); got != first {
			t.Error("host-fraction decision changed across trials")
		}
	}
}

func TestStaticBlockFractionByTrial(t *testing.T) {
	b := &StaticBlock{
		RuleName:        "egi-escalates",
		Origins:         OriginMatch{IDs: origin.Set{origin.CEN}},
		Action:          Silent,
		HostFraction:    0.9,
		FractionByTrial: []float64{0.9, 0.95, 1.0},
		Key:             rng.NewKey(1).Derive("egi2"),
	}
	// Trial 3 blocks everyone.
	q := baseQuery()
	q.Trial = 2
	misses := 0
	for i := 0; i < 1000; i++ {
		q.Dst = ip.AddrFrom4(uint32(i) * 1000)
		if _, ok := b.Evaluate(q); !ok {
			misses++
		}
	}
	if misses != 0 {
		t.Errorf("trial 3 fraction 1.0 should block all; %d escaped", misses)
	}
}

func TestOriginMatchReputationAndSrcIPs(t *testing.T) {
	m := OriginMatch{MinReputation: origin.RepHeavy}
	q := baseQuery()
	if !m.Matches(q) {
		t.Error("heavy reputation should match MinReputation=RepHeavy")
	}
	q.Rep = origin.RepUsed
	if m.Matches(q) {
		t.Error("used reputation should not match MinReputation=RepHeavy")
	}

	m = OriginMatch{MaxSrcIPs: 1}
	q = baseQuery()
	q.NumSrcIPs = 64
	if m.Matches(q) {
		t.Error("64-IP origin should evade MaxSrcIPs=1 match")
	}
	q.NumSrcIPs = 1
	if !m.Matches(q) {
		t.Error("single-IP origin should match MaxSrcIPs=1")
	}
}

func TestOriginMatchCountries(t *testing.T) {
	// Tegna: blocks all non-US origins.
	b := &StaticBlock{
		RuleName: "tegna",
		Origins:  OriginMatch{ExcludeCountries: []geo.Country{"US"}},
		Action:   Silent,
	}
	q := baseQuery()
	q.SrcCountry = "BR"
	if _, ok := b.Evaluate(q); !ok {
		t.Error("non-US origin should be blocked")
	}
	q.SrcCountry = "US"
	if _, ok := b.Evaluate(q); ok {
		t.Error("US origin should be allowed")
	}
}

func TestGeoFence(t *testing.T) {
	// WebCentral: only reachable from inside Australia.
	g := &GeoFence{
		RuleName: "webcentral-au-only",
		Allowed:  OriginMatch{Countries: []geo.Country{"AU"}},
		Dests:    DestMatch{ASes: []asn.ASN{7496}},
		Action:   Silent,
	}
	q := baseQuery()
	q.DstAS = 7496
	q.SrcCountry = "US"
	if v, ok := g.Evaluate(q); !ok || v != Silent {
		t.Errorf("US to AU-only network = %v,%v", v, ok)
	}
	q.SrcCountry = "AU"
	if _, ok := g.Evaluate(q); ok {
		t.Error("AU origin should pass the fence")
	}
	q.SrcCountry = "US"
	q.DstAS = 1
	if _, ok := g.Evaluate(q); ok {
		t.Error("fence should only cover its destinations")
	}
}

func TestReputationScatterScalesWithReputation(t *testing.T) {
	r := &ReputationScatter{
		RuleName: "scatter",
		FracByRep: map[origin.Reputation]float64{
			origin.RepHeavy: 0.02,
			origin.RepFresh: 0.005,
		},
		Action: Silent,
		Key:    rng.NewKey(2).Derive("scatter"),
	}
	count := func(rep origin.Reputation) int {
		blocked := 0
		for i := 0; i < 30000; i++ {
			q := baseQuery()
			q.Rep = rep
			q.Dst = ip.AddrFrom4(uint32(i) << 8) // distinct /24s
			if _, ok := r.Evaluate(q); ok {
				blocked++
			}
		}
		return blocked
	}
	heavy, fresh := count(origin.RepHeavy), count(origin.RepFresh)
	if heavy < 3*fresh {
		t.Errorf("heavy=%d fresh=%d: heavy reputation should be blocked far more", heavy, fresh)
	}
	used := count(origin.RepUsed)
	if used != 0 {
		t.Errorf("reputation with no configured fraction blocked %d", used)
	}
	// Same /24 blocks all hosts in it or none.
	q1, q2 := baseQuery(), baseQuery()
	q1.Rep, q2.Rep = origin.RepHeavy, origin.RepHeavy
	q1.Dst = ip.MustParseAddr("10.9.9.1")
	q2.Dst = ip.MustParseAddr("10.9.9.200")
	_, ok1 := r.Evaluate(q1)
	_, ok2 := r.Evaluate(q2)
	if ok1 != ok2 {
		t.Error("scatter blocking must be network-level (/24) not host-level")
	}
}

func TestEngineFirstOpinionWins(t *testing.T) {
	high := &StaticBlock{RuleName: "high", Origins: OriginMatch{IDs: origin.Set{origin.CEN}}, Action: Silent}
	low := &StaticBlock{RuleName: "low", Action: RefuseTCP}
	e := NewEngine(high, low)
	v, name := e.Evaluate(baseQuery())
	if v != Silent || name != "high" {
		t.Errorf("Evaluate = %v,%q; want Silent from high", v, name)
	}
	q := baseQuery()
	q.Origin = origin.AU
	q.Rep = origin.RepUsed
	v, name = e.Evaluate(q)
	if v != RefuseTCP || name != "low" {
		t.Errorf("Evaluate = %v,%q; want RefuseTCP from low", v, name)
	}
}

func TestEngineDefaultAllow(t *testing.T) {
	e := NewEngine()
	if v, name := e.Evaluate(baseQuery()); v != Allow || name != "" {
		t.Errorf("empty engine = %v,%q", v, name)
	}
	e.Add(&StaticBlock{RuleName: "x", Origins: OriginMatch{IDs: origin.Set{origin.JP}}, Action: Silent})
	if v, _ := e.Evaluate(baseQuery()); v != Allow {
		t.Errorf("non-matching rule should allow, got %v", v)
	}
}

func TestIDSDetectsAfterThreshold(t *testing.T) {
	d := &IDS{RuleName: "ruhr", AS: 29484, Threshold: 100, Persistent: true, Action: Silent}
	q := baseQuery()
	q.DstAS = 29484
	for i := 0; i < 99; i++ {
		if d.RecordProbe(q) {
			t.Fatalf("detected early at probe %d", i)
		}
		if _, ok := d.ConnVerdict(q); ok {
			t.Fatal("ConnVerdict blocked before detection")
		}
	}
	if !d.RecordProbe(q) {
		t.Fatal("not detected at threshold")
	}
	if v, ok := d.ConnVerdict(q); !ok || v != Silent {
		t.Errorf("after detection = %v,%v", v, ok)
	}
	// Persistent: still blocked in the next trial.
	q.Trial = 1
	if v, ok := d.ConnVerdict(q); !ok || v != Silent {
		t.Errorf("next trial = %v,%v; want persistent block", v, ok)
	}
}

func TestIDSPerSourceIP(t *testing.T) {
	d := &IDS{RuleName: "ids", AS: 1, Threshold: 10, Action: Silent}
	// Spread probes over 64 source IPs: no single source crosses.
	for i := 0; i < 300; i++ {
		q := baseQuery()
		q.DstAS = 1
		q.SrcIP = ip.AddrFrom4(uint32(0xC0000200) + uint32(i%64))
		if d.RecordProbe(q) {
			t.Fatal("64-IP origin should evade per-source threshold")
		}
	}
	// Single source crosses quickly.
	for i := 0; i < 10; i++ {
		q := baseQuery()
		q.DstAS = 1
		d.RecordProbe(q)
	}
	q := baseQuery()
	q.DstAS = 1
	if _, ok := d.ConnVerdict(q); !ok {
		t.Error("single-IP origin should be detected")
	}
}

func TestIDSNonPersistentResetsAcrossTrials(t *testing.T) {
	d := &IDS{RuleName: "ids", AS: 1, Threshold: 5, Action: Silent}
	q := baseQuery()
	q.DstAS = 1
	for i := 0; i < 5; i++ {
		d.RecordProbe(q)
	}
	if _, ok := d.ConnVerdict(q); !ok {
		t.Fatal("should be blocked in trial 0")
	}
	q.Trial = 1
	if _, ok := d.ConnVerdict(q); ok {
		t.Error("non-persistent IDS should not carry over to the next trial")
	}
	d.Reset()
	q.Trial = 0
	if _, ok := d.ConnVerdict(q); ok {
		t.Error("Reset did not clear detection state")
	}
}

func TestIDSIgnoresOtherAS(t *testing.T) {
	d := &IDS{RuleName: "ids", AS: 1, Threshold: 1, Action: Silent}
	q := baseQuery()
	q.DstAS = 2
	if d.RecordProbe(q) {
		t.Error("probe to other AS must not count")
	}
	if _, ok := d.ConnVerdict(q); ok {
		t.Error("other AS must not be blocked")
	}
}

func TestTemporalRSTDetection(t *testing.T) {
	tr := &TemporalRST{
		RuleName:     "alibaba",
		ASes:         []asn.ASN{37963},
		Proto:        proto.SSH,
		MaxSrcIPs:    1,
		ScanDuration: 21 * time.Hour,
		DetectMin:    0.5, DetectMax: 0.8,
		Key: rng.NewKey(3).Derive("alibaba"),
	}
	q := baseQuery()
	q.DstAS = 37963
	q.Proto = proto.SSH

	// Before any possible detection time: allowed.
	q.Time = time.Hour
	if _, ok := tr.Evaluate(q); ok {
		t.Error("blocked before detection window")
	}
	// After the latest detection time: blocked (no intermittency config).
	q.Time = 20 * time.Hour
	v, ok := tr.Evaluate(q)
	if !ok || v != ResetAfterAccept {
		t.Errorf("after detection = %v,%v; want ResetAfterAccept", v, ok)
	}
	// 64-IP origin evades.
	q.NumSrcIPs = 64
	if _, ok := tr.Evaluate(q); ok {
		t.Error("64-IP origin should evade temporal blocking")
	}
	q.NumSrcIPs = 1
	// Wrong protocol: no opinion.
	q.Proto = proto.HTTP
	if _, ok := tr.Evaluate(q); ok {
		t.Error("HTTP must not trigger the SSH blocker")
	}
}

func TestTemporalRSTDetectionTimeVariesByTrial(t *testing.T) {
	tr := &TemporalRST{
		RuleName:     "alibaba",
		ASes:         []asn.ASN{37963},
		Proto:        proto.SSH,
		ScanDuration: 21 * time.Hour,
		DetectMin:    0.3, DetectMax: 0.9,
		Key: rng.NewKey(4).Derive("alibaba"),
	}
	q := baseQuery()
	q.DstAS = 37963
	q.Proto = proto.SSH
	times := map[time.Duration]bool{}
	for trial := 0; trial < 3; trial++ {
		q.Trial = trial
		dt, ok := tr.detectTime(q)
		if !ok {
			t.Fatal("detection should fire for single-IP origin")
		}
		lo := time.Duration(0.3 * float64(21*time.Hour))
		hi := time.Duration(0.9 * float64(21*time.Hour))
		if dt < lo || dt > hi {
			t.Errorf("trial %d detection %v outside [%v,%v]", trial, dt, lo, hi)
		}
		times[dt] = true
	}
	if len(times) < 2 {
		t.Error("detection time should vary across trials")
	}
}

func TestTemporalRSTIntermittent(t *testing.T) {
	tr := &TemporalRST{
		RuleName:     "alibaba",
		ASes:         []asn.ASN{37963},
		Proto:        proto.SSH,
		ScanDuration: 21 * time.Hour,
		DetectMin:    0.1, DetectMax: 0.1,
		BlockedWindow: 2 * time.Hour, ClearWindow: time.Hour,
		Key: rng.NewKey(5).Derive("a"),
	}
	q := baseQuery()
	q.DstAS = 37963
	q.Proto = proto.SSH
	blockedHours, clearHours := 0, 0
	for h := 3; h < 21; h++ {
		q.Time = time.Duration(h) * time.Hour
		if tr.Blocked(q) {
			blockedHours++
		} else {
			clearHours++
		}
	}
	if blockedHours == 0 || clearHours == 0 {
		t.Errorf("intermittent blocking should alternate; blocked=%d clear=%d", blockedHours, clearHours)
	}
}

func TestMaxStartupsRetriesEventuallySucceed(t *testing.T) {
	m := &MaxStartups{
		RuleName:     "maxstartups",
		HostFraction: 1.0,
		Start:        3, Rate: 0.6, Full: 50,
		MeanLoad: 10,
		Key:      rng.NewKey(6).Derive("ms"),
	}
	q := baseQuery()
	q.Proto = proto.SSH
	q.ConcurrentOrigins = 1

	// Count hosts that succeed within k attempts, for growing k: the
	// success rate must increase with retries (Figure 13).
	succWithin := func(maxAttempts int) int {
		succ := 0
		for h := 0; h < 2000; h++ {
			q.Dst = ip.AddrFrom4(0x0b000000 + uint32(h))
			for a := 0; a < maxAttempts; a++ {
				q.Attempt = a
				if _, refused := m.Evaluate(q); !refused {
					succ++
					break
				}
			}
		}
		return succ
	}
	s1, s4, s8 := succWithin(1), succWithin(4), succWithin(8)
	if !(s1 < s4 && s4 < s8) {
		t.Errorf("success should grow with retries: %d, %d, %d", s1, s4, s8)
	}
	if s8 < 1500 {
		t.Errorf("8 retries should recover most hosts, got %d/2000", s8)
	}
}

func TestMaxStartupsConcurrencyIncreasesRefusal(t *testing.T) {
	m := &MaxStartups{
		RuleName:     "maxstartups",
		HostFraction: 1.0,
		Start:        5, Rate: 0.3, Full: 30,
		MeanLoad: 4,
		Key:      rng.NewKey(7).Derive("ms"),
	}
	q := baseQuery()
	q.Proto = proto.SSH
	refusals := func(concurrent int) int {
		n := 0
		for h := 0; h < 5000; h++ {
			q.Dst = ip.AddrFrom4(0x0c000000 + uint32(h))
			q.ConcurrentOrigins = concurrent
			if _, refused := m.Evaluate(q); refused {
				n++
			}
		}
		return n
	}
	if r1, r7 := refusals(1), refusals(7); r7 <= r1 {
		t.Errorf("more concurrent origins should refuse more: 1->%d, 7->%d", r1, r7)
	}
}

func TestMaxStartupsOnlySSH(t *testing.T) {
	m := &MaxStartups{RuleName: "ms", HostFraction: 1, Start: 0, Rate: 1, Full: 1, MeanLoad: 100, Key: rng.NewKey(8)}
	q := baseQuery()
	q.Proto = proto.HTTP
	if _, ok := m.Evaluate(q); ok {
		t.Error("MaxStartups must only affect SSH")
	}
}

// TestMaxStartupsHoistedKeysMatchDerive pins every MaxStartups draw to the
// expression it was before the three sub-keys were derived once: host
// selection by Key.Derive("hosts"), background load by Key.Derive("load"),
// the per-attempt refusal by Key.Derive("draw").
func TestMaxStartupsHoistedKeysMatchDerive(t *testing.T) {
	m := &MaxStartups{
		RuleName: "ms", HostFraction: 0.5,
		Start: 3, Rate: 0.6, Full: 50, MeanLoad: 10,
		Key: rng.NewKey(6).Derive("ms"),
	}
	q := baseQuery()
	q.Proto = proto.SSH
	refused, allowed := 0, 0
	for h := uint32(0); h < 400; h++ {
		q.Dst = ip.AddrFrom4(0x0b000000 + h*13)
		for attempt := 0; attempt < 3; attempt++ {
			q.Attempt, q.ConcurrentOrigins = attempt, 1+attempt*3
			wantV, wantOK := Verdict(0), false
			if hostFraction(m.Key.Derive("hosts"), q.Dst, m.HostFraction) {
				load := m.Key.Derive("load").Float64(q.Dst.Word64()) * 2 * m.MeanLoad
				pending := load + float64(q.ConcurrentOrigins)
				p := 0.0
				switch {
				case pending >= float64(m.Full):
					p = 1
				case pending >= float64(m.Start):
					p = m.Rate + (1-m.Rate)*(pending-float64(m.Start))/float64(m.Full-m.Start)
				}
				if m.Key.Derive("draw").Bool(p, q.Dst.Word64(), uint64(q.Origin), uint64(q.Trial), uint64(q.Attempt)) {
					wantV, wantOK = CloseAfterAccept, true
				}
			}
			gotV, gotOK := m.Evaluate(q)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("%v attempt %d: Evaluate = (%v, %v), derive-per-call expression (%v, %v)", q.Dst, attempt, gotV, gotOK, wantV, wantOK)
			}
			if gotOK {
				refused++
			} else {
				allowed++
			}
		}
	}
	if refused == 0 || allowed == 0 {
		t.Fatalf("pin is vacuous: %d refused, %d allowed", refused, allowed)
	}
}

// TestEnginePlanKeepsUngatedRules: a rule type that does not implement
// ScanGated always survives into a plan and makes it MayRefuse; gated rules
// whose scan-constant gates fail are dropped without changing the verdict.
func TestEnginePlanKeepsUngatedRules(t *testing.T) {
	e := NewEngine(
		&StaticBlock{RuleName: "other-as", Dests: DestMatch{ASes: []asn.ASN{7}}, Action: RefuseTCP},
		&StaticBlock{RuleName: "other-proto", Dests: DestMatch{Protocols: proto.Bit(proto.SSH)}, Action: Silent},
		opaqueRule{},
		&StaticBlock{RuleName: "this-as", Dests: DestMatch{ASes: []asn.ASN{100}}, Action: Silent},
	)
	q := baseQuery()
	backing := make([]Rule, 0, 1)
	p, backing := e.Plan(q, backing)
	if p.Len() != 2 || len(backing) != 2 {
		t.Fatalf("plan kept %d rules (backing %d), want the opaque rule and this-as", p.Len(), len(backing))
	}
	if !p.MayRefuse {
		t.Error("a rule of unknown type must make the plan MayRefuse")
	}
	gotV, gotName := p.Evaluate(q)
	wantV, wantName := e.Evaluate(q)
	if gotV != wantV || gotName != wantName || gotName != "this-as" {
		t.Errorf("plan = (%v, %q), engine = (%v, %q)", gotV, gotName, wantV, wantName)
	}
	// A second plan carved from the same backing must not disturb the first.
	q2 := baseQuery()
	q2.DstAS = 7
	p2, backing := e.Plan(q2, backing)
	if v, name := p2.Evaluate(q2); v != RefuseTCP || name != "other-as" {
		t.Errorf("second plan = (%v, %q), want refuse-tcp by other-as", v, name)
	}
	if v, name := p.Evaluate(q); v != Silent || name != "this-as" {
		t.Errorf("first plan changed after the backing grew: (%v, %q)", v, name)
	}
	if len(backing) != 4 {
		t.Errorf("backing holds %d rules, want 4", len(backing))
	}
}

// opaqueRule is a rule type the policy package knows nothing about.
type opaqueRule struct{}

func (opaqueRule) Name() string                    { return "opaque" }
func (opaqueRule) Evaluate(*Query) (Verdict, bool) { return 0, false }
