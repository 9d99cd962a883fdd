package scenario

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/world"
)

func testScenario(t *testing.T) (*Scenario, *world.World) {
	t.Helper()
	w, err := world.Build(context.Background(), world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	return New(w, Config{Trials: 3, NumOrigins: 7}), w
}

// queryFor builds a policy query targeting the first host of a profile AS.
func queryFor(t *testing.T, w *world.World, profile string, o origin.ID, p proto.Protocol) *policy.Query {
	t.Helper()
	n := w.MustProfileASN(profile)
	idxs := w.HostsInAS(n)
	if len(idxs) == 0 {
		t.Fatalf("profile %s has no hosts", profile)
	}
	host := w.Hosts()[idxs[0]].Addr
	org := w.Origins.Get(o)
	country, _ := w.CountryOf(host)
	return &policy.Query{
		Origin: o, SrcIP: org.SourceIPs[0], SrcCountry: org.Country,
		NumSrcIPs: len(org.SourceIPs), Rep: org.ScanReputation,
		Dst: host, DstAS: n, DstCountry: country, Proto: p,
		ConcurrentOrigins: 7,
	}
}

func TestCensysBlockedByDXTLAndEnzu(t *testing.T) {
	s, w := testScenario(t)
	for _, prof := range []string{world.ProfDXTL, world.ProfEnzu} {
		q := queryFor(t, w, prof, origin.CEN, proto.HTTP)
		v, rule := s.Engine.Evaluate(q)
		if v != policy.Silent {
			t.Errorf("%s: Censys verdict %v (rule %q), want Silent", prof, v, rule)
		}
		// Academic origins pass.
		q2 := queryFor(t, w, prof, origin.JP, proto.HTTP)
		if v, _ := s.Engine.Evaluate(q2); v != policy.Allow {
			t.Errorf("%s: JP verdict %v, want Allow", prof, v)
		}
	}
}

func TestFreshCensysIPEvadesBlocks(t *testing.T) {
	// The blocks key on reputation (Censys's known ranges); a fresh
	// identity passes — the follow-up experiment's +5.5%.
	s, w := testScenario(t)
	q := queryFor(t, w, world.ProfDXTL, origin.CEN, proto.HTTP)
	q.Rep = origin.RepFresh
	if v, rule := s.Engine.Evaluate(q); v != policy.Allow {
		t.Errorf("fresh Censys verdict %v (rule %q), want Allow", v, rule)
	}
}

func TestTegnaBlocksNonUS(t *testing.T) {
	s, w := testScenario(t)
	for _, o := range []origin.ID{origin.AU, origin.BR, origin.DE, origin.JP} {
		q := queryFor(t, w, world.ProfTegna, o, proto.HTTP)
		if v, _ := s.Engine.Evaluate(q); v != policy.Silent {
			t.Errorf("%v to Tegna: %v, want Silent", o, v)
		}
	}
	for _, o := range []origin.ID{origin.US1, origin.US64, origin.CEN} {
		q := queryFor(t, w, world.ProfTegna, o, proto.HTTP)
		if v, _ := s.Engine.Evaluate(q); v != policy.Allow {
			t.Errorf("%v (US) to Tegna: %v, want Allow", o, v)
		}
	}
}

func TestWebCentralFenceAllowsAustralia(t *testing.T) {
	s, w := testScenario(t)
	n := w.MustProfileASN(world.ProfWebCentral)
	// Find a fenced host: one blocked for US1 must be allowed for AU.
	fenced := 0
	for _, idx := range w.HostsInAS(n) {
		host := w.Hosts()[idx].Addr
		qUS := queryFor(t, w, world.ProfWebCentral, origin.US1, proto.HTTP)
		qUS.Dst = host
		vUS, _ := s.Engine.Evaluate(qUS)
		if vUS != policy.Silent {
			continue
		}
		fenced++
		qAU := queryFor(t, w, world.ProfWebCentral, origin.AU, proto.HTTP)
		qAU.Dst = host
		if vAU, _ := s.Engine.Evaluate(qAU); vAU != policy.Allow {
			t.Fatalf("AU blocked from its own fenced host: %v", vAU)
		}
	}
	if fenced == 0 {
		t.Error("WebCentral fence selected no hosts")
	}
}

func TestAlibabaTemporalSSHOnlyLate(t *testing.T) {
	s, w := testScenario(t)
	q := queryFor(t, w, world.ProfAlibabaHZ, origin.JP, proto.SSH)
	q.Time = time.Hour
	if v, _ := s.Engine.Evaluate(q); v != policy.Allow {
		t.Errorf("early SSH to Alibaba: %v, want Allow", v)
	}
	// Detection fires somewhere in [0.45, 0.85] of 21h; at 20h some
	// blocked windows must exist (intermittent, so scan a few hours).
	blocked := false
	for h := 18; h <= 20; h++ {
		q.Time = time.Duration(h) * time.Hour
		if v, _ := s.Engine.Evaluate(q); v == policy.ResetAfterAccept {
			blocked = true
		}
	}
	if !blocked {
		t.Error("late SSH to Alibaba never blocked")
	}
	// HTTP to the same network is never temporally blocked.
	qh := queryFor(t, w, world.ProfAlibabaHZ, origin.JP, proto.HTTP)
	qh.Time = 20 * time.Hour
	if v, _ := s.Engine.Evaluate(qh); v == policy.ResetAfterAccept {
		t.Error("temporal blocker leaked to HTTP")
	}
	// US64 evades.
	q64 := queryFor(t, w, world.ProfAlibabaHZ, origin.US64, proto.SSH)
	q64.Time = 20 * time.Hour
	if v, _ := s.Engine.Evaluate(q64); v == policy.ResetAfterAccept {
		t.Error("US64 should evade temporal blocking")
	}
}

func TestMaxStartupsCoversEGIHeavily(t *testing.T) {
	s, w := testScenario(t)
	heavy := s.MaxStartupsRules[0]
	n := w.MustProfileASN(world.ProfEGI)
	affected := 0
	total := 0
	for _, idx := range w.HostsInAS(n) {
		h := w.Hosts()[idx]
		if !h.Services.Has(proto.SSH) {
			continue
		}
		total++
		q := queryFor(t, w, world.ProfEGI, origin.US1, proto.SSH)
		q.Dst = h.Addr
		if heavy.Affected(q) {
			affected++
		}
	}
	if total == 0 {
		t.Skip("no SSH hosts in EGI at this scale")
	}
	if affected == 0 {
		t.Error("no EGI SSH hosts affected by MaxStartups")
	}
}

func TestLossOverridesDEtoTelecomItalia(t *testing.T) {
	s, w := testScenario(t)
	ti := w.MustProfileASN(world.ProfTelecomIT)
	de := s.Loss.Params(origin.DE, ti, 0)
	br := s.Loss.Params(origin.BR, ti, 0)
	us := s.Loss.Params(origin.US1, ti, 0)
	if de.BadPrefixFrac == 0 || de.BadDrop < 0.4 {
		t.Errorf("DE→TI should have pathological /24s: %+v", de)
	}
	if br.PacketDrop > 0.01 {
		t.Errorf("BR→TI should be clean (TIM Brasil): %v", br.PacketDrop)
	}
	if us.PacketDrop < 0.10 {
		t.Errorf("US→TI should be very lossy (µ=16%%): %v", us.PacketDrop)
	}
}

func TestChinaPathsLossyFromEverywhere(t *testing.T) {
	s, w := testScenario(t)
	ct := w.MustProfileASN(world.ProfChinaTel)
	for _, o := range origin.StudySet() {
		p := s.Loss.Params(o, ct, 0)
		if p.PacketDrop < 0.02 || p.PacketDrop > 0.15 {
			t.Errorf("%v→China Telecom drop %v outside the paper's 3-14%% band", o, p.PacketDrop)
		}
	}
}

func TestAustraliaWorstToRussia(t *testing.T) {
	s, w := testScenario(t)
	ru := w.MustProfileASN(world.ProfRostelecom)
	au := s.Loss.Params(origin.AU, ru, 0).PacketDrop
	for _, o := range []origin.ID{origin.BR, origin.DE, origin.JP, origin.US1} {
		if other := s.Loss.Params(o, ru, 0).PacketDrop; au < 3*other {
			t.Errorf("AU→Rostelecom drop %v should be ≫ %v→ (%v)", au, o, other)
		}
	}
}

func TestOutageSchedulesPerProtocol(t *testing.T) {
	s, _ := testScenario(t)
	for _, p := range proto.All() {
		if s.Outages[p] == nil {
			t.Fatalf("no outage schedule for %v", p)
		}
	}
	// The wide Brazil event lives in the HTTPS schedule, trial 3.
	affectedSomewhere := false
	nums, _ := s.World.ASWeights()
	for _, n := range nums {
		for dst := uint32(0); dst < 50; dst++ {
			if s.Outages[proto.HTTPS].Affected(2, origin.BR, n, ip.AddrFrom4(dst), 9*time.Hour+30*time.Minute) {
				affectedSomewhere = true
				break
			}
		}
		if affectedSomewhere {
			break
		}
	}
	if !affectedSomewhere {
		t.Error("Brazil HTTPS trial-3 wide event not present")
	}
}

func TestAblationsDisableBehaviours(t *testing.T) {
	w, err := world.Build(context.Background(), world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	s := New(w, Config{Trials: 3, NumOrigins: 7, DisableBlocking: true, DisableOutages: true, DisableLossOverrides: true})
	if len(s.Engine.Rules()) != 0 {
		t.Error("DisableBlocking left rules in place")
	}
	if len(s.Outages) != 0 {
		t.Error("DisableOutages left schedules")
	}
	ti := w.MustProfileASN(world.ProfTelecomIT)
	if p := s.Loss.Params(origin.DE, ti, 0); p.BadPrefixFrac != 0 {
		t.Error("DisableLossOverrides left overrides")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	s1, w := testScenario(t)
	s2 := New(w, Config{Trials: 3, NumOrigins: 7})
	for _, o := range origin.StudySet() {
		for _, name := range []string{world.ProfAkamai, world.ProfTencent} {
			n := w.MustProfileASN(name)
			if s1.Loss.Params(o, n, 1) != s2.Loss.Params(o, n, 1) {
				t.Fatal("scenario loss params not deterministic")
			}
		}
	}
}

// TestScenarioHeapPerAS bounds what a built scenario retains beyond its
// world: the behaviour models are a handful of rules, schedules and path
// overrides, so the heap must not grow with origins × ASes × trials. A
// Scale 0.001 world has 2,295 ASes; the bound is 256 B per AS.
func TestScenarioHeapPerAS(t *testing.T) {
	w, err := world.Build(context.Background(), world.Spec{Seed: 2020, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s := New(w, Config{Trials: 3})
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(s)
	ases := w.Routes.Len()
	perAS := float64(retained) / float64(ases)
	t.Logf("scenario retains %d B over %d ASes (%.0f B/AS)", retained, ases, perAS)
	if perAS >= 256 {
		t.Errorf("scenario.New retains %.0f B per AS, want < 256", perAS)
	}
}
