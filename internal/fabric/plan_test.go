package fabric

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/loss"
	"repro/internal/origin"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// planTrials is how many trials the differential worlds model; fabrics are
// also built for trial index planTrials, where the SSH retry sub-experiment
// runs.
const planTrials = 3

// planWorld is one calibrated world the plan differentials run over: the
// scenario's full rule set, loss overrides, outage schedules and churn, plus
// a destination sample that reaches every AS.
type planWorld struct {
	name string
	w    *world.World
	sc   *scenario.Scenario
	dsts []ip.Addr
}

// planWorlds builds the v4 TestSpec and v6 TestV6Spec worlds with their
// scenarios. The sample takes, per AS, every prefix's first address (an AS
// can span countries, and country gates stay dynamic) and a handful of its
// hosts, then two unrouted addresses.
func planWorlds(t testing.TB) []planWorld {
	t.Helper()
	ctx := context.Background()
	w4, err := world.Build(ctx, world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	w6, err := world.BuildV6(ctx, world.TestV6Spec(3))
	if err != nil {
		t.Fatal(err)
	}
	var out []planWorld
	for _, pw := range []planWorld{{name: "v4", w: w4}, {name: "v6", w: w6}} {
		w := pw.w
		pw.sc = scenario.New(w, scenario.Config{Trials: planTrials})
		hosts := w.Hosts()
		for _, a := range w.Routes.All() {
			for _, pfx := range a.Prefixes {
				pw.dsts = append(pw.dsts, pfx.First())
			}
			idx := w.HostsInAS(a.Number)
			for i := 0; i < len(idx); i += 1 + len(idx)/4 {
				pw.dsts = append(pw.dsts, hosts[idx[i]].Addr)
			}
		}
		src := w.Origins.Get(origin.US1).SourceIPs[0]
		pw.dsts = append(pw.dsts, src.Add(1), src.Add(2))
		out = append(out, pw)
	}
	return out
}

// config assembles a fabric config the way experiment.Study.sweep does, with
// the given detectors.
func (pw *planWorld) config(p proto.Protocol, dets []policy.Detector) *Config {
	return &Config{
		World:      pw.w,
		Engine:     pw.sc.Engine,
		IDSes:      dets,
		Loss:       pw.sc.Loss,
		Outages:    pw.sc.Outages[p],
		Churn:      pw.sc.Churn,
		NumOrigins: 7,
		Hosts:      pw.sc.Hosts,
	}
}

// cloneIDSes returns empty copies of the scenario's live IDSes, so each side
// of a differential counts probes into its own state.
func cloneIDSes(idses []*policy.IDS) []*policy.IDS {
	out := make([]*policy.IDS, len(idses))
	for i, d := range idses {
		out[i] = d.CloneEmpty()
	}
	return out
}

// sampleTimes are probe times across a 21-hour scan, including one past
// Alibaba's detection window.
var sampleTimes = []time.Duration{0, 37 * time.Minute, 9*time.Hour + 30*time.Minute, 20 * time.Hour}

// TestPlanMatchesEngine pins each part of a compiled plan to the lookup it
// replaces, for every origin × AS × protocol × trial of both calibrated
// worlds and a sample of destinations, times and attempts: the plan's policy
// verdict and deciding rule name equal Engine.Evaluate's, its loss path is
// Matrix.Path's, its outages answer as Schedule.Affected does, and no
// detector that covers a query was compiled out.
func TestPlanMatchesEngine(t *testing.T) {
	for _, pw := range planWorlds(t) {
		t.Run(pw.name, func(t *testing.T) {
			fib := pw.w.FIB()
			checked, decided := 0, 0
			for _, org := range pw.w.Origins.All() {
				for trial := 0; trial <= planTrials; trial++ {
					for _, p := range proto.All() {
						cfg := pw.config(p, policy.Detectors(pw.sc.IDSes))
						fab := New(cfg, org, trial)
						for _, dst := range pw.dsts {
							d := fib.Resolve(dst)
							if !d.Routed {
								continue
							}
							pl := fab.planFor(p, &d)
							if want := cfg.Loss.Path(org.ID, d.AS.Number, trial); pl.path != want {
								t.Fatalf("%v→AS%d trial %d: plan path %+v, matrix path %+v", org.ID, d.AS.Number, trial, pl.path, want)
							}
							for ti, at := range sampleTimes {
								q := fab.scan
								q.SrcIP, q.Dst, q.DstAS, q.DstCountry, q.Proto = origin.SourceFor(org.SourceIPs, dst), dst, d.AS.Number, d.Country, p
								q.Time, q.Attempt = at, ti%3
								wantV, wantRule := cfg.Engine.Evaluate(&q)
								gotV, gotRule := pl.policy.Evaluate(&q)
								if gotV != wantV || gotRule != wantRule {
									t.Fatalf("%v %v trial %d → %v at %v: plan says %v by %q, engine %v by %q",
										org.ID, p, trial, dst, at, gotV, gotRule, wantV, wantRule)
								}
								if wantRule != "" {
									decided++
								}
								if got, want := pl.outages.Affected(dst, at), cfg.Outages.Affected(trial, org.ID, d.AS.Number, dst, at); got != want {
									t.Fatalf("%v %v trial %d → %v at %v: plan outage %v, schedule %v", org.ID, p, trial, dst, at, got, want)
								}
								for _, ids := range pw.sc.IDSes {
									if ids.Covers(&q) && !hasDetector(pl.detectors, ids) {
										t.Fatalf("%v → %v: detector %s covers the query but is not in the plan", p, dst, ids.RuleName)
									}
								}
								checked++
							}
						}
					}
				}
			}
			if decided == 0 {
				t.Fatalf("no rule decided any of %d queries: the differential is vacuous", checked)
			}
			t.Logf("%d queries, %d decided by a rule", checked, decided)
		})
	}
}

func hasDetector(dets []policy.Detector, d policy.Detector) bool {
	for _, x := range dets {
		if x == d {
			return true
		}
	}
	return false
}

// oracleChain is the decision chain as Send and Dial each spelled it out
// before plans existed: the whole engine per query, a Matrix-level path
// lookup, Schedule.Affected, and one PacketLost per direction. It survives
// here as the reference the kernel is held to.
type oracleChain struct {
	cfg   *Config
	org   *origin.Origin
	trial int
}

func (o *oracleChain) query(src, dst ip.Addr, d world.Dest, p proto.Protocol, t time.Duration, attempt int) *policy.Query {
	return &policy.Query{
		Origin: o.org.ID, SrcIP: src, SrcCountry: o.org.Country,
		NumSrcIPs: len(o.org.SourceIPs), Rep: o.org.ScanReputation,
		Dst: dst, DstAS: d.AS.Number, DstCountry: d.Country, Proto: p,
		Trial: o.trial, Time: t, Attempt: attempt,
		ConcurrentOrigins: o.cfg.NumOrigins,
	}
}

func (o *oracleChain) pathDown(path *loss.Path, d world.Dest, dst ip.Addr, t time.Duration) bool {
	if o.cfg.Outages != nil && o.cfg.Outages.Affected(o.trial, o.org.ID, d.AS.Number, dst, t) {
		return true
	}
	return path.EpisodeActive(dst)
}

// send returns the flags of the packet the old Send answered with (0 for
// silence).
func (o *oracleChain) send(src, dst ip.Addr, port uint16, probeIdx uint64, t time.Duration) uint8 {
	d := o.cfg.World.FIB().Resolve(dst)
	if !d.Routed {
		return 0
	}
	p, isProto := proto.FromPort(port)
	if !isProto {
		return 0
	}
	if d.Host && o.cfg.Churn.Offline(dst, o.trial) {
		return 0
	}
	q := o.query(src, dst, d, p, t, 0)
	for _, ids := range o.cfg.IDSes {
		if ids.RecordProbe(q) {
			return 0
		}
	}
	verdict, _ := o.cfg.Engine.Evaluate(q)
	if verdict == policy.Silent {
		return 0
	}
	path := o.cfg.Loss.Path(o.org.ID, d.AS.Number, o.trial)
	if o.pathDown(&path, d, dst, t) {
		return 0
	}
	if path.PacketLost(dst, probeIdx*2, t) || path.PacketLost(dst, probeIdx*2+1, t) {
		return 0
	}
	if verdict == policy.RefuseTCP {
		return packet.FlagRST | packet.FlagACK
	}
	if !d.Host || !d.Services.Has(p) {
		if d.Host {
			return packet.FlagRST | packet.FlagACK
		}
		return 0
	}
	return packet.FlagSYN | packet.FlagACK
}

// predial returns the verdict the old Dial/predialEval chain reached.
func (o *oracleChain) predial(dst ip.Addr, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	d := o.cfg.World.FIB().Resolve(dst)
	if !d.Routed {
		return zgrab.DialTimeout
	}
	p, isProto := proto.FromPort(port)
	if !isProto {
		return zgrab.DialRefused
	}
	if d.Host && o.cfg.Churn.Offline(dst, o.trial) {
		return zgrab.DialTimeout
	}
	q := o.query(origin.SourceFor(o.org.SourceIPs, dst), dst, d, p, t, attempt)
	verdict, _ := o.cfg.Engine.Evaluate(q)
	for _, ids := range o.cfg.IDSes {
		if v, ok := ids.ConnVerdict(q); ok && v == policy.Silent {
			return zgrab.DialTimeout
		}
	}
	switch verdict {
	case policy.Silent:
		return zgrab.DialTimeout
	case policy.RefuseTCP:
		return zgrab.DialRefused
	}
	path := o.cfg.Loss.Path(o.org.ID, d.AS.Number, o.trial)
	if o.pathDown(&path, d, dst, t) {
		return zgrab.DialTimeout
	}
	if !d.Host || !d.Services.Has(p) {
		return zgrab.DialRefused
	}
	if path.HandshakeFailed(dst, attempt) {
		return zgrab.DialTimeout
	}
	switch verdict {
	case policy.ResetAfterAccept:
		return zgrab.DialReset
	case policy.CloseAfterAccept:
		return zgrab.DialHalfClose
	}
	return zgrab.DialConnect
}

// replyFlags decodes the TCP flags of a Send response (0 for nil).
func replyFlags(t testing.TB, resp []byte) uint8 {
	t.Helper()
	if resp == nil {
		return 0
	}
	var tcph packet.TCPHeader
	var err error
	if packet.Version(resp) == 6 {
		var ip6 packet.IPv6Header
		_, err = packet.DecodeTCP6Into(&ip6, &tcph, resp)
	} else {
		var ip4 packet.IPv4Header
		_, err = packet.DecodeTCP4Into(&ip4, &tcph, resp)
	}
	if err != nil {
		t.Fatalf("undecodable response: %v", err)
	}
	return tcph.Flags
}

// TestKernelMatchesOracleChain drives Send and Predial over both calibrated
// worlds — every origin, every protocol, trials 0 and 2, live IDSes counting
// on each side — plus the synthetic treatments of fastCases (which add the
// RefuseTCP and accept-then-kill verdicts the scenarios never produce), and
// requires the plan-driven kernel to answer every probe and dial exactly as
// the pre-plan chain did. This is what licenses the plan's shortcuts: the
// dark-space return in Send, the single ProbeLost draw, and evaluating only
// a rule sub-list.
func TestKernelMatchesOracleChain(t *testing.T) {
	diff := func(t *testing.T, cfgOf func(p proto.Protocol, dets []policy.Detector) *Config, idses []*policy.IDS, w *world.World, dsts []ip.Addr, trials []int) (answered int) {
		for _, org := range w.Origins.All() {
			for _, trial := range trials {
				for _, p := range proto.All() {
					fab := New(cfgOf(p, policy.Detectors(cloneIDSes(idses))), org, trial)
					ora := &oracleChain{cfgOf(p, policy.Detectors(cloneIDSes(idses))), org, trial}
					buf := make([]byte, 0, 2*packet.ReplyCap)
					for i, dst := range dsts {
						src := origin.SourceFor(org.SourceIPs, dst)
						at := sampleTimes[i%len(sampleTimes)] + time.Duration(i)*time.Second
						for probe := uint64(0); probe < 2; probe++ {
							buf = packet.MakeSYNInto(buf, src, dst, 40000+uint16(probe), p.Port(), 7, uint16(probe))
							got := replyFlags(t, fab.Send(src, buf, at))
							if want := ora.send(src, dst, p.Port(), probe, at); got != want {
								t.Fatalf("%v %v trial %d → %v probe %d at %v: Send flags %#x, oracle %#x", org.ID, p, trial, dst, probe, at, got, want)
							}
							if got != 0 {
								answered++
							}
						}
					}
					for i, dst := range dsts {
						at := sampleTimes[i%len(sampleTimes)] + time.Duration(i)*time.Second
						for attempt := 0; attempt < 2; attempt++ {
							if got, want := fab.Predial(dst, p.Port(), at, attempt), ora.predial(dst, p.Port(), at, attempt); got != want {
								t.Fatalf("%v %v trial %d → %v attempt %d at %v: Predial %d, oracle %d", org.ID, p, trial, dst, attempt, at, got, want)
							}
						}
					}
				}
			}
		}
		return answered
	}
	for _, pw := range planWorlds(t) {
		t.Run(pw.name, func(t *testing.T) {
			if diff(t, pw.config, pw.sc.IDSes, pw.w, pw.dsts, []int{0, 2}) == 0 {
				t.Fatal("no probe was answered: the differential is vacuous")
			}
		})
	}
	for _, tc := range fastCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg, w := quietConfig(t, tc.rules...)
			cfg.Churn = world.NewChurn(rng.NewKey(7), 0.3, 3)
			diff(t, func(proto.Protocol, []policy.Detector) *Config { return cfg }, nil, w, diffTargets(t, w), []int{0})
		})
	}
}

// TestPlanFirstTouchConcurrent is the sharded-sweep shape: four goroutines
// send probes toward the same ASes at once, each possibly the first to touch
// an AS's plan. Every goroutine must see the same fully built plan (run with
// -race), each plan's rule sub-list must have been carved exactly once, and
// the result must equal what a single goroutine compiles.
func TestPlanFirstTouchConcurrent(t *testing.T) {
	pw := planWorlds(t)[0]
	p := proto.SSH
	org := pw.w.Origins.Get(origin.US1)
	fab := New(pw.config(p, policy.Detectors(cloneIDSes(pw.sc.IDSes))), org, 0)
	fib := pw.w.FIB()

	const shards = 4
	seen := make([][]*plan, shards)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 2*packet.ReplyCap)
			<-start
			for _, dst := range pw.dsts {
				src := origin.SourceFor(org.SourceIPs, dst)
				buf = packet.MakeSYNInto(buf, src, dst, 40000, p.Port(), 7, 0)
				fab.Send(src, buf, time.Hour)
				if d := fib.Resolve(dst); d.Routed {
					seen[g] = append(seen[g], fab.planFor(p, &d))
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	ref := New(pw.config(p, policy.Detectors(cloneIDSes(pw.sc.IDSes))), org, 0)
	carved := 0
	tab := *fab.plans[p].Load()
	for i := range tab {
		if tab[i].ready.Load() {
			carved += tab[i].policy.Len()
		}
	}
	if carved != len(fab.ruleBuf) {
		t.Errorf("plans hold %d rules, the shared backing array %d: a sub-list was carved twice", carved, len(fab.ruleBuf))
	}
	for g := 1; g < shards; g++ {
		for i := range seen[0] {
			if seen[g][i] != seen[0][i] {
				t.Fatalf("goroutine %d resolved a different plan for %v", g, pw.dsts[i])
			}
		}
	}
	for _, dst := range pw.dsts {
		d := fib.Resolve(dst)
		if !d.Routed {
			continue
		}
		got, want := fab.planFor(p, &d), ref.planFor(p, &d)
		if got.path != want.path || got.policy.Len() != want.policy.Len() ||
			len(got.detectors) != len(want.detectors) || got.darkSilent != want.darkSilent {
			t.Fatalf("AS%d: concurrently built plan differs from a serial build", d.AS.Number)
		}
	}
}

// TestCompileAllocsPerAS holds plan compilation to no allocation per AS:
// building a fresh fabric and compiling one plan for every AS allocates the
// fabric, its plan table and the growth of ruleBuf, and nothing else, at
// two world sizes. Outages and detectors, whose rare per-AS slices are the
// documented exception, are left out.
func TestCompileAllocsPerAS(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	ctx := context.Background()
	const fixed = 4 // the fabric, the plan table and its header, slack
	for _, scale := range []float64{0.00005, 0.0002} {
		w, err := world.Build(ctx, world.Spec{Seed: 3, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		sc := scenario.New(w, scenario.Config{Trials: 1})
		fib := w.FIB()
		var dests []world.Dest
		seen := make(map[int32]bool)
		for _, a := range w.Routes.All() {
			for _, pfx := range a.Prefixes {
				if d := fib.Resolve(pfx.First()); d.Routed && !seen[d.ASIdx] {
					seen[d.ASIdx] = true
					dests = append(dests, d)
				}
			}
		}
		cfg := &Config{World: w, Engine: sc.Engine, Loss: sc.Loss, Churn: sc.Churn, NumOrigins: 7, Hosts: sc.Hosts}
		org := w.Origins.Get(origin.US1)
		p := proto.HTTP
		var fab *Fabric
		allocs := testing.AllocsPerRun(3, func() {
			fab = New(cfg, org, 0)
			for i := range dests {
				fab.planFor(p, &dests[i])
			}
		})
		// ruleBuf grows by appending one rule at a time: replay it.
		growths := 0
		var replay []policy.Rule
		for range fab.ruleBuf {
			c := cap(replay)
			if replay = append(replay, nil); cap(replay) != c {
				growths++
			}
		}
		t.Logf("scale %v: %d ASes, %d rules carved, %v allocations (%d of them ruleBuf growth)", scale, len(dests), len(fab.ruleBuf), allocs, growths)
		if len(dests) <= 2*fixed {
			t.Fatalf("scale %v: only %d ASes: an allocation per AS would not show", scale, len(dests))
		}
		if extra := allocs - float64(growths); extra > fixed {
			t.Errorf("scale %v: compiling %d plans allocates %v times beyond ruleBuf's %d growths, want at most %d: an allocation per AS",
				scale, len(dests), extra, growths, fixed)
		}
	}
}
