package fabric

import (
	"context"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/loss"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// fastCases are the policy treatments the grab path must handle: every
// verdict class the engine can produce, plus the probabilistic MaxStartups
// refusal the §6 retry experiment depends on.
func fastCases() []struct {
	name  string
	rules []policy.Rule
} {
	return []struct {
		name  string
		rules []policy.Rule
	}{
		{"allow", nil},
		{"silent", []policy.Rule{&policy.StaticBlock{RuleName: "b", Action: policy.Silent}}},
		{"refuse-tcp", []policy.Rule{&policy.StaticBlock{RuleName: "b", Action: policy.RefuseTCP}}},
		{"reset-after-accept", []policy.Rule{&policy.StaticBlock{RuleName: "b", Action: policy.ResetAfterAccept}}},
		{"close-after-accept", []policy.Rule{&policy.StaticBlock{RuleName: "b", Action: policy.CloseAfterAccept}}},
		{"maxstartups", []policy.Rule{&policy.MaxStartups{
			RuleName: "ms", HostFraction: 1.0,
			Start: 3, Rate: 0.6, Full: 50, MeanLoad: 10,
			Key: rng.NewKey(6).Derive("ms"),
		}}},
	}
}

// diffTargets picks a representative destination mix: every host in the
// small world (services present and absent), one routed-but-empty address,
// and one unrouted address.
func diffTargets(t *testing.T, w *world.World) []ip.Addr {
	t.Helper()
	dsts := make([]ip.Addr, 0, len(w.Hosts())+2)
	for _, h := range w.Hosts() {
		dsts = append(dsts, h.Addr)
	}
	for _, a := range w.Routes.All() {
		pfx := a.Prefixes[0]
		for i := uint64(0); i < pfx.NumAddrs(); i++ {
			if _, isHost := w.Lookup(pfx.Nth(i)); !isHost {
				dsts = append(dsts, pfx.Nth(i))
				break
			}
		}
		break
	}
	return append(dsts, w.Origins.Get(origin.US1).SourceIPs[0].Add(1))
}

// TestPredialBatchMatchesPredial pins the batched evaluation (bulk FIB
// resolution + shared scratch) to the per-destination path.
func TestPredialBatchMatchesPredial(t *testing.T) {
	cfg, w := quietConfig(t)
	cfg.Churn = world.NewChurn(rng.NewKey(7), 0.3, 3)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	dsts := diffTargets(t, w)
	ts := make([]time.Duration, len(dsts))
	for i := range ts {
		ts[i] = time.Duration(i) * time.Minute
	}
	out := make([]zgrab.DialVerdict, len(dsts))
	fab.PredialBatch(dsts, ts, 80, out)
	for i, dst := range dsts {
		if want := fab.Predial(dst, 80, ts[i], 0); out[i] != want {
			t.Errorf("PredialBatch[%d] (%v) = %d, Predial = %d", i, dst, out[i], want)
		}
	}
}

// grabFabric builds a fabric over the quiet test world with churn, and
// optionally a lossy path, plus a grabber on it with the given retry budget.
func grabFabric(t *testing.T, retries int, lossCfg *loss.Config, rules ...policy.Rule) (*Fabric, *zgrab.Grabber, *world.World) {
	t.Helper()
	cfg, w := quietConfig(t, rules...)
	cfg.Churn = world.NewChurn(rng.NewKey(7), 0.2, 3)
	if lossCfg != nil {
		cfg.Loss = loss.NewMatrix(rng.NewKey(1).Derive("t"), *lossCfg)
	}
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	return fab, &zgrab.Grabber{Dialer: fab, Retries: retries}, w
}

// byteGrab is what a grab of p against dst at t ends in with bytes on the
// wire: Predial per attempt, and for an accepting verdict a fresh exchange
// over a vconn pipe with the fabric's host server, serving dst's class.
func byteGrab(fab *Fabric, p proto.Protocol, dst ip.Addr, t time.Duration, retries int) zgrab.Result {
	g := &zgrab.Grabber{Key: rng.NewKey(3)}
	src := origin.SourceFor(fab.org.SourceIPs, dst)
	var res zgrab.Result
	for attempt := 0; attempt <= retries; attempt++ {
		switch v := fab.Predial(dst, p.Port(), t, attempt); v {
		case zgrab.DialTimeout:
			res = zgrab.Result{Proto: p, Fail: zgrab.FailTimeout}
		case zgrab.DialRefused:
			res = zgrab.Result{Proto: p, Fail: zgrab.FailRefused}
		default:
			res = exchange(g, fab.cfg.Hosts, src, dst, p, v, fab.cfg.Hosts.Class(dst, p))
		}
		res.Attempts = attempt + 1
		if res.Success {
			break
		}
	}
	return res
}

// TestGrabFastMatchesReference is the end-to-end check of the table through
// the grab path: for every policy treatment and protocol, GrabFast's Result
// (success, failure mode, banner, attempts) for every host in the world
// equals byteGrab's, and ConnsOpened counts the served connections.
func TestGrabFastMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, tc := range fastCases() {
		retries := 0
		if tc.name == "maxstartups" {
			retries = 8 // §6: immediate retries recover MaxStartups hosts
		}
		t.Run(tc.name, func(t *testing.T) {
			fab, g, w := grabFabric(t, retries, nil, tc.rules...)
			served := uint64(0)
			for _, p := range proto.All() {
				for _, h := range w.Hosts() {
					ref := byteGrab(fab, p, h.Addr, time.Hour, retries)
					v := fab.Predial(h.Addr, p.Port(), time.Hour, 0)
					got := g.GrabFast(ctx, p, h.Addr, time.Hour, v)
					if ref != got {
						t.Fatalf("%v/%v: GrabFast %+v != byte grab %+v", p, h.Addr, got, ref)
					}
					if got.Success {
						served++
					}
				}
			}
			if fab.ConnsOpened() != served {
				t.Errorf("ConnsOpened = %d, want the %d served grabs", fab.ConnsOpened(), served)
			}
		})
	}
}

// TestGrabFastMatchesReferenceLossy repeats the check under heavy handshake
// loss with a retry budget, so attempts fail and recover at different
// attempt numbers.
func TestGrabFastMatchesReferenceLossy(t *testing.T) {
	ctx := context.Background()
	lossy := &loss.Config{
		BasePacketDrop: 0.15, VolatileMax: 0.4,
		VolatileSpreadFrac: 0.5, VolatileModerateFrac: 0.3,
		StableAlpha: 1,
	}
	fab, g, w := grabFabric(t, 3, lossy)
	retried := 0
	for _, h := range w.Hosts() {
		ref := byteGrab(fab, proto.SSH, h.Addr, time.Hour, 3)
		v := fab.Predial(h.Addr, proto.SSH.Port(), time.Hour, 0)
		got := g.GrabFast(ctx, proto.SSH, h.Addr, time.Hour, v)
		if ref != got {
			t.Fatalf("%v: GrabFast %+v != byte grab %+v (lossy)", h.Addr, got, ref)
		}
		if got.Success && got.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no grab recovered on a retry: the loss does not reach the handshake")
	}
}

// TestGrabFastParallelWindow drives the grab path the way a wide grab stage
// would — PredialBatch over a window, concurrent workers grabbing with the
// precomputed verdicts, the first of them building the exchange table — and
// requires the serial results and the same ConnsOpened. Run under -race
// this is also the proof that Handshake is safe for concurrent use.
func TestGrabFastParallelWindow(t *testing.T) {
	ctx := context.Background()
	fabS, gS, w := grabFabric(t, 1, nil)
	fabP := New(fabS.cfg, w.Origins.Get(origin.US1), 0)
	gP := &zgrab.Grabber{Dialer: fabP, Retries: 1}
	hosts := w.Hosts()
	dsts := make([]ip.Addr, len(hosts))
	ts := make([]time.Duration, len(hosts))
	for i, h := range hosts {
		dsts[i] = h.Addr
		ts[i] = time.Hour
	}

	verdicts := make([]zgrab.DialVerdict, len(dsts))
	fabP.PredialBatch(dsts, ts, proto.HTTP.Port(), verdicts)
	got := make([]zgrab.Result, len(dsts))
	var wg sync.WaitGroup
	const workers = 8
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(dsts); i += workers {
				got[i] = gP.GrabFast(ctx, proto.HTTP, dsts[i], ts[i], verdicts[i])
			}
		}(wk)
	}
	wg.Wait()
	for i, d := range dsts {
		want := gS.GrabFast(ctx, proto.HTTP, d, ts[i], fabS.Predial(d, proto.HTTP.Port(), ts[i], 0))
		if got[i] != want {
			t.Fatalf("%v: parallel %+v != serial %+v", d, got[i], want)
		}
	}
	if fabS.ConnsOpened() != fabP.ConnsOpened() || fabP.ConnsOpened() == 0 {
		t.Errorf("ConnsOpened: serial %d, parallel %d", fabS.ConnsOpened(), fabP.ConnsOpened())
	}
}

// TestGrabFastCanceledContext pins the cancellation contract: a canceled
// context produces a timeout-classified, retry-free result and opens no
// connection.
func TestGrabFastCanceledContext(t *testing.T) {
	fab, g, w := grabFabric(t, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := w.Hosts()[0].Addr
	v := fab.Predial(h, proto.HTTP.Port(), time.Hour, 0)
	got := g.GrabFast(ctx, proto.HTTP, h, time.Hour, v)
	if got.Fail != zgrab.FailTimeout || got.Attempts != 1 {
		t.Errorf("canceled grab = %+v, want single timeout attempt", got)
	}
	if n := fab.ConnsOpened(); n != 0 {
		t.Errorf("canceled grab opened %d connections", n)
	}
}

// TestGrabFastIDSDetection: once a stateful IDS has crossed its detection
// threshold during the sweep, grab-time dials from the blocked source must
// time out (the grab-time IDS view is read-only — exactly what makes
// batched pre-dial evaluation safe).
func TestGrabFastIDSDetection(t *testing.T) {
	cfg, w := quietConfig(t)
	host, _ := pickHost(t, w, proto.HTTP)
	as, _ := w.ASOf(host)
	ids := &policy.IDS{RuleName: "ids", AS: as.Number, Threshold: 3, Action: policy.Silent}
	cfg.IDSes = policy.Detectors([]*policy.IDS{ids})
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	src, syn, _ := synTo(w, origin.US1, host, 80)
	for i := 0; i < 10; i++ {
		fab.Send(src, syn, time.Hour)
	}
	if v := fab.Predial(host, 80, time.Hour, 0); v != zgrab.DialTimeout {
		t.Errorf("Predial after IDS detection = %d, want DialTimeout", v)
	}
}

// raceBuild reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of what it is given and a steady-state
// allocation count means nothing.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// grabAllocBudget is DESIGN.md § 8.3's allocation budget per GrabFast, for
// every protocol and verdict: nothing. Once the exchange table is built, a
// handshake is a table read; no connection, buffer or pool is touched.
const grabAllocBudget = 0

// TestGrabAllocBudget holds GrabFast to the budget for every protocol ×
// verdict, over hosts whose classes cover the table, with metrics off and
// with a live bundle. Telemetry is a pure observer at the grab layer too: a
// grabber counting into a live registry returns, host for host, the Result
// one with nil metrics does.
func TestGrabAllocBudget(t *testing.T) {
	ctx := context.Background()
	_, g, w := grabFabric(t, 0, nil)
	live := *g
	live.Metrics = telemetry.NewGrabMetrics(telemetry.New(), telemetry.L("origin", "US1"))
	for _, p := range proto.All() {
		var hosts []ip.Addr
		for _, h := range w.Hosts() {
			if h.Services.Has(p) && len(hosts) < 64 {
				hosts = append(hosts, h.Addr)
			}
		}
		if len(hosts) < 16 {
			t.Fatalf("%v: only %d hosts", p, len(hosts))
		}
		for _, v := range []zgrab.DialVerdict{
			zgrab.DialConnect, zgrab.DialReset, zgrab.DialHalfClose, zgrab.DialTimeout, zgrab.DialRefused,
		} {
			// The first accepted grab builds the table.
			want := make([]zgrab.Result, len(hosts))
			for i, dst := range hosts {
				if want[i] = g.GrabFast(ctx, p, dst, time.Hour, v); want[i].Success != (v == zgrab.DialConnect) {
					t.Fatalf("%v verdict %d on %v: %+v", p, v, dst, want[i])
				}
			}
			for _, gr := range []*zgrab.Grabber{g, &live} {
				grab := func() {
					for i, dst := range hosts {
						if res := gr.GrabFast(ctx, p, dst, time.Hour, v); res != want[i] {
							t.Fatalf("%v verdict %d on %v, live metrics %t: %+v, want %+v", p, v, dst, gr.Metrics != nil, res, want[i])
						}
					}
				}
				if got := testing.AllocsPerRun(20, grab) / float64(len(hosts)); got > grabAllocBudget {
					t.Errorf("%v verdict %d, live metrics %t: %.2f allocs per grab, budget %d", p, v, gr.Metrics != nil, got, grabAllocBudget)
				}
			}
		}
	}
	if live.Metrics.Dials.Value() == 0 {
		t.Error("the live bundle counted no dials")
	}
}

// FuzzGrabTypedMatchesExchange holds the typed handshake to the byte
// exchange it is read from. Whatever the host server's key, the destination
// (IPv4, or with v6 set any 128-bit address), the protocol, the accepting
// verdict (served, reset or half-closed) and the grabber's TLS key, one
// fresh exchange against that host must end in the table entry Handshake
// answers for the host's class, and only a served connection counts toward
// ConnsOpened. The seeds cover every class of every protocol and both
// teardowns.
func FuzzGrabTypedMatchesExchange(f *testing.F) {
	accepting := []zgrab.DialVerdict{zgrab.DialConnect, zgrab.DialReset, zgrab.DialHalfClose}
	const seedKey = 2
	seedSrv := hostsim.NewServer(rng.NewKey(seedKey))
	for pi, p := range proto.All() {
		for c, lo := 0, uint64(0); c < hostsim.Classes(p); lo++ {
			if seedSrv.Class(ip.AddrFrom4(uint32(lo)), p) == c {
				f.Add(uint64(seedKey), uint64(0), lo, false, uint8(pi), uint8(0), uint64(c))
				c++
			}
		}
		for vi := 1; vi < len(accepting); vi++ {
			f.Add(uint64(pi), uint64(0), uint64(0x0a000001), false, uint8(pi), uint8(vi), uint64(vi))
		}
		f.Add(uint64(pi+7), uint64(0x20010db8)<<32, uint64(pi+1), true, uint8(pi), uint8(0), uint64(9))
	}
	f.Fuzz(func(t *testing.T, key, hi, lo uint64, v6 bool, protoIdx, verdictIdx uint8, grabKey uint64) {
		dst := ip.AddrFrom4(uint32(lo))
		if v6 {
			dst = ip.AddrFrom128(hi, lo)
		}
		p := proto.All()[int(protoIdx)%proto.N]
		v := accepting[int(verdictIdx)%len(accepting)]
		srv := hostsim.NewServer(rng.NewKey(key))
		fab := &Fabric{cfg: &Config{Hosts: srv}}

		fail, banner := fab.Handshake(dst, p, v)
		g := &zgrab.Grabber{Key: rng.NewKey(grabKey)}
		src := ip.AddrFrom4(0xc6336407)
		want := exchange(g, srv, src, dst, p, v, srv.Class(dst, p))
		got := zgrab.Result{Proto: p, Success: fail == zgrab.FailNone, Fail: fail, Banner: banner}
		if got != want {
			t.Fatalf("%v %v, verdict %d, key %d: table %+v, exchange %+v", dst, p, v, key, got, want)
		}
		if opened, served := fab.ConnsOpened(), v == zgrab.DialConnect; (opened == 1) != served || opened > 1 {
			t.Fatalf("%v %v, verdict %d: ConnsOpened %d", dst, p, v, opened)
		}
	})
}
