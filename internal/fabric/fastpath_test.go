package fabric

import (
	"context"
	"errors"
	"fmt"
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
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// fastCases are the policy treatments the fast path must replicate: every
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

// TestPredialMatchesDial pins the connectionless verdict to Dial's
// observable outcome for every policy treatment, destination class, port,
// and attempt number, including churned-offline hosts.
func TestPredialMatchesDial(t *testing.T) {
	ctx := context.Background()
	for _, tc := range fastCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg, w := quietConfig(t, tc.rules...)
			cfg.Churn = world.NewChurn(rng.NewKey(7), 0.3, 3)
			fab := New(cfg, w.Origins.Get(origin.US1), 0)
			for _, dst := range diffTargets(t, w) {
				for _, port := range []uint16{80, 443, 22} {
					for attempt := 0; attempt < 3; attempt++ {
						v := fab.Predial(dst, port, time.Hour, attempt)
						conn, err := fab.Dial(ctx, dst, port, time.Hour, attempt)
						switch {
						case errors.Is(err, zgrab.ErrTimeout):
							if v != zgrab.DialTimeout {
								t.Fatalf("%v:%d attempt %d: Dial timeout, Predial %d", dst, port, attempt, v)
							}
						case errors.Is(err, zgrab.ErrRefused):
							if v != zgrab.DialRefused {
								t.Fatalf("%v:%d attempt %d: Dial refused, Predial %d", dst, port, attempt, v)
							}
						case err == nil:
							if v != zgrab.DialReset && v != zgrab.DialHalfClose && v != zgrab.DialConnect {
								t.Fatalf("%v:%d attempt %d: Dial connected, Predial %d", dst, port, attempt, v)
							}
							conn.Close()
						default:
							t.Fatalf("%v:%d: unexpected dial error %v", dst, port, err)
						}
					}
				}
			}
			if err := fab.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
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

// grabPair builds a reference and a fast fabric over one shared config
// (the engine and loss models are stateless keyed hashes; sharing them is
// exactly what one scan does) with separate connection accounting.
func grabPair(t *testing.T, retries int, lossCfg *loss.Config, rules ...policy.Rule) (*Fabric, *Fabric, *zgrab.Grabber, *zgrab.Grabber, *world.World) {
	t.Helper()
	cfg, w := quietConfig(t, rules...)
	cfg.Churn = world.NewChurn(rng.NewKey(7), 0.2, 3)
	if lossCfg != nil {
		cfg.Loss = loss.NewMatrix(rng.NewKey(1).Derive("t"), *lossCfg)
	}
	fabR := New(cfg, w.Origins.Get(origin.US1), 0)
	fabF := New(cfg, w.Origins.Get(origin.US1), 0)
	gR := &zgrab.Grabber{Dialer: fabR, Retries: retries, Key: rng.NewKey(3), IOTimeout: 5 * time.Second}
	gF := &zgrab.Grabber{Dialer: fabF, Retries: retries, Key: rng.NewKey(3)}
	return fabR, fabF, gR, gF, w
}

// TestGrabFastMatchesReference is the end-to-end differential: for every
// policy treatment and protocol, the typed path's zgrab.Result (success,
// failure mode, banner, attempts) must equal the byte exchange's over a
// goroutine-served vconn pipe for every host in the world, with zero
// goroutines live on the typed path and identical ConnsOpened accounting.
func TestGrabFastMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, tc := range fastCases() {
		retries := 0
		if tc.name == "maxstartups" {
			retries = 8 // §6: immediate retries recover MaxStartups hosts
		}
		t.Run(tc.name, func(t *testing.T) {
			fabR, fabF, gR, gF, w := grabPair(t, retries, nil, tc.rules...)
			for _, p := range proto.All() {
				for _, h := range w.Hosts() {
					ref := gR.Grab(ctx, p, h.Addr, time.Hour)
					v := fabF.Predial(h.Addr, p.Port(), time.Hour, 0)
					fast := gF.GrabFast(ctx, p, h.Addr, time.Hour, v)
					if ref != fast {
						t.Fatalf("%v/%v: fast %+v != reference %+v", p, h.Addr, fast, ref)
					}
					if n := fabF.ActiveConns(); n != 0 {
						t.Fatalf("fast path spawned %d goroutines", n)
					}
				}
			}
			if err := fabR.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if fabR.ConnsOpened() != fabF.ConnsOpened() {
				t.Errorf("ConnsOpened: reference %d, fast %d", fabR.ConnsOpened(), fabF.ConnsOpened())
			}
		})
	}
}

// TestGrabFastMatchesReferenceLossy repeats the differential under heavy
// handshake loss with a retry budget, so attempts fail and recover at
// different attempt numbers on both paths.
func TestGrabFastMatchesReferenceLossy(t *testing.T) {
	ctx := context.Background()
	lossy := &loss.Config{
		BasePacketDrop: 0.15, VolatileMax: 0.4,
		VolatileSpreadFrac: 0.5, VolatileModerateFrac: 0.3,
		StableAlpha: 1,
	}
	fabR, fabF, gR, gF, w := grabPair(t, 3, lossy)
	for _, h := range w.Hosts() {
		ref := gR.Grab(ctx, proto.SSH, h.Addr, time.Hour)
		v := fabF.Predial(h.Addr, proto.SSH.Port(), time.Hour, 0)
		fast := gF.GrabFast(ctx, proto.SSH, h.Addr, time.Hour, v)
		if ref != fast {
			t.Fatalf("%v: fast %+v != reference %+v (lossy)", h.Addr, fast, ref)
		}
	}
	if err := fabR.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if fabR.ConnsOpened() != fabF.ConnsOpened() {
		t.Errorf("ConnsOpened: reference %d, fast %d", fabR.ConnsOpened(), fabF.ConnsOpened())
	}
}

// TestGrabFastParallelWindow drives the fast path the way the grab stage
// does — PredialBatch over a window, concurrent workers grabbing with the
// precomputed verdicts — and requires the exact serial reference results,
// zero goroutines throughout, and matching ConnsOpened. Run under -race this
// is also the proof that Handshake is safe for concurrent use.
func TestGrabFastParallelWindow(t *testing.T) {
	ctx := context.Background()
	fabR, fabF, gR, gF, w := grabPair(t, 1, nil)
	hosts := w.Hosts()
	dsts := make([]ip.Addr, len(hosts))
	ts := make([]time.Duration, len(hosts))
	for i, h := range hosts {
		dsts[i] = h.Addr
		ts[i] = time.Hour
	}

	refs := make([]zgrab.Result, len(dsts))
	for i, d := range dsts {
		refs[i] = gR.Grab(ctx, proto.HTTP, d, ts[i])
	}
	if err := fabR.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	verdicts := make([]zgrab.DialVerdict, len(dsts))
	fabF.PredialBatch(dsts, ts, proto.HTTP.Port(), verdicts)
	fasts := make([]zgrab.Result, len(dsts))
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	leaked := false
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if fabF.ActiveConns() != 0 {
					leaked = true
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	const workers = 8
	var next int64
	var mu sync.Mutex
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(dsts) {
					return
				}
				fasts[i] = gF.GrabFast(ctx, proto.HTTP, dsts[i], ts[i], verdicts[i])
			}
		}()
	}
	wg.Wait()
	close(stop)
	watcher.Wait()
	if leaked {
		t.Error("fast path had live server goroutines mid-stage")
	}
	for i := range refs {
		if refs[i] != fasts[i] {
			t.Fatalf("%v: parallel fast %+v != serial reference %+v", dsts[i], fasts[i], refs[i])
		}
	}
	if fabR.ConnsOpened() != fabF.ConnsOpened() {
		t.Errorf("ConnsOpened: reference %d, fast %d", fabR.ConnsOpened(), fabF.ConnsOpened())
	}
	if fabF.ActiveConns() != 0 {
		t.Errorf("ActiveConns = %d after fast grab stage, want 0", fabF.ActiveConns())
	}
}

// TestGrabFastCanceledContext pins the cancellation contract: a canceled
// context produces the same timeout-classified, retry-free result on both
// paths.
func TestGrabFastCanceledContext(t *testing.T) {
	fabR, fabF, gR, gF, w := grabPair(t, 4, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := w.Hosts()[0].Addr
	ref := gR.Grab(ctx, proto.HTTP, h, time.Hour)
	v := fabF.Predial(h, proto.HTTP.Port(), time.Hour, 0)
	fast := gF.GrabFast(ctx, proto.HTTP, h, time.Hour, v)
	if ref != fast {
		t.Errorf("canceled grab: fast %+v != reference %+v", fast, ref)
	}
	if fast.Fail != zgrab.FailTimeout || fast.Attempts != 1 {
		t.Errorf("canceled grab = %+v, want single timeout attempt", fast)
	}
	_ = fabR.Drain(context.Background())
}

// TestGrabFastIDSDetection: once a stateful IDS has crossed its detection
// threshold during the sweep, grab-time dials from the blocked source must
// time out identically on both paths (the grab-time IDS view is read-only
// — exactly what makes batched pre-dial evaluation safe).
func TestGrabFastIDSDetection(t *testing.T) {
	ctx := context.Background()
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
	if _, err := fab.Dial(ctx, host, 80, time.Hour, 0); !errors.Is(err, zgrab.ErrTimeout) {
		t.Fatalf("reference dial after detection = %v, want timeout", err)
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
// every protocol and verdict: nothing. The typed handshake answers from the
// host's interned software tables; no connection, buffer or pool is touched.
const grabAllocBudget = 0

// TestGrabAllocBudget holds GrabFast to the budget for every protocol ×
// verdict, over hosts whose banners cover the interned table.
func TestGrabAllocBudget(t *testing.T) {
	ctx := context.Background()
	_, fab, _, g, w := grabPair(t, 0, nil)
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
			want := v == zgrab.DialConnect
			grab := func() {
				for _, dst := range hosts {
					if res := g.GrabFast(ctx, p, dst, time.Hour, v); res.Success != want {
						t.Fatalf("%v verdict %d on %v: %+v", p, v, dst, res)
					}
				}
			}
			grab() // warm the pools and grow the scratch to flight size
			if got := testing.AllocsPerRun(20, grab) / float64(len(hosts)); got > grabAllocBudget {
				t.Errorf("%v verdict %d: %.2f allocs per grab, budget %d", p, v, got, grabAllocBudget)
			}
		}
	}
	if n := fab.ActiveConns(); n != 0 {
		t.Errorf("%d goroutines live", n)
	}
}

// grabCounts is a GrabMetrics bundle's observable state: every counter, then
// the dial, handshake and retry histograms' observation counts.
func grabCounts(m *telemetry.GrabMetrics) [11]uint64 {
	_, _, dials := m.DialSeconds.Snapshot()
	_, _, handshakes := m.HandshakeSeconds.Snapshot()
	_, _, retries := m.RetrySeconds.Snapshot()
	return [11]uint64{
		m.Dials.Value(), m.Handshakes.Value(), m.Retries.Value(), m.Refused.Value(),
		m.Resets.Value(), m.Timeouts.Value(), m.Closed.Value(), m.ProtoErrs.Value(),
		dials, handshakes, retries,
	}
}

// FuzzGrabTypedMatchesExchange holds the typed grab to the byte exchange it
// replaces. The fuzzer picks a world (its seed), a destination (a host by
// index, or with the top bit set the address beside it), a protocol, a
// policy treatment from fastCases (allow, silent, refuse, reset or close
// after accept, MaxStartups), a retry budget of 0–3, handshake loss, a
// trial, a grab time and a canceled context; GrabFast over Predial +
// Handshake must return Grab-over-Dial's Result and leave equal ConnsOpened
// and equal GrabMetrics counts.
func FuzzGrabTypedMatchesExchange(f *testing.F) {
	cases := fastCases()
	worlds := map[uint8]*world.World{}
	for c := range cases {
		for p := range proto.All() {
			f.Add(uint8(c), uint32(c*7+p), uint8(p), uint8(c), uint8(c%4), c%2 == 1, false, int64(time.Hour))
		}
	}
	f.Add(uint8(1), uint32(3), uint8(2), uint8(5), uint8(3), true, false, int64(5*time.Hour))
	f.Add(uint8(2), uint32(1)<<31|9, uint8(0), uint8(0), uint8(1), false, false, int64(0))
	f.Add(uint8(0), uint32(4), uint8(1), uint8(0), uint8(3), false, true, int64(time.Minute))
	f.Fuzz(func(t *testing.T, seed uint8, hostIdx uint32, protoIdx, caseIdx, retries uint8, lossy, canceled bool, at int64) {
		w := worlds[seed%3]
		if w == nil {
			var err error
			if w, err = world.Build(context.Background(), world.Spec{Seed: 5 + uint64(seed%3), Scale: 0.00002}); err != nil {
				t.Fatal(err)
			}
			worlds[seed%3] = w
		}
		hosts := w.Hosts()
		dst := hosts[int(hostIdx&^(1<<31))%len(hosts)].Addr
		if hostIdx>>31 != 0 {
			dst = dst.Add(1)
		}
		p := proto.All()[int(protoIdx)%proto.N]
		tc := cases[int(caseIdx)%len(cases)]
		lossCfg := loss.Config{
			BasePacketDrop: 1e-9, VolatileMax: 1e-9,
			VolatileSpreadFrac: 1e-9, VolatileModerateFrac: 1e-9,
		}
		if lossy {
			lossCfg = loss.Config{
				BasePacketDrop: 0.15, VolatileMax: 0.4,
				VolatileSpreadFrac: 0.5, VolatileModerateFrac: 0.3,
				StableAlpha: 1,
			}
		}
		cfg := &Config{
			World:      w,
			Engine:     policy.NewEngine(tc.rules...),
			Loss:       loss.NewMatrix(rng.NewKey(1).Derive("t"), lossCfg),
			Churn:      world.NewChurn(rng.NewKey(7), 0.2, 3),
			NumOrigins: 1,
			Hosts:      hostsim.NewServer(rng.NewKey(2)),
		}
		trial := int(seed>>2) % 3
		when := time.Duration(uint64(at) % uint64(scenario.ScanDuration))
		ctx := context.Background()
		if canceled {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}

		fabR := New(cfg, w.Origins.Get(origin.US1), trial)
		fabF := New(cfg, w.Origins.Get(origin.US1), trial)
		mR := telemetry.NewGrabMetrics(telemetry.New())
		mF := telemetry.NewGrabMetrics(telemetry.New())
		n := int(retries % 4)
		gR := &zgrab.Grabber{Dialer: fabR, Retries: n, Key: rng.NewKey(3), IOTimeout: 5 * time.Second, Metrics: mR}
		gF := &zgrab.Grabber{Dialer: fabF, Retries: n, Key: rng.NewKey(3), Metrics: mF}

		ref := gR.Grab(ctx, p, dst, when)
		fast := gF.GrabFast(ctx, p, dst, when, fabF.Predial(dst, p.Port(), when, 0))
		if err := fabR.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("%v %v, %s, trial %d, %d retries, lossy %v, canceled %v, at %v", dst, p, tc.name, trial, n, lossy, canceled, when)
		if fast != ref {
			t.Fatalf("%s: typed %+v, exchange %+v", where, fast, ref)
		}
		if r, f := fabR.ConnsOpened(), fabF.ConnsOpened(); r != f {
			t.Fatalf("%s: ConnsOpened typed %d, exchange %d", where, f, r)
		}
		if r, f := grabCounts(mR), grabCounts(mF); r != f {
			t.Fatalf("%s: metric counts typed %v, exchange %v", where, f, r)
		}
	})
}
