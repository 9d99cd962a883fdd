package experiment

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

// stagedStudy is the grab stage's differential oracle: the study the way it
// ran before sweep and grab overlapped, with nothing shared but the layers
// below. Serially, on the live detectors, every scan sweeps into a reply
// log, and only then grabs it — one PredialBatch over the whole log, GrabFast
// on this goroutine in reply order, one AddBatch — and seals.
func stagedStudy(t *testing.T, cfg Config, prepare func(*Study)) (*Study, *results.Dataset) {
	t.Helper()
	ctx := context.Background()
	cfg.Parallelism, cfg.SpillDir, cfg.Telemetry = 1, "", nil
	st, err := NewStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prepare(st)
	cfg = st.Config
	ds := results.NewDataset(cfg.Origins, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, p := range cfg.Protocols {
			for _, o := range cfg.Origins {
				fab := referenceFabric(st, o, p, trial)
				zcfg := st.sweepConfig(p, trial)
				zcfg.SourceIPs = st.originRecord(o).SourceIPs
				sc, err := zmap.NewScanner(zcfg)
				if err != nil {
					t.Fatal(err)
				}
				var log []zmap.Reply
				stats, err := sc.Run(ctx, fab, func(r zmap.Reply) { log = append(log, r) })
				if err != nil {
					t.Fatal(err)
				}
				var dsts []ip.Addr
				var ts []time.Duration
				for _, r := range log {
					if r.ProbeMask != 0 {
						dsts, ts = append(dsts, r.Dst), append(ts, r.T)
					}
				}
				pre := make([]zgrab.DialVerdict, len(dsts))
				fab.PredialBatch(dsts, ts, p.Port(), pre)
				grabber := &zgrab.Grabber{Dialer: fab, Retries: cfg.Retries}
				recs := make([]results.HostRecord, 0, len(log))
				for _, r := range log {
					rec := results.HostRecord{Addr: r.Dst, ProbeMask: r.ProbeMask, RST: r.RST, T: r.T}
					if r.ProbeMask != 0 {
						g := grabber.GrabFast(ctx, p, r.Dst, r.T, pre[0])
						pre = pre[1:]
						rec.L7, rec.Fail, rec.Attempts, rec.Banner = g.Success, g.Fail, g.Attempts, g.Banner
					}
					recs = append(recs, rec)
				}
				res := results.NewScanResult(o, p, trial)
				res.AddBatch(recs)
				res.Targets, res.ProbesSent = stats.Targets, stats.ProbesSent
				res.SynAcks, res.Rsts, res.Invalid = stats.SynAcks, stats.Rsts, stats.Invalid
				if err := res.SealErr(); err != nil {
					t.Fatal(err)
				}
				if err := ds.Put(res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return st, ds
}

// grabStageConfig is the differential's study: a single-IP origin an IDS can
// detect beside a 64-IP one it cannot, HTTP and SSH (the MaxStartups retry
// path), two trials so a persistent block carries over.
func grabStageConfig(v6 bool) Config {
	cfg := Config{
		WorldSpec: world.Spec{Seed: 17, Scale: 0.00003},
		Trials:    2,
		Protocols: []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:   origin.Set{origin.US1, origin.US64},
	}
	if v6 {
		// ≈ 9.6 k hitlist entries: the walk has to span several 4,096-target
		// sweep batches for a detector to fire in the middle of it (a batch's
		// probes are all counted before its first reply is handed on).
		cfg.Family, cfg.V6Spec = world.FamilyIPv6, world.V6Spec{Seed: 17, Providers: 6, IslandsPerProvider: 8, HostsPerIsland: 160}
	}
	return cfg
}

// watchBusiestAS replaces the scenario's detectors with one over the AS
// holding the most hosts, its threshold set to half the probes one source
// sends that AS in a scan: a single-IP origin crosses it in the middle of
// its first walk, when about half of the AS's hosts have already answered
// (and, grabbed there and then, would still be served).
func watchBusiestAS(t *testing.T, st *Study) asn.ASN {
	t.Helper()
	ases, _ := st.World.ASWeights()
	var busiest asn.ASN
	for _, as := range ases {
		if len(st.World.HostsInAS(as)) > len(st.World.HostsInAS(busiest)) {
			busiest = as
		}
	}
	zcfg := st.sweepConfig(st.Config.Protocols[0], 0)
	zcfg.SourceIPs = []ip.Addr{ip.AddrFrom4(1)}
	sc, err := zmap.NewScanner(zcfg)
	if err != nil {
		t.Fatal(err)
	}
	targets := 0
	err = sc.Targets(context.Background(), func(dst ip.Addr, _ time.Duration) {
		if as, ok := st.World.ASOf(dst); ok && as.Number == busiest {
			targets++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// It monitors the study's first protocol only: which ASes are watched
	// is a per-protocol fact, and the stage must ask about the scan's own.
	st.Scenario.IDSes = []*policy.IDS{{
		RuleName: "test-ids", AS: busiest, Threshold: targets * st.Config.Probes / 2,
		Protos:     policy.DestMatch{Protocols: proto.Bit(st.Config.Protocols[0])},
		Persistent: true, Action: policy.Silent,
	}}
	return busiest
}

// journaled returns a registry that journals every span to a flight
// recorder in a test directory, and a reader for the spans journaled so
// far.
func journaled(t *testing.T) (*telemetry.Registry, func() []telemetry.SpanRecord) {
	t.Helper()
	reg := telemetry.New()
	rc, err := telemetry.NewRecorder(filepath.Join(t.TempDir(), telemetry.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachRecorder(rc)
	t.Cleanup(func() { _ = reg.CloseRecorder() })
	return reg, func() []telemetry.SpanRecord {
		t.Helper()
		evs, err := telemetry.ReadJournal(rc.Path())
		if err != nil {
			t.Fatal(err)
		}
		return telemetry.JournalSpans(evs)
	}
}

// stageAttrSum adds up one attribute over the stage spans.
func stageAttrSum(spans []telemetry.SpanRecord, key string) (sum int64) {
	for _, sp := range spans {
		if sp.Name != "scan_stage" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				sum += a.Value
			}
		}
	}
	return sum
}

// blockedSources lists which (detector, origin source, trial) triples the
// study's live detectors hold blocked — what SSHRetry and the multi-probe
// sweeps start from.
func blockedSources(st *Study) []string {
	var out []string
	for _, d := range st.Scenario.IDSes {
		for _, o := range st.Config.Origins {
			for _, src := range st.originRecord(o).SourceIPs {
				for trial := 0; trial < st.Config.Trials; trial++ {
					if d.BlockedState(src, trial) {
						out = append(out, fmt.Sprintf("%s/%v/%v/%d", d.RuleName, o, src, trial))
					}
				}
			}
		}
	}
	return out
}

// TestGrabStageMatchesStagedOracle: the study through the overlapped grab
// stage seals the staged oracle's dataset and leaves its detector state, over
// {one worker, two} × {memory, spilling store} × {v4 sweep, v6 hitlist} ×
// Retries {0, 2}, and under degenerate slot and ring shapes. The world is built so the comparison can fail: a detector
// watches the busiest AS and the single-IP origin crosses its threshold
// mid-walk, so hosts of that AS that answered before the crossing are served
// if grabbed under the walk and time out if grabbed after it — the hold-back
// is the only thing that keeps them equal, and the test checks that such
// hosts exist, that replies were held back, and that slots were handed off
// while the walk was still going.
func TestGrabStageMatchesStagedOracle(t *testing.T) {
	ctx := context.Background()
	for _, v6 := range []bool{false, true} {
		family := map[bool]string{false: "v4", true: "v6"}[v6]

		// Non-vacuity of the world: dial the watched AS's SYN-ACK hosts as
		// their replies arrive and again once the walk is over.
		probe, err := NewStudy(ctx, grabStageConfig(v6))
		if err != nil {
			t.Fatal(err)
		}
		watchBusiestAS(t, probe)
		p0 := probe.Config.Protocols[0]
		fab := referenceFabric(probe, origin.US1, p0, 0)
		zcfg := probe.sweepConfig(p0, 0)
		zcfg.SourceIPs = probe.originRecord(origin.US1).SourceIPs
		sc, err := zmap.NewScanner(zcfg)
		if err != nil {
			t.Fatal(err)
		}
		type dialed struct {
			r zmap.Reply
			v zgrab.DialVerdict
		}
		var early []dialed
		if _, err := sc.Run(ctx, fab, func(r zmap.Reply) {
			if r.ProbeMask != 0 && fab.Watched(p0, r.Dst) {
				early = append(early, dialed{r, fab.Predial(r.Dst, p0.Port(), r.T, 0)})
			}
		}); err != nil {
			t.Fatal(err)
		}
		differ := 0
		for _, e := range early {
			if fab.Predial(e.r.Dst, p0.Port(), e.r.T, 0) != e.v {
				differ++
			}
		}
		if differ == 0 {
			t.Fatalf("%s: none of the %d watched SYN-ACK hosts dials differently mid-walk and after it: the hold-back is untested", family, len(early))
		}

		for _, retries := range []int{0, 2} {
			cfg := grabStageConfig(v6)
			cfg.Retries = retries
			oracle, want := stagedStudy(t, cfg, func(st *Study) { watchBusiestAS(t, st) })
			wantBlocked := blockedSources(oracle)
			if len(wantBlocked) == 0 {
				t.Fatalf("%s: the oracle's detector blocked nobody", family)
			}

			run := func(name string, par int, spill bool, shape grabShape) {
				t.Run(fmt.Sprintf("%s/retries=%d/%s", family, retries, name), func(t *testing.T) {
					cfg := cfg
					cfg.Parallelism = par
					var journal func() []telemetry.SpanRecord
					cfg.Telemetry, journal = journaled(t)
					if spill {
						// A handful of segments per scan in either world.
						budget := map[bool]int64{false: 16 << 10, true: 64 << 10}[v6]
						cfg.SpillDir, cfg.MemBudget = t.TempDir(), budget*int64(par)
					}
					st, err := NewStudy(ctx, cfg)
					if err != nil {
						t.Fatal(err)
					}
					watched := watchBusiestAS(t, st)
					st.grabShape = shape
					got, err := st.Run(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if diff := want.Diff(got); diff != "" {
						t.Errorf("overlapped study differs from the staged oracle: %s", diff)
					}
					if blocked := blockedSources(st); fmt.Sprint(blocked) != fmt.Sprint(wantBlocked) {
						t.Errorf("detector state after the run: blocked %v, the staged oracle leaves %v", blocked, wantBlocked)
					}
					// Held back: the watched AS's replies in scans of the
					// protocol its detector monitors, and nothing else (a row
					// is a reply: no address repeats in these worlds).
					watchedRows := int64(0)
					for _, o := range cfg.Origins {
						for trial := 0; trial < cfg.Trials; trial++ {
							want.Scan(o, p0, trial).Each(func(r results.HostRecord) {
								if as, ok := st.World.ASOf(r.Addr); ok && as.Number == watched {
									watchedRows++
								}
							})
						}
					}
					spans := journal()
					if held := stageAttrSum(spans, "held_back"); held == 0 || held != watchedRows {
						t.Errorf("%d replies were held back, the oracle has %d rows in the watched AS", held, watchedRows)
					}
					// (A 4,096-reply slot never fills in this world: that shape is
					// the staged order on the overlapped path.)
					if slots := stageAttrSum(spans, "grab_slots"); slots == 0 && shape.slot != 4096 {
						t.Error("no slot was handed off before a walk ended: nothing overlapped")
					}
					if hosts, rows := stageAttrSum(spans, "hosts"), stageAttrSum(spans, "rows")+stageAttrSum(spans, "deduped"); hosts != rows {
						t.Errorf("grab spans count %d hosts, seal spans %d rows", hosts, rows)
					}
					if spill {
						for _, o := range cfg.Origins {
							if segs := got.Scan(o, p0, 0).SpillStats().Segments; segs < 3 {
								t.Errorf("%v/%v/0 flushed %d segments, want >= 3", o, p0, segs)
							}
						}
					}
				})
			}
			for _, eng := range []struct {
				name string
				par  int
			}{{"serial", 1}, {"parallel", 2}} {
				for _, spill := range []bool{false, true} {
					store := map[bool]string{false: "mem", true: "spill"}[spill]
					run(fmt.Sprintf("%s/%s", eng.name, store), eng.par, spill, grabShape{})
				}
			}
			// Degenerate shapes, on one worker: a slot of 1 in a ring of 1
			// grabs every reply before the walk may move on.
			if retries != 0 {
				continue
			}
			for _, slot := range []int{1, 7, 4096} {
				for _, ring := range []int{1, 4} {
					run(fmt.Sprintf("serial/slot=%d/ring=%d", slot, ring), 1, v6, grabShape{slot: slot, ring: ring})
				}
			}
		}
	}
}

// stallDialer blocks the coordinator in its first PredialBatch until
// released.
type stallDialer struct {
	zgrab.Dialer
	entered, release chan struct{}
}

func (d stallDialer) PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []zgrab.DialVerdict) {
	select {
	case d.entered <- struct{}{}:
		<-d.release
	default:
	}
	d.Dialer.PredialBatch(dsts, ts, port, out)
}

// answerCounter counts the probes the fabric answered.
type answerCounter struct {
	zmap.PacketSink
	n *atomic.Int64
}

func (c answerCounter) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	resp := c.PacketSink.Send(src, pkt, t)
	if resp != nil {
		c.n.Add(1)
	}
	return resp
}

// TestGrabStageBoundedInFlight: the ring is the stage's whole buffer. With
// the coordinator stalled in its first PredialBatch the sweep fills the
// remaining slots and then blocks — ring × slot replies taken, one probe per
// target so an answer is a reply — and goes on when the coordinator does.
func TestGrabStageBoundedInFlight(t *testing.T) {
	const slot, ring = 8, 3
	var answered atomic.Int64
	stall := stallDialer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	st, err := NewStudy(context.Background(), Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00003}, Trials: 1, Probes: 1,
		Protocols:   []proto.Protocol{proto.HTTP},
		Origins:     origin.Set{origin.US1},
		Parallelism: 1,
		SinkWrapper: func(s zmap.PacketSink) zmap.PacketSink { return answerCounter{s, &answered} },
		DialWrapper: func(d zgrab.Dialer) zgrab.Dialer {
			stall.Dialer = d
			return stall
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Scenario.IDSes = nil // nothing held back: every reply goes to the ring
	st.grabShape = grabShape{slot: slot, ring: ring}
	done := make(chan error, 1)
	go func() {
		_, err := st.Run(context.Background())
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for answered.Load() < slot*ring && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // an unbounded sweep would be far ahead by now
	if got := answered.Load(); got != slot*ring {
		t.Errorf("sweep took %d replies with the coordinator stalled, want ring × slot = %d", got, slot*ring)
	}
	select {
	case err := <-done:
		t.Fatalf("study returned (%v) with the coordinator stalled", err)
	default:
	}
	close(stall.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("study did not finish after the coordinator was released")
	}
	if got := answered.Load(); got <= slot*ring {
		t.Errorf("only %d replies in the whole scan: the bound was never reached", got)
	}
}

// goroutineLog records which goroutines call into the dialer and the sink.
type goroutineLog struct {
	zgrab.Dialer
	mu                    *sync.Mutex
	dials, sends, methods map[string]int
}

func goid() string {
	var b [64]byte
	return string(bytes.Fields(b[:runtime.Stack(b[:], false)])[1])
}

func (l goroutineLog) record(m map[string]int, method string) {
	l.mu.Lock()
	m[goid()]++
	l.methods[method]++
	l.mu.Unlock()
}

func (l goroutineLog) PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []zgrab.DialVerdict) {
	l.record(l.dials, "PredialBatch")
	l.Dialer.PredialBatch(dsts, ts, port, out)
}

func (l goroutineLog) Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	l.record(l.dials, "Predial")
	return l.Dialer.Predial(dst, port, t, attempt)
}

func (l goroutineLog) Handshake(dst ip.Addr, p proto.Protocol, v zgrab.DialVerdict) (zgrab.FailMode, string) {
	l.record(l.dials, "Handshake")
	return l.Dialer.Handshake(dst, p, v)
}

// sendLog records the goroutines the sweep probes the sink from.
type sendLog struct {
	zmap.PacketSink
	log goroutineLog
}

func (s sendLog) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	s.log.record(s.log.sends, "Send")
	return s.PacketSink.Send(src, pkt, t)
}

// TestGrabStageWorkersLiveForTheScan: over a scan of many slots, with a
// retry so Predial runs too, every PredialBatch, Predial and Handshake comes
// from one goroutine, and not from the one probing the sink — the stage
// grabs on the goroutine it starts once per scan, beside the walk.
func TestGrabStageWorkersLiveForTheScan(t *testing.T) {
	log := goroutineLog{mu: new(sync.Mutex), dials: map[string]int{}, sends: map[string]int{}, methods: map[string]int{}}
	st, err := NewStudy(context.Background(), Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00003}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP},
		Origins:     origin.Set{origin.US1},
		Parallelism: 1,
		Retries:     1,
		SinkWrapper: func(s zmap.PacketSink) zmap.PacketSink { return sendLog{s, log} },
		DialWrapper: func(d zgrab.Dialer) zgrab.Dialer {
			log.Dialer = d
			return log
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.grabShape = grabShape{slot: 32, ring: 4}
	if _, err := st.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if slots := log.methods["PredialBatch"]; slots < 32 {
		t.Fatalf("only %d slots: too few to tell one grabbing goroutine from many", slots)
	}
	for _, m := range []string{"Predial", "Handshake", "Send"} {
		if log.methods[m] == 0 {
			t.Fatalf("no %s call: the test observes nothing of it", m)
		}
	}
	if len(log.dials) != 1 {
		t.Errorf("the dialer was called from %d goroutines, want the grab stage's one", len(log.dials))
	}
	for id := range log.dials {
		if log.sends[id] != 0 {
			t.Errorf("goroutine %s both probed the sink and grabbed", id)
		}
	}
}

// TestGrabStageCancelWakesBlockedSweep: a cancellation that arrives while
// the sweep is blocked on a full ring must still end the scan. The
// coordinator (stalled here until the sweep has had time to block, then
// released into a canceled context) keeps draining the ring and discards, so
// the sweep wakes and observes the cancellation itself: a sweep
// interruption, in bounded time, with no goroutine left behind.
func TestGrabStageCancelWakesBlockedSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stall := stallDialer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	st, err := NewStudy(ctx, Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00003}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP},
		Origins:     origin.Set{origin.US1},
		Parallelism: 1,
		DialWrapper: func(d zgrab.Dialer) zgrab.Dialer {
			stall.Dialer = d
			return stall
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.grabShape = grabShape{slot: 4, ring: 2}
	done := make(chan error, 1)
	go func() {
		_, err := st.Run(ctx)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(stall.entered) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the sweep fills the other slot and blocks
	cancel()
	close(stall.release)
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled study did not return: the sweep is still blocked on the ring")
	}
	if stage, ok := pipeline.InterruptedStage(err); !ok || stage != pipeline.StageSweep {
		t.Errorf("err = %v, interrupted stage = %v (found=%v), want a canceled sweep", err, stage, ok)
	}
	waitNoLeak(t, before, "grab goroutine after cancellation")
}
