package experiment

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zmap"
)

// equivalenceConfig is the study the width differentials run. The origin
// set deliberately mixes the IDS-relevant identities: single-IP origins that
// cross detection thresholds, the 64-IP origin that evades them, and
// Carinet's trial-0-only scan (an ordering edge case).
func equivalenceConfig(par int) Config {
	return Config{
		WorldSpec:      world.Spec{Seed: 11, Scale: 0.00005},
		Trials:         2,
		Protocols:      []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:        origin.Set{origin.US1, origin.US64, origin.CEN},
		IncludeCarinet: true,
		Parallelism:    par,
	}
}

// equivalenceStudy runs the equivalence study at the given parallelism.
// Every run carries a telemetry registry, so the equivalence it proves
// covers instrumented scans: telemetry must not perturb any result.
func equivalenceStudy(t *testing.T, par int) (*Study, *results.Dataset) {
	t.Helper()
	// Tracing runs at full tilt — hierarchy, batch exemplars, and a live
	// flight recorder streaming spans to disk — so the equivalence also
	// proves the whole observability stack is a pure observer.
	reg := telemetry.New()
	rec, err := telemetry.NewRecorder(filepath.Join(t.TempDir(), telemetry.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachRecorder(rec)
	t.Cleanup(func() {
		if err := reg.CloseRecorder(); err != nil {
			t.Errorf("closing flight recorder: %v", err)
		}
	})
	cfg := equivalenceConfig(par)
	cfg.Telemetry = reg
	st, err := NewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st, ds
}

// TestParallelMatchesSerial is the engine's core invariant: the same study
// config run by one worker and by eight must produce bit-for-bit identical
// datasets, leave the live IDS machines in identical end states, and count
// the same IDS activations and drops.
func TestParallelMatchesSerial(t *testing.T) {
	stSerial, serial := equivalenceStudy(t, 1)
	stPar, par := equivalenceStudy(t, 8)

	if serial.Len() == 0 {
		t.Fatal("serial study produced no scans")
	}
	if diff := serial.Diff(par); diff != "" {
		t.Errorf("Parallelism 8 differs from serial: %s", diff)
	}

	// Sub-experiments read the live IDS state after Run.
	blocked := 0
	for i, ser := range stSerial.Scenario.IDSes {
		parIDS := stPar.Scenario.IDSes[i]
		for _, o := range stSerial.World.Origins.All() {
			for _, src := range o.SourceIPs {
				for trial := 0; trial < stSerial.Config.Trials; trial++ {
					got, want := parIDS.BlockedState(src, trial), ser.BlockedState(src, trial)
					if got != want {
						t.Errorf("IDS %s: blocked(%v, trial %d) = %v after parallel run, %v after serial",
							ser.RuleName, src, trial, got, want)
					}
					if want {
						blocked++
					}
				}
			}
		}
	}
	if blocked == 0 {
		t.Error("no IDS blocked any source: the end-state comparison is vacuous")
	}

	for _, m := range []string{telemetry.MetricIDSActivations, telemetry.MetricIDSDrops} {
		s, p := stSerial.Config.Telemetry.CounterSum(m), stPar.Config.Telemetry.CounterSum(m)
		if s == 0 || s != p {
			t.Errorf("%s: %d at Parallelism 1, %d at Parallelism 8; want equal and non-zero", m, s, p)
		}
	}
	// An activation drops its own probe, and a blocked source's later
	// probes are dropped too.
	reg := stSerial.Config.Telemetry
	if a, d := reg.CounterSum(telemetry.MetricIDSActivations), reg.CounterSum(telemetry.MetricIDSDrops); d <= a {
		t.Errorf("%d drops for %d activations: probes from blocked sources are not counted", d, a)
	}
}

// keySink forwards to the scan's fabric and reports the source and first
// destination of every non-empty probe batch.
type keySink struct {
	*fabric.Fabric
	note func(src, dst ip.Addr, port uint16)
}

func (k keySink) ProbeBatch(srcs []ip.Addr, port uint16, probes int, delay time.Duration, dsts []ip.Addr, ts []time.Duration, synAcks, rsts []uint8) {
	if len(dsts) > 0 {
		k.note(srcs[0], dsts[0], port)
	}
	k.Fabric.ProbeBatch(srcs, port, probes, delay, dsts, ts, synAcks, rsts)
}

// TestChainsSerializeEachOrigin watches the workers through Hooks, at one
// worker and at eight: a scan is in flight from its Sweep stage's Before
// hook to its Seal stage's After hook, and no two scans of one origin may
// ever be in flight together; each origin's scans must start in study
// order. A scan's hooks fire on two goroutines (Seal on its grab stage's),
// so they name their scan by the stage context (ScanOf). The sink names it
// independently — the origin by its source address, the (protocol, trial)
// by the port and the first routed target, which the per-(protocol, trial)
// seed fixes — and must find that scan in flight. At one worker each tail
// is held until the next walk has ended (holdTails), and some scan must
// start before the one before it has sealed: the worker does not wait for
// a tail before it sweeps again.
func TestChainsSerializeEachOrigin(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) { checkChains(t, par) })
	}
}

func checkChains(t *testing.T, par int) {
	ctx := context.Background()
	cfg := equivalenceConfig(par)
	st, err := NewStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type pt struct {
		p     proto.Protocol
		trial int
	}
	first := map[ip.Addr]pt{}
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, p := range cfg.Protocols {
			zcfg := st.sweepConfig(p, trial)
			zcfg.SourceIPs = []ip.Addr{ip.AddrFrom4(1)}
			sc, err := zmap.NewScanner(zcfg)
			if err != nil {
				t.Fatal(err)
			}
			var dst ip.Addr
			found := false
			err = sc.Targets(ctx, func(a ip.Addr, _ time.Duration) {
				if !found && st.World.FIB().Routed(a) {
					dst, found = a, true
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			first[dst] = pt{p, trial}
		}
	}
	if len(first) != cfg.Trials*len(cfg.Protocols) {
		t.Fatalf("%d distinct first targets for %d (protocol, trial) pairs", len(first), cfg.Trials*len(cfg.Protocols))
	}
	srcOrigin := map[ip.Addr]origin.ID{}
	for _, o := range st.World.Origins.All() {
		for _, src := range o.SourceIPs {
			srcOrigin[src] = o.ID
		}
	}

	type scan struct {
		key        scanKey
		seen       bool // the sink saw the scan's traffic while it was in flight
		start, end int  // positions in the hook event sequence
	}
	var mu sync.Mutex
	seq := 0
	inFlight := map[scanKey]*scan{}
	var scans []*scan
	var hold *tailHold
	if par == 1 {
		hold = holdTails(t, equivalenceTasks)
	}
	key := func(ctx context.Context) scanKey {
		o, p, trial, ok := ScanOf(ctx)
		if !ok {
			t.Fatal("a scan stage's context names no scan")
		}
		return scanKey{o: o, p: p, trial: trial}
	}
	st.Config.Hooks = pipeline.Hooks{
		Before: func(ctx context.Context, s pipeline.Stage) {
			if s != pipeline.StageSweep {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			seq++
			sc := &scan{key: key(ctx), start: seq}
			if inFlight[sc.key] != nil {
				t.Errorf("%v/%v/trial %d started twice", sc.key.o, sc.key.p, sc.key.trial)
			}
			inFlight[sc.key] = sc
			scans = append(scans, sc)
		},
		After: func(ctx context.Context, s pipeline.Stage, _ error) {
			if s == pipeline.StageSweep && hold != nil {
				hold.sweepEnded()
			}
			if s != pipeline.StageSeal {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			seq++
			k := key(ctx)
			inFlight[k].end = seq
			delete(inFlight, k)
		},
	}
	st.Config.SinkWrapper = func(inner zmap.PacketSink) zmap.PacketSink {
		known := false // the scan's sink has named it
		return keySink{Fabric: inner.(*fabric.Fabric), note: func(src, dst ip.Addr, port uint16) {
			mu.Lock()
			defer mu.Unlock()
			if known {
				return
			}
			id, ok := first[dst]
			if !ok || id.p.Port() != port {
				// A batch of the split's helper may come first; the first
				// routed target is in the scan's first batch.
				return
			}
			known = true
			k := scanKey{o: srcOrigin[src], p: id.p, trial: id.trial}
			sc := inFlight[k]
			if sc == nil {
				t.Errorf("the sink saw %v/%v/trial %d probing while its hooks had it out of flight", k.o, k.p, k.trial)
				return
			}
			sc.seen = true
		}}
	}
	ds, err := st.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(scans) != ds.Len() {
		t.Fatalf("hooks saw %d scans, the dataset holds %d", len(scans), ds.Len())
	}
	byOrigin := map[origin.ID][]*scan{}
	for _, sc := range scans {
		if !sc.seen {
			t.Fatalf("%v/%v/trial %d: its sink never saw it in flight", sc.key.o, sc.key.p, sc.key.trial)
		}
		byOrigin[sc.key.o] = append(byOrigin[sc.key.o], sc)
	}
	for o, chain := range byOrigin {
		// scans is in start order, so chain is too.
		for i, sc := range chain {
			want := scanKey{o: o, p: cfg.Protocols[i%len(cfg.Protocols)], trial: i / len(cfg.Protocols)}
			if sc.key != want {
				t.Errorf("%v: scan %d to start was %v/%v/trial %d, want %v/%v/trial %d",
					o, i, sc.key.o, sc.key.p, sc.key.trial, want.o, want.p, want.trial)
			}
			if i > 0 && sc.start < chain[i-1].end {
				t.Errorf("%v: %v/trial %d started before %v/trial %d sealed",
					o, sc.key.p, sc.key.trial, chain[i-1].key.p, chain[i-1].key.trial)
			}
		}
	}
	if par == 1 {
		overlapped := false
		for i := 1; i < len(scans); i++ {
			overlapped = overlapped || scans[i].start < scans[i-1].end
		}
		if !overlapped {
			t.Error("Parallelism 1: every scan started after the one before it sealed; tails do not overlap the next sweep")
		}
	}
}

// equivalenceTasks is how many scans equivalenceConfig lists: three origins
// × two protocols × two trials, and Carinet's two trial-0 scans.
const equivalenceTasks = 3*2*2 + 2

// TestInterruptedRunLeavesLiveIDSes cancels the equivalence study once its
// last scan has started and every other scan has sealed (the last sweep
// may start before the scan before it seals), at one worker and at eight:
// by then its single-IP origins have been detected (a complete run blocks
// them, see TestParallelMatchesSerial), but only a fully successful run may
// commit detection state, so the live IDSes must still block nobody.
func TestInterruptedRunLeavesLiveIDSes(t *testing.T) {
	for _, par := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, sealed atomic.Int64
		cfg := equivalenceConfig(par)
		cfg.Hooks = pipeline.Hooks{
			Before: func(_ context.Context, s pipeline.Stage) {
				if s == pipeline.StageSweep && started.Add(1) == equivalenceTasks && sealed.Load() == equivalenceTasks-1 {
					cancel()
				}
			},
			After: func(_ context.Context, s pipeline.Stage, err error) {
				if s == pipeline.StageSeal && err == nil && sealed.Add(1) == equivalenceTasks-1 && started.Load() == equivalenceTasks {
					cancel()
				}
			},
		}
		st, err := NewStudy(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Run(ctx)
		cancel()
		if !errors.Is(err, pipeline.ErrCanceled) {
			t.Fatalf("Parallelism %d: err = %v, want ErrCanceled", par, err)
		}
		if par == 1 && ds.Len() != equivalenceTasks-1 {
			t.Errorf("Parallelism 1: %d scans sealed, want every one before the last", ds.Len())
		}
		if got := blockedSources(st); len(got) != 0 {
			t.Errorf("Parallelism %d: an interrupted run left the live IDSes blocking %v", par, got)
		}
	}
}
