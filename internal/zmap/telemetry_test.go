package zmap

import (
	"context"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/telemetry"
)

// sweepCounterValues reads the bundle back as a Stats for comparison.
func sweepCounterValues(m *telemetry.SweepMetrics) Stats {
	return Stats{
		Targets:    m.Targets.Value(),
		Blocked:    m.Blocked.Value(),
		ProbesSent: m.ProbesSent.Value(),
		SynAcks:    m.SynAcks.Value(),
		Rsts:       m.Rsts.Value(),
		Invalid:    m.Invalid.Value(),
		Duplicates: m.Duplicates.Value(),
	}
}

func TestSweepTelemetryCountersMatchStats(t *testing.T) {
	reg := telemetry.New()
	m := telemetry.NewSweepMetrics(reg, telemetry.L("origin", "test"))
	cfg := testConfig()
	cfg.Telemetry = m
	sink := &fakeSink{
		live:      map[ip.Addr]bool{a4(5): true, a4(100): true, a4(1023): true},
		closed:    map[ip.Addr]bool{a4(7): true},
		garbage:   map[ip.Addr]bool{a4(9): true},
		dropProbe: map[ip.Addr]uint8{a4(100): 1 << 1},
	}
	s, err := NewScanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(context.Background(), sink, func(Reply) {})
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepCounterValues(m); got != st {
		t.Errorf("telemetry counters %+v, want final stats %+v", got, st)
	}
	wantLost := st.ProbesSent - st.SynAcks - st.Rsts - st.Invalid
	if got := m.Lost.Value(); got != wantLost {
		t.Errorf("Lost = %d, want %d", got, wantLost)
	}
}

// TestTelemetryIsPureObserver proves enabling the sweep counters changes
// nothing the scan reports: identical Stats and an identical reply stream.
func TestTelemetryIsPureObserver(t *testing.T) {
	run := func(m *telemetry.SweepMetrics) (Stats, []Reply) {
		cfg := testConfig()
		cfg.Telemetry = m
		sink := &fakeSink{
			live:   map[ip.Addr]bool{a4(5): true, a4(100): true, a4(1023): true},
			closed: map[ip.Addr]bool{a4(7): true},
		}
		s, err := NewScanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var replies []Reply
		st, err := s.Run(context.Background(), sink, func(r Reply) { replies = append(replies, r) })
		if err != nil {
			t.Fatal(err)
		}
		return st, replies
	}
	stOff, repOff := run(nil)
	stOn, repOn := run(telemetry.NewSweepMetrics(telemetry.New()))
	if stOff != stOn {
		t.Errorf("stats differ: off %+v, on %+v", stOff, stOn)
	}
	if len(repOff) != len(repOn) {
		t.Fatalf("reply counts differ: %d vs %d", len(repOff), len(repOn))
	}
	for i := range repOff {
		if repOff[i] != repOn[i] {
			t.Errorf("reply %d differs: %+v vs %+v", i, repOff[i], repOn[i])
		}
	}
}

// TestSweepAllocations is the hot-path guard: the sweep inner loop must not
// allocate per probe, telemetry disabled or enabled. The whole-run budget
// covers the iterator, the reused SYN buffer's single growth, and (enabled
// only) the one statsFlusher — a handful of allocations for a 1024-address
// space, nothing proportional to probes sent.
func TestSweepAllocations(t *testing.T) {
	sink := sinkFunc(func(src ip.Addr, pkt []byte, tm time.Duration) []byte { return nil })
	mkRun := func(m *telemetry.SweepMetrics) func() {
		cfg := testConfig()
		cfg.Telemetry = m
		s, err := NewScanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := s.Run(context.Background(), sink, func(Reply) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocsNil := testing.AllocsPerRun(5, mkRun(nil))
	allocsOn := testing.AllocsPerRun(5, mkRun(telemetry.NewSweepMetrics(telemetry.New())))
	const budget = 8 // per full 1024-address run, not per probe
	if allocsNil > budget {
		t.Errorf("nil-telemetry run allocates %.0f, budget %d", allocsNil, budget)
	}
	if allocsOn > allocsNil+2 {
		t.Errorf("enabled-telemetry run allocates %.0f vs %.0f disabled — telemetry leaked into the hot path",
			allocsOn, allocsNil)
	}
}

// benchSweep is the shared body of the telemetry overhead benchmarks: a
// full sweep against a null sink, so the scanner's own work dominates and
// the telemetry delta is visible.
func benchSweep(b *testing.B, m *telemetry.SweepMetrics) {
	sink := sinkFunc(func(src ip.Addr, pkt []byte, tm time.Duration) []byte { return nil })
	cfg := testConfig()
	cfg.SpaceBits = 14
	cfg.Telemetry = m
	s, err := NewScanner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(context.Background(), sink, func(Reply) {}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepTelemetryNil(b *testing.B) {
	benchSweep(b, nil)
}

func BenchmarkSweepTelemetryEnabled(b *testing.B) {
	benchSweep(b, telemetry.NewSweepMetrics(telemetry.New()))
}

// benchSweepTrace measures the hierarchical tracing overhead on top of the
// counters: scan span, batch exemplar sampling, and span commit. The
// Nil/Enabled pair feeds `make bench-trace`, whose gate fails the build
// when the enabled run costs more than 5% over nil — the contract that
// tracing stays off the sweep's hot path.
func benchSweepTrace(b *testing.B, enabled bool) {
	sink := sinkFunc(func(src ip.Addr, pkt []byte, tm time.Duration) []byte { return nil })
	cfg := testConfig()
	cfg.SpaceBits = 14
	var reg *telemetry.Registry
	if enabled {
		reg = telemetry.New()
		cfg.Telemetry = telemetry.NewSweepMetrics(reg)
	}
	s, err := NewScanner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := reg.StartSpan("scan") // nil (inert) in the disabled variant
		s.SetTraceSpan(sp)
		if _, err := s.Run(context.Background(), sink, func(Reply) {}); err != nil {
			b.Fatal(err)
		}
		sp.End(nil)
	}
}

func BenchmarkSweepTraceNil(b *testing.B) {
	benchSweepTrace(b, false)
}

func BenchmarkSweepTraceEnabled(b *testing.B) {
	benchSweepTrace(b, true)
}
