package experiment

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// grabPathConfig is the equivalence-shaped study: mixed IDS-relevant
// origins, HTTP+SSH so both banner families and the MaxStartups retry path
// are exercised, Carinet's trial-0 edge. Retries > 0 makes the per-attempt
// Predial re-evaluation load-bearing.
func grabPathConfig(par int) Config {
	return Config{
		WorldSpec:      world.Spec{Seed: 11, Scale: 0.00005},
		Trials:         2,
		Protocols:      []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:        origin.Set{origin.US1, origin.US64, origin.CEN},
		IncludeCarinet: true,
		Retries:        2,
		Parallelism:    par,
	}
}

func grabPathStudy(t *testing.T, par int) *results.Dataset {
	t.Helper()
	st, err := NewStudy(context.Background(), grabPathConfig(par))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// referenceFabric builds a second fabric over the study's scenario — the
// same models and the same live detectors the engine's fabric for
// (o, p, trial) is given — for driving a scan's layers by hand.
func referenceFabric(st *Study, o origin.ID, p proto.Protocol, trial int) *fabric.Fabric {
	return fabric.New(&fabric.Config{
		World:      st.World,
		Engine:     st.Scenario.Engine,
		IDSes:      policy.Detectors(st.Scenario.IDSes),
		Loss:       st.Scenario.Loss,
		Outages:    st.Scenario.Outages[p],
		Churn:      st.Scenario.Churn,
		NumOrigins: len(st.Config.Origins),
		Hosts:      st.Scenario.Hosts,
	}, st.originRecord(o), trial)
}

// countingDialer counts the connections the grab stage materializes.
type countingDialer struct {
	zgrab.Dialer
	n *atomic.Int64
}

func (c countingDialer) Handshake(dst ip.Addr, p proto.Protocol, v zgrab.DialVerdict) (zgrab.FailMode, string) {
	c.n.Add(1)
	return c.Dialer.Handshake(dst, p, v)
}

// TestDialWrapperObservesEveryConnection pins the wrapper seam: the engine
// drives the wrapped dialer, so a wrapper sees one Handshake per accepted
// connection (served, reset or half-closed), and a wrapped run seals the
// dataset an unwrapped one does.
func TestDialWrapperObservesEveryConnection(t *testing.T) {
	cfg := Config{
		WorldSpec: world.Spec{Seed: 11, Scale: 0.00005},
		Trials:    1,
		Protocols: []proto.Protocol{proto.HTTP},
		Origins:   origin.Set{origin.US1},
	}
	plain, err := NewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var connects atomic.Int64
	var journal func() []telemetry.SpanRecord
	cfg.Telemetry, journal = journaled(t)
	cfg.DialWrapper = func(d zgrab.Dialer) zgrab.Dialer {
		return countingDialer{Dialer: d, n: &connects}
	}
	wrapped, err := NewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := wrapped.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(ds); diff != "" {
		t.Errorf("wrapped run differs from unwrapped run: %s", diff)
	}
	// conns_opened counts served connections only; reset and half-closed
	// ones go through Handshake too.
	opened := int64(-1)
	for _, sp := range journal() {
		for _, a := range sp.Attrs {
			if a.Key == "conns_opened" {
				opened = a.Value
			}
		}
	}
	if opened <= 0 {
		t.Fatalf("conns_opened = %d on the seal span, want > 0", opened)
	}
	if got := connects.Load(); got < opened {
		t.Errorf("wrapper saw %d Handshake calls, fabric opened %d served connections", got, opened)
	}
}

// TestGrabCountersMatchDataset holds the grab path's counters to the
// dataset they describe. Every offered host is grabbed exactly once: hosts
// offered and hosts done equal the sealed rows. Every connection attempt is
// counted once: dials are the rows' attempts, retries the attempts after a
// row's first, handshakes the L7 rows, and every other attempt failed in
// exactly one mode. With no retry budget each attempt is its row's last, so
// each mode's count is the rows that failed that way.
func TestGrabCountersMatchDataset(t *testing.T) {
	var serial *results.Dataset
	for _, retries := range []int{2, 0} {
		reg := telemetry.New()
		cfg := grabPathConfig(1)
		cfg.Retries = retries
		cfg.Telemetry = reg
		st, err := NewStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if retries == 2 {
			serial = ds
		}
		var rows, attempts, retried, l7 uint64
		fails := map[zgrab.FailMode]uint64{}
		for _, o := range ds.Origins {
			for _, p := range cfg.Protocols {
				for trial := 0; trial < ds.Trials; trial++ {
					sr := ds.Scan(o, p, trial)
					if sr == nil {
						continue
					}
					sr.Each(func(r results.HostRecord) {
						rows++
						if r.L7 {
							l7++
						}
						if r.ProbeMask != 0 {
							attempts += uint64(r.Attempts)
							retried += uint64(r.Attempts - 1)
							fails[r.Fail]++
						}
					})
				}
			}
		}
		if rows == 0 || l7 == 0 {
			t.Fatalf("retries %d: study sealed %d rows, %d of them L7", retries, rows, l7)
		}
		if retries > 0 && retried == 0 {
			t.Fatalf("retries %d: no row retried, the retry counters go untested", retries)
		}
		if got := reg.CounterSum(telemetry.MetricGrabHostsDone); got != rows {
			t.Errorf("retries %d: hosts done = %d, want the %d sealed rows", retries, got, rows)
		}
		// The hosts gauge is raised slot by slot as replies reach the
		// grabber; at scan end it has caught up with hosts done (the
		// progress line's backlog is their difference).
		if got := reg.GaugeSum(telemetry.MetricGrabHosts); got != int64(rows) {
			t.Errorf("retries %d: hosts offered = %d, want the %d sealed rows", retries, got, rows)
		}
		dials, handshakes := reg.CounterSum(telemetry.MetricGrabDials), reg.CounterSum(telemetry.MetricGrabHandshakes)
		for _, c := range []struct {
			name      string
			got, want uint64
		}{
			{"dials", dials, attempts},
			{"retries", reg.CounterSum(telemetry.MetricGrabRetries), retried},
			{"handshakes", handshakes, l7},
			{"failures", reg.CounterSum(telemetry.MetricGrabFails), dials - handshakes},
		} {
			if c.got != c.want {
				t.Errorf("retries %d: %s = %d, want %d", retries, c.name, c.got, c.want)
			}
		}
		if retries > 0 {
			continue
		}
		snap := reg.Snapshot()
		for f := zgrab.FailTimeout; f <= zgrab.FailProto; f++ {
			var got uint64
			for _, c := range snap.Counters {
				if c.Name == telemetry.MetricGrabFails && strings.Contains(c.Labels, `mode="`+f.String()+`"`) {
					got += uint64(c.Value)
				}
			}
			if got != fails[f] {
				t.Errorf("retries 0: failures{mode=%q} = %d, want the %d rows that failed so", f, got, fails[f])
			}
		}
	}
	// Eight workers seal one worker's bytes.
	if diff := serial.Diff(grabPathStudy(t, 8)); diff != "" {
		t.Errorf("parallel differs from serial: %s", diff)
	}
}
