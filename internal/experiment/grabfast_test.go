package experiment

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

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
	cfg.Telemetry = telemetry.New()
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
	for _, sp := range cfg.Telemetry.Spans() {
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

// TestGrabWorkerClockAccounting pins the grab stage's telemetry now that
// its one goroutine reads the clock once per host (a host's service ends
// where the next one's begins): every offered host is served exactly once —
// hosts offered, hosts done, queue-wait and service observations all equal
// the rows the study sealed, with queue wait measured from the end of the
// slot's PredialBatch — and the service time is time the stage actually
// had: no more than the run's wall time (a service interval measured from
// the wrong instant, such as the slot's start, overshoots that by orders of
// magnitude).
func TestGrabWorkerClockAccounting(t *testing.T) {
	reg := telemetry.New()
	cfg := grabPathConfig(1)
	cfg.Telemetry = reg
	st, err := NewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ds, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var rows uint64
	for _, o := range ds.Origins {
		for _, p := range cfg.Protocols {
			for trial := 0; trial < ds.Trials; trial++ {
				if sr := ds.Scan(o, p, trial); sr != nil {
					rows += uint64(sr.Len())
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("study sealed no rows")
	}
	if got := reg.CounterSum(telemetry.MetricGrabHostsDone); got != rows {
		t.Errorf("hosts done = %d, want the %d sealed rows", got, rows)
	}
	// The hosts gauge is raised slot by slot as replies reach the grabber;
	// at scan end it has caught up with hosts done (the progress line's
	// backlog is their difference).
	if got := reg.GaugeSum(telemetry.MetricGrabHosts); got != int64(rows) {
		t.Errorf("hosts offered = %d, want the %d sealed rows", got, rows)
	}
	counts, sums := map[string]uint64{}, map[string]float64{}
	for _, h := range reg.Snapshot().Histograms {
		counts[h.Name] += h.Count
		sums[h.Name] += h.Sum
	}
	for _, name := range []string{telemetry.MetricGrabQueueWait, telemetry.MetricGrabService} {
		if counts[name] != rows {
			t.Errorf("%s has %d observations, want one per sealed row (%d)", name, counts[name], rows)
		}
	}
	// Queue wait runs from the end of a slot's PredialBatch, so no host
	// waited longer than the run took.
	if wait := sums[telemetry.MetricGrabQueueWait]; wait < 0 || wait > float64(rows)*wall.Seconds() {
		t.Errorf("hosts queued for %.3f s in total, in a run of %v with %d hosts", wait, wall, rows)
	}
	if service := sums[telemetry.MetricGrabService]; service <= 0 || service > wall.Seconds() {
		t.Errorf("hosts were served for %.3f s in total, in a run of %v", service, wall)
	}
	// Eight workers seal one worker's bytes.
	if diff := ds.Diff(grabPathStudy(t, 8)); diff != "" {
		t.Errorf("parallel differs from serial: %s", diff)
	}
}
