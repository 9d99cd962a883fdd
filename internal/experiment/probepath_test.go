package experiment

import (
	"context"
	"errors"
	"testing"

	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
	"repro/internal/zmap"
)

// bytesOnly hides a sink's zmap.BatchProber and zmap.BlockRoutability
// capabilities, so the engine asks RoutedBatch about every target and probes
// the routed ones with real packets through Send.
func bytesOnly(inner zmap.PacketSink) zmap.PacketSink {
	return struct {
		zmap.PacketSink
		zmap.BatchRoutability
	}{inner, inner.(zmap.BatchRoutability)}
}

// TestStudyTypedProbePathMatchesPackets: a 2-origin × 3-protocol study swept
// through the fabric's directory prefilter and typed batch path seals the
// dataset the same study seals when every target is asked RoutedBatch and
// every probe is a packet, on one worker and on GOMAXPROCS.
func TestStudyTypedProbePathMatchesPackets(t *testing.T) {
	run := func(par int, wrap func(zmap.PacketSink) zmap.PacketSink) *results.Dataset {
		st, err := NewStudy(context.Background(), Config{
			WorldSpec:   world.Spec{Seed: 11, Scale: 0.00005},
			Trials:      2,
			Origins:     origin.Set{origin.US1, origin.US64},
			Parallelism: par,
			SinkWrapper: wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	for _, eng := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"pooled", 0}} {
		typed, packets := run(eng.par, nil), run(eng.par, bytesOnly)
		if typed.Len() != 2*len(proto.All())*2 {
			t.Fatalf("%s: %d scans, want 2 origins × 3 protocols × 2 trials", eng.name, typed.Len())
		}
		if diff := typed.Diff(packets); diff != "" {
			t.Errorf("%s: the typed probe path sealed a different dataset than packets through Send: %s", eng.name, diff)
		}
	}
}

// TestMultiProbeSweepStopsAtEightProbes: the sweep's ninth point would need
// a ninth bit in Reply.ProbeMask; it returns the scanner's ErrBadConfig
// after eight good points instead of a ninth wrong one.
func TestMultiProbeSweepStopsAtEightProbes(t *testing.T) {
	ctx := context.Background()
	st, err := NewStudy(ctx, Config{
		WorldSpec: world.Spec{Seed: 11, Scale: 0.00005}, Trials: 1,
		Protocols: []proto.Protocol{proto.HTTP},
		Origins:   origin.Set{origin.US1, origin.CEN},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	points, err := st.MultiProbeSweep(ctx, ds, origin.US1, proto.HTTP, 0, 9, 0)
	if !errors.Is(err, pipeline.ErrBadConfig) {
		t.Fatalf("MultiProbeSweep to 9 probes: err = %v, want ErrBadConfig", err)
	}
	if len(points) != 8 {
		t.Fatalf("%d points before the error, want 8", len(points))
	}
}
