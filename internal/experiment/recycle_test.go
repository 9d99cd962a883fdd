package experiment

// A grab stage's buffers are recycled from scan to scan (grabBufPool).
// These tests hold a study's dataset to what it is when the study runs
// alone, whatever stages, finished or stopped, ran before it, and pin the
// reuse itself.

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
	"repro/internal/zmap"
)

// recycleStudy is one study of the order-swap test: its config and the
// grab shape its stages are built with.
type recycleStudy struct {
	name  string
	cfg   Config
	shape grabShape
}

// run runs the study to completion and returns its dataset.
func (rs recycleStudy) run(t *testing.T) *results.Dataset {
	t.Helper()
	ctx := context.Background()
	st, err := NewStudy(ctx, rs.cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.grabShape = rs.shape
	ds, err := st.Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", rs.name, err)
	}
	return ds
}

// runCanceled runs the study and cancels it halfway through its first
// sweep (the sink hides its routability, so every target is a Send), when
// slots have been handed off and grabbed: the scan's stage is stopped with
// its buffers in use.
func (rs recycleStudy) runCanceled(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := rs.cfg
	var journal func() []telemetry.SpanRecord
	cfg.Telemetry, journal = journaled(t)
	st, err := NewStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.grabShape = rs.shape
	var armed atomic.Bool
	armed.Store(true)
	var sends atomic.Int64
	half := int64(st.World.SpaceSize()) * int64(st.sweepConfig(proto.HTTP, 0).Probes) / 2
	st.Config.SinkWrapper = func(inner zmap.PacketSink) zmap.PacketSink {
		return cancelSink{inner: inner, armed: &armed, sends: &sends, after: half, cancel: cancel}
	}
	_, err = st.Run(ctx)
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("canceled %s: err = %v, want ErrCanceled", rs.name, err)
	}
	if stage, ok := pipeline.InterruptedStage(err); !ok || stage != pipeline.StageSweep {
		t.Fatalf("canceled %s: interrupted stage %v (found %v), want sweep: the stop path did not run", rs.name, stage, ok)
	}
	if slots := stageAttrSum(journal(), "grab_slots"); slots == 0 {
		t.Fatalf("canceled %s: no slot was handed off before the cancel: the stage stopped empty", rs.name)
	}
}

// TestRecycledGrabBuffersChangeNoResult runs two small studies that differ
// in world size, grab shape and width, each alone first, then one after
// the other both ways with a study canceled mid-sweep (a stage stopped with
// full slots) between them. The canceled study has the second one's world
// and shape, so its stopped stages' buffers are the ones the second study
// can inherit. Every dataset must be Diff-equal to its study run alone.
// Under -race sync.Pool drops some sets, so there the scans mix recycled
// and fresh buffers.
func TestRecycledGrabBuffersChangeNoResult(t *testing.T) {
	small := recycleStudy{name: "small", shape: grabShape{slot: 16, ring: 2}, cfg: Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00003}, Trials: 2,
		Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:     origin.Set{origin.US1, origin.US64},
		Parallelism: 1,
	}}
	large := recycleStudy{name: "large", shape: grabShape{slot: 96, ring: 3}, cfg: Config{
		WorldSpec: world.Spec{Seed: 7, Scale: 0.0001}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP, proto.HTTPS},
		Origins:     origin.Set{origin.US1, origin.CEN, origin.US64},
		Parallelism: 2,
	}}
	canceled := large
	canceled.name, canceled.cfg.Parallelism = "large (canceled)", 1
	want := map[string]*results.Dataset{"small": small.run(t), "large": large.run(t)}
	for _, order := range [][2]recycleStudy{{small, large}, {large, small}} {
		for i, rs := range order {
			if i == 1 {
				canceled.runCanceled(t)
			}
			if diff := want[rs.name].Diff(rs.run(t)); diff != "" {
				t.Errorf("%s after %s: differs from the study run alone: %s", rs.name, order[0].name, diff)
			}
		}
	}
}

// TestSecondGrabStageReusesBuffers holds a stage's buffers to one
// allocation per shape, not one per scan: once a stage of the shape has
// been stopped, the next stage gets its very buffers back, and building it
// allocates less than building the first did by at least their size. At
// GOMAXPROCS 1, where the stage's goroutine returns the buffers to the pool
// the next stage takes them from.
func TestSecondGrabStageReusesBuffers(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool sheds entries under the race detector: buffers are not always recycled")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	st, err := NewStudy(ctx, Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00003}, Trials: 1,
		Protocols: []proto.Protocol{proto.HTTP},
		Origins:   origin.Set{origin.US1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A shape no other test uses, so the first stage misses the pool.
	shape := grabShape{slot: 97, ring: 3}
	st.grabShape = shape
	fab := referenceFabric(st, origin.US1, proto.HTTP, 0)
	stage := func() (*grabBufs, uint64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		g, err := st.newGrabStage(ctx, scanKey{origin.US1, proto.HTTP, 0}, 1, fab, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := g.grabBufs
		g.stop()
		runtime.ReadMemStats(&ms)
		return b, ms.TotalAlloc - before
	}
	first, fresh := stage()
	size := uint64(shape.ring*shape.slot)*uint64(unsafe.Sizeof(zmap.Reply{})) +
		uint64(shape.slot)*uint64(unsafe.Sizeof(results.HostRecord{})+unsafe.Sizeof(first.preDst[0])+unsafe.Sizeof(first.preT[0])+unsafe.Sizeof(first.pre[0]))
	for i := range 3 {
		b, recycled := stage()
		if b != first {
			t.Fatalf("stage %d got new buffers, not the first stage's", i+2)
		}
		if recycled+size > fresh {
			t.Errorf("stage %d allocates %d B, the first %d B: want at least the buffers' %d B less", i+2, recycled, fresh, size)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
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
