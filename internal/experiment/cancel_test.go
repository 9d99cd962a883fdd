package experiment

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/world"
	"repro/internal/zmap"
)

// cancelSink counts probe sends and cancels the run once armed and the
// send budget is spent — a deterministic way to interrupt a sweep mid-space.
// A sink with a gate holds each Send until the gate is closed.
type cancelSink struct {
	inner  zmap.PacketSink
	armed  *atomic.Bool
	sends  *atomic.Int64
	after  int64
	cancel context.CancelFunc
	gate   <-chan struct{}
}

func (c cancelSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	if c.gate != nil {
		<-c.gate
	}
	if c.armed.Load() && c.sends.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Send(src, pkt, t)
}

// TestCancelMidSweepSealsPartialDataset is the lifecycle acceptance test:
// canceling the context during the second scan's sweep stops the run with
// an ErrCanceled chain naming the interrupted (origin, proto, trial) and
// stage, while the dataset keeps every scan sealed before the cancellation.
// The first scan's tail runs on its grab goroutine while the second scan
// sweeps, so the second scan's sink holds its probes until the first scan's
// Seal has armed the cancel (or a stage has failed): otherwise, on one P,
// the whole second sweep can run before that Seal.
func TestCancelMidSweepSealsPartialDataset(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var armed atomic.Bool
	var sends atomic.Int64
	var sinks atomic.Int32
	sealed := make(chan struct{})
	var release sync.Once
	cfg := Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 1,
		Hooks: pipeline.Hooks{
			After: func(_ context.Context, stage pipeline.Stage, err error) {
				if stage == pipeline.StageSeal && err == nil {
					// First scan sealed: cancel during the next sweep.
					armed.Store(true)
				}
				if stage == pipeline.StageSeal || err != nil {
					release.Do(func() { close(sealed) })
				}
			},
		},
		SinkWrapper: func(inner zmap.PacketSink) zmap.PacketSink {
			c := cancelSink{inner: inner, armed: &armed, sends: &sends, after: 64, cancel: cancel}
			if sinks.Add(1) == 2 {
				c.gate = sealed
			}
			return c
		},
	}
	st, err := NewStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Run(ctx)
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var serr *pipeline.ScanError
	if !errors.As(err, &serr) {
		t.Fatalf("err %v carries no ScanError", err)
	}
	if serr.Origin != origin.CEN || serr.Proto != proto.HTTP || serr.Trial != 0 {
		t.Errorf("interrupted tuple = %v/%v/%d, want CEN/http/0", serr.Origin, serr.Proto, serr.Trial)
	}
	if stage, ok := pipeline.InterruptedStage(err); !ok || stage != pipeline.StageSweep {
		t.Errorf("interrupted stage = %v (found=%v), want sweep", stage, ok)
	}
	if ds == nil {
		t.Fatal("canceled run returned no dataset")
	}
	if ds.Len() != 1 {
		t.Fatalf("partial dataset has %d scans, want 1", ds.Len())
	}
	if ds.Scan(origin.US1, proto.HTTP, 0) == nil {
		t.Error("the scan sealed before cancellation is missing from the dataset")
	}
}

// TestCancelParallelRunReturnsPartial exercises the same contract on the
// parallel engine: completed scans are sealed into the returned dataset and
// the error matches ErrCanceled.
func TestCancelParallelRunReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sealed atomic.Int64
	cfg := Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 2,
		Protocols:   []proto.Protocol{proto.HTTP},
		Origins:     origin.Set{origin.US1, origin.US64, origin.CEN},
		Parallelism: 2,
		Hooks: pipeline.Hooks{
			After: func(_ context.Context, stage pipeline.Stage, err error) {
				if stage == pipeline.StageSeal && err == nil && sealed.Add(1) == 2 {
					cancel()
				}
			},
		},
	}
	st, err := NewStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Run(ctx)
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ds == nil {
		t.Fatal("canceled run returned no dataset")
	}
	if ds.Len() < 2 {
		t.Errorf("partial dataset has %d scans, want >= 2 sealed before cancel", ds.Len())
	}
	if ds.Len() == 6 {
		t.Error("all scans completed: cancellation did not interrupt the run")
	}
}

// TestUncanceledRunIdenticalUnderLiveContext verifies the determinism
// contract: a run under a cancelable-but-never-canceled context is
// bit-identical to one under the background context (the cancellation
// checks must be pure reads).
func TestUncanceledRunIdenticalUnderLiveContext(t *testing.T) {
	run := func(ctx context.Context) *Study {
		st, err := NewStudy(ctx, Config{
			WorldSpec: world.Spec{Seed: 11, Scale: 0.00003}, Trials: 1,
			Protocols: []proto.Protocol{proto.HTTP},
			Origins:   origin.Set{origin.US1, origin.CEN},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	bg := run(context.Background())
	dsBG, err := bg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := run(ctx)
	dsLive, err := live.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if diff := dsBG.Diff(dsLive); diff != "" {
		t.Errorf("live-context run differs from background run: %s", diff)
	}
}
