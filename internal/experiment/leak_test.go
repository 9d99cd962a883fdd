package experiment

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/world"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

// waitNoLeak polls until the goroutine count returns to the pre-test
// baseline (plus scheduler slack) or the deadline passes.
func waitNoLeak(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Errorf("goroutines before=%d after=%d: leaked %s", before, runtime.NumGoroutine(), what)
}

// TestNoGoroutineLeak verifies that a complete study — a scan worker and,
// per scan, a grab goroutine serving thousands of virtual connections
// inline — leaves no goroutines behind.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := NewStudy(context.Background(), Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols: []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:   origin.Set{origin.US1, origin.CEN},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitNoLeak(t, before, "workers")
}

// TestNoGoroutineLeakParallel is the same check with four workers: the scan
// worker pool and the per-scan grab goroutines must all drain when the study
// completes.
func TestNoGoroutineLeakParallel(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := NewStudy(context.Background(), Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitNoLeak(t, before, "workers")
}

// leakCancelSink cancels the run after a fixed number of probe sends.
type leakCancelSink struct {
	inner  zmap.PacketSink
	sends  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c leakCancelSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	if c.sends.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Send(src, pkt, t)
}

// TestNoGoroutineLeakCancelMidSweep cancels the study while its first sweeps
// are mid-space with eight workers, two of them holding the origins' second
// scans: a worker waiting on a canceled predecessor must return, and the
// worker pool, the grab goroutines and any live hostsim servers must all
// drain.
func TestNoGoroutineLeakCancelMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sends atomic.Int64
	st, err := NewStudy(ctx, Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 8,
		SinkWrapper: func(inner zmap.PacketSink) zmap.PacketSink {
			return leakCancelSink{inner: inner, sends: &sends, after: 200, cancel: cancel}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	returned := make(chan error, 1)
	go func() {
		_, err := st.Run(ctx)
		returned <- err
	}()
	select {
	case err = <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled study did not return: a worker is still waiting on its predecessor")
	}
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	waitNoLeak(t, before, "workers after cancellation")
}

// leakCancelDialer cancels the run at the after-th L7 connection opened
// while armed (always, with no armed flag).
type leakCancelDialer struct {
	zgrab.Dialer
	armed  *atomic.Bool
	conns  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c leakCancelDialer) Handshake(dst ip.Addr, p proto.Protocol, v zgrab.DialVerdict) (zgrab.FailMode, string) {
	if (c.armed == nil || c.armed.Load()) && c.conns.Add(1) == c.after {
		c.cancel()
	}
	return c.Dialer.Handshake(dst, p, v)
}

// armInGrab returns hooks that keep armed set while a scan's Grab stage is
// open: the walk is over, and what the stage dials is the drained ring, the
// partial last slot and the held-back tail.
func armInGrab(armed *atomic.Bool) pipeline.Hooks {
	return pipeline.Hooks{
		Before: func(_ context.Context, s pipeline.Stage) {
			if s == pipeline.StageGrab {
				armed.Store(true)
			}
		},
		After: func(_ context.Context, s pipeline.Stage, _ error) {
			if s == pipeline.StageGrab {
				armed.Store(false)
			}
		},
	}
}

// TestNoGoroutineLeakCancelMidGrab cancels the study from inside the grab
// stage's connection setup, in both places a grab can be: in the Grab
// stage, while the last slots and the tail drain (the interruption is a grab
// one), and under the walk (the cancel is observed by the sweep, at its next
// batch boundary, and the interruption is a sweep one — the stage whose hook
// was open). Either way the stage's goroutine must terminate, within a
// bounded time, and the interrupted slot is never appended.
func TestNoGoroutineLeakCancelMidGrab(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stage pipeline.Stage
	}{{"tail", pipeline.StageGrab}, {"during-walk", pipeline.StageSweep}} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var conns atomic.Int64
			var armed *atomic.Bool
			cfg := Config{
				WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
				Protocols:   []proto.Protocol{proto.HTTP},
				Origins:     origin.Set{origin.US1, origin.CEN},
				Parallelism: 1,
			}
			shape := grabShape{}
			if tc.stage == pipeline.StageGrab {
				armed = new(atomic.Bool)
				cfg.Hooks = armInGrab(armed)
			} else {
				// Slots small enough that the walk hands several off (and
				// then blocks on the ring) long before it ends.
				shape = grabShape{slot: 16, ring: 2}
			}
			cfg.DialWrapper = func(inner zgrab.Dialer) zgrab.Dialer {
				return leakCancelDialer{Dialer: inner, armed: armed, conns: &conns, after: 5, cancel: cancel}
			}
			st, err := NewStudy(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st.grabShape = shape
			returned := make(chan error, 1)
			go func() {
				_, err := st.Run(ctx)
				returned <- err
			}()
			select {
			case err = <-returned:
			case <-time.After(30 * time.Second):
				t.Fatal("canceled study did not return: the sweep is blocked on the ring or a worker on its barrier")
			}
			if !errors.Is(err, pipeline.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if stage, ok := pipeline.InterruptedStage(err); !ok || stage != tc.stage {
				t.Errorf("interrupted stage = %v (found=%v), want %v", stage, ok, tc.stage)
			}
			waitNoLeak(t, before, "grab goroutine after cancellation")
		})
	}
}
