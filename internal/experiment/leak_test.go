package experiment

import (
	"context"
	"errors"
	"net"
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
// per 4,096-host grab window, sixteen grab workers serving thousands of
// virtual connections inline — leaves no goroutines behind.
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

// TestNoGoroutineLeakParallel is the same check against the parallel engine:
// the scan worker pool, per-scan sweep shards, and batched grab workers must
// all drain when the study completes.
func TestNoGoroutineLeakParallel(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := NewStudy(context.Background(), Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 4, ScanShards: 2,
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

// TestNoGoroutineLeakCancelMidSweep cancels the study while a sharded sweep
// is mid-space under the parallel engine: the scan worker pool, the sweep
// shard goroutines, and any live hostsim servers must all drain.
func TestNoGoroutineLeakCancelMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sends atomic.Int64
	st, err := NewStudy(ctx, Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 4, ScanShards: 2,
		SinkWrapper: func(inner zmap.PacketSink) zmap.PacketSink {
			return leakCancelSink{inner: inner, sends: &sends, after: 200, cancel: cancel}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(ctx); !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	waitNoLeak(t, before, "sweep shards or workers after cancellation")
}

// leakCancelDialer cancels the run after a fixed number of L7 connections.
type leakCancelDialer struct {
	zgrab.FastDialer
	conns  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c leakCancelDialer) ConnectFast(dst ip.Addr, port uint16, v zgrab.DialVerdict) net.Conn {
	if c.conns.Add(1) == c.after {
		c.cancel()
	}
	return c.FastDialer.ConnectFast(dst, port, v)
}

// TestNoGoroutineLeakCancelMidGrab cancels the study while the grab worker
// pool is mid-window, from inside a worker's connection setup: every grab
// worker must terminate and the interrupted window is never appended.
func TestNoGoroutineLeakCancelMidGrab(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var conns atomic.Int64
	st, err := NewStudy(ctx, Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 1,
		DialWrapper: func(inner zgrab.FastDialer) zgrab.FastDialer {
			return leakCancelDialer{FastDialer: inner, conns: &conns, after: 5, cancel: cancel}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Run(ctx)
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stage, ok := pipeline.InterruptedStage(err); !ok || stage != pipeline.StageGrab {
		t.Errorf("interrupted stage = %v (found=%v), want grab", stage, ok)
	}
	waitNoLeak(t, before, "grab workers after cancellation")
}
