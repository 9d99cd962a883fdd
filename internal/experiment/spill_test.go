package experiment

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// spillStudyBudget is the adversarially tiny study budget the differential
// runs under (every scan spills constantly); the CI spill job overrides it
// down to 1 byte via RESULTS_SPILL_BUDGET.
func spillStudyBudget(t *testing.T) int64 {
	if v := os.Getenv("RESULTS_SPILL_BUDGET"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("RESULTS_SPILL_BUDGET=%q: %v", v, err)
		}
		return b
	}
	return 8 << 10
}

// countSpillFiles counts regular files under the spill dir — nonzero after
// a run means leaked segments.
func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	return n
}

// TestSpillStudyMatchesMemStudy runs the same study three ways — in-memory,
// spill-backed serial under a tiny budget, and spill-backed parallel — and
// requires record-identical datasets and byte-identical JSON: the
// acceptance criterion that the store strategy is invisible in the sealed
// output.
func TestSpillStudyMatchesMemStudy(t *testing.T) {
	base := Config{
		WorldSpec: world.Spec{Seed: 9, Scale: 0.00005}, Trials: 2,
		Protocols: []proto.Protocol{proto.HTTP, proto.SSH},
		Origins:   origin.Set{origin.US1, origin.CEN},
	}
	run := func(t *testing.T, cfg Config) *results.Dataset {
		t.Helper()
		st, err := NewStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	encode := func(t *testing.T, ds *results.Dataset) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := ds.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	memCfg := base
	memCfg.Parallelism = 1
	mem := run(t, memCfg)
	memJSON := encode(t, mem)

	budget := spillStudyBudget(t)
	for _, tc := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := base
			cfg.Parallelism = tc.par
			cfg.SpillDir = dir
			// MemBudget is the whole-study budget; split across tc.par
			// in-flight scans each store gets budget/par.
			cfg.MemBudget = budget * int64(tc.par)
			ds := run(t, cfg)
			if diff := mem.Diff(ds); diff != "" {
				t.Fatalf("spill dataset differs from memory dataset: %s", diff)
			}
			if got := encode(t, ds); !bytes.Equal(got, memJSON) {
				t.Fatalf("spill JSON differs from memory JSON (%d vs %d bytes)", len(got), len(memJSON))
			}
			if n := countSpillFiles(t, dir); n != 0 {
				t.Fatalf("%d segment files leaked after the study", n)
			}
		})
	}
}

// spillCancelDialer cancels the run after a fixed number of L7 connections
// once armed — the deterministic stand-in for SIGINT landing mid-grab.
type spillCancelDialer struct {
	zgrab.FastDialer
	armed  *atomic.Bool
	conns  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c spillCancelDialer) ConnectFast(dst ip.Addr, port uint16, v zgrab.DialVerdict) net.Conn {
	if c.armed.Load() && c.conns.Add(1) == c.after {
		c.cancel()
	}
	return c.FastDialer.ConnectFast(dst, port, v)
}

// TestSpillCancelMidGrabSealsPartialDataset preserves PR 3's cancellation
// contract under the spill store: a cancellation landing mid-grab (after
// the first scan sealed — and spilled — normally) discards the interrupted
// scan's segments, keeps every previously sealed scan in the dataset, and
// the flushed partial dataset round-trips through the JSON codec. No
// segment file may outlive the run.
func TestSpillCancelMidGrabSealsPartialDataset(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	var armed atomic.Bool
	var conns atomic.Int64
	cfg := Config{
		WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
		Protocols:   []proto.Protocol{proto.HTTP},
		Origins:     origin.Set{origin.US1, origin.CEN},
		Parallelism: 1,
		SpillDir:    dir,
		MemBudget:   spillStudyBudget(t),
		Hooks: pipeline.Hooks{
			After: func(_ context.Context, stage pipeline.Stage, err error) {
				if stage == pipeline.StageSeal && err == nil {
					armed.Store(true) // first scan committed: cancel in the next grab
				}
			},
		},
		DialWrapper: func(inner zgrab.FastDialer) zgrab.FastDialer {
			return spillCancelDialer{FastDialer: inner, armed: &armed, conns: &conns, after: 5, cancel: cancel}
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
	if stage, ok := pipeline.InterruptedStage(err); !ok || stage != pipeline.StageGrab {
		t.Errorf("interrupted stage = %v (found=%v), want grab", stage, ok)
	}
	if ds == nil {
		t.Fatal("canceled run returned no dataset")
	}
	if ds.Len() != 1 {
		t.Fatalf("partial dataset has %d scans, want 1", ds.Len())
	}
	sealed := ds.Scan(origin.US1, proto.HTTP, 0)
	if sealed == nil {
		t.Fatal("the scan sealed before cancellation is missing from the dataset")
	}
	if sealed.SpillStats().Segments == 0 {
		t.Fatal("test did not exercise spilling: the sealed scan never flushed a segment")
	}
	// The partial dataset must be flushable and re-readable — the SIGINT
	// path in cmd/originscan writes exactly this.
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatalf("flushing partial dataset: %v", err)
	}
	back, err := results.ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading partial dataset: %v", err)
	}
	if diff := ds.Diff(back); diff != "" {
		t.Fatalf("partial dataset did not round-trip: %s", diff)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("%d segment files leaked (the interrupted scan's segments must be discarded)", n)
	}
}
