package experiment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

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

// TestSpillCancelMidGrabSealsPartialDataset preserves PR 3's cancellation
// contract under the spill store: a cancellation raised from the grab stage
// (after the first scan sealed — and spilled — normally) discards the
// interrupted scan's segments, keeps exactly the previously sealed scans in
// the dataset, and the flushed partial dataset round-trips through the JSON
// codec. No segment file may outlive the run. Two cases, by where the
// grab is when it cancels: in the second scan's Grab stage (drained ring
// and tail), and under its walk, late enough that the interrupted store has
// already spilled — there the sweep observes the cancel and the
// interruption is a sweep one.
func TestSpillCancelMidGrabSealsPartialDataset(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stage pipeline.Stage
		after int64
	}{{"tail", pipeline.StageGrab, 5}, {"during-walk", pipeline.StageSweep, 600}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dir := t.TempDir()
			var sealed, armed atomic.Bool
			var conns, scans atomic.Int64
			filesAtCancel := -1
			inGrab := armInGrab(&armed)
			cancelAfterSeal := func() {
				for !sealed.Load() {
					runtime.Gosched()
				}
				filesAtCancel = countSpillFiles(t, dir)
				cancel()
			}
			cfg := Config{
				WorldSpec: world.Spec{Seed: 6, Scale: 0.00005}, Trials: 1,
				Protocols:   []proto.Protocol{proto.HTTP},
				Origins:     origin.Set{origin.US1, origin.CEN},
				Parallelism: 1,
				SpillDir:    dir,
				MemBudget:   spillStudyBudget(t),
				Hooks: pipeline.Hooks{
					Before: func(ctx context.Context, stage pipeline.Stage) {
						if tc.stage == pipeline.StageGrab && sealed.Load() {
							inGrab.Before(ctx, stage)
						}
					},
					After: func(_ context.Context, stage pipeline.Stage, err error) {
						if stage == pipeline.StageSeal && err == nil {
							// First scan committed: cancel in the next one.
							sealed.Store(true)
						}
					},
				},
				DialWrapper: func(inner zgrab.Dialer) zgrab.Dialer {
					armed, conns := &armed, &conns
					if tc.stage == pipeline.StageSweep {
						// The second scan may start walking before the
						// first has sealed: its dialer counts its own
						// connections from its start, and the cancel
						// waits for that seal.
						armed, conns = new(atomic.Bool), new(atomic.Int64)
						armed.Store(scans.Add(1) == 2)
					}
					return leakCancelDialer{Dialer: inner, armed: armed, conns: conns, after: tc.after, cancel: cancelAfterSeal}
				},
			}
			st, err := NewStudy(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stage == pipeline.StageSweep {
				// Slots well below the 8 KiB budget's ≈200 rows, so the
				// store flushes between hand-offs while the walk goes on.
				st.grabShape = grabShape{slot: 64, ring: 2}
			}
			ds, err := st.Run(ctx)
			if !errors.Is(err, pipeline.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if stage, ok := pipeline.InterruptedStage(err); !ok || stage != tc.stage {
				t.Errorf("interrupted stage = %v (found=%v), want %v", stage, ok, tc.stage)
			}
			if filesAtCancel <= 0 {
				t.Errorf("%d segment files on disk when the cancel was raised: the interrupted scan had nothing to discard", filesAtCancel)
			}
			if ds == nil {
				t.Fatal("canceled run returned no dataset")
			}
			if ds.Len() != 1 {
				t.Fatalf("partial dataset has %d scans, want 1", ds.Len())
			}
			sealedScan := ds.Scan(origin.US1, proto.HTTP, 0)
			if sealedScan == nil {
				t.Fatal("the scan sealed before cancellation is missing from the dataset")
			}
			if sealedScan.SpillStats().Segments == 0 {
				t.Fatal("test did not exercise spilling: the sealed scan never flushed a segment")
			}
			// The partial dataset must be flushable and re-readable — the
			// SIGINT path in cmd/originscan writes exactly this.
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
		})
	}
}
