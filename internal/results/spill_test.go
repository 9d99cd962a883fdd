package results

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
)

// spillTestBudgets are the adversarial thresholds the differential runs:
// 1 byte (every Add flushes a one-row segment, maximizing run count and
// forcing hierarchical merges), a threshold smaller than one AddBatch (so
// flushes land mid-batch), a frame-ish threshold, and one large enough to
// never spill (the spill store must degrade to the memory path). The
// RESULTS_SPILL_BUDGET env knob (used by the CI spill job) appends an
// extra threshold.
func spillTestBudgets(t *testing.T) []int64 {
	budgets := []int64{1, 4 * spillRowBytes, 64 << 10, 1 << 40}
	if v := os.Getenv("RESULTS_SPILL_BUDGET"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("RESULTS_SPILL_BUDGET=%q: %v", v, err)
		}
		budgets = append(budgets, b)
	}
	return budgets
}

// sealedJSON wraps one scan in a dataset and returns its WriteJSON bytes —
// the byte-identity oracle the golden dataset also pins.
func sealedJSON(t *testing.T, s *ScanResult) []byte {
	t.Helper()
	d := NewDataset(origin.Set{s.Origin}, s.Trial+1)
	if err := d.Put(s); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// countFiles walks dir counting regular files (leaked segments).
func countFiles(t *testing.T, dir string) int {
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

// spillRandRecord widens randRecord's address pool so runs hold a mix of
// unique and duplicated hosts, and occasionally grows the banner past the
// tiny-budget thresholds so flush boundaries land inside banner-heavy rows.
func spillRandRecord(rng *rand.Rand) HostRecord {
	r := randRecord(rng)
	r.Addr = ip.AddrFrom4(uint32(rng.Intn(2048)))
	if rng.Intn(16) == 0 {
		r.Addr = ip.AddrFrom4(uint32(rng.Intn(8))) // heavy-duplicate pocket
	}
	if r.L7 && rng.Intn(8) == 0 {
		r.Banner = strings.Repeat("banner-", 1+rng.Intn(40))
	}
	return r
}

// TestSpillDifferential is the determinism proof in test form: identical
// record streams through the in-memory store and spill stores at every
// adversarial threshold must produce an empty DiffAgainst, identical
// sealed JSON bytes, identical SealStats, and no leftover segment files.
// The stream interleaves Add, AddBatch (larger than the tiny thresholds,
// so spills trigger mid-batch), and mid-stream Seal (forcing merge →
// re-open → re-spill cycles).
func TestSpillDifferential(t *testing.T) {
	budgets := spillTestBudgets(t)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// One scripted random stream per seed, replayed into every store.
		type op struct {
			batch []HostRecord // nil = Seal
		}
		var script []op
		nops := 20 + rng.Intn(40)
		for i := 0; i < nops; i++ {
			switch rng.Intn(8) {
			case 0:
				script = append(script, op{}) // mid-stream Seal
			case 1, 2, 3:
				batch := make([]HostRecord, 1+rng.Intn(200))
				for j := range batch {
					batch[j] = spillRandRecord(rng)
				}
				script = append(script, op{batch: batch})
			default:
				script = append(script, op{batch: []HostRecord{spillRandRecord(rng)}})
			}
		}
		stats := [5]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}

		run := func(s *ScanResult) {
			for _, o := range script {
				if o.batch == nil {
					s.Seal()
					continue
				}
				if len(o.batch) == 1 {
					s.Add(o.batch[0])
				} else {
					s.AddBatch(o.batch)
				}
			}
			s.Targets, s.ProbesSent, s.SynAcks, s.Rsts, s.Invalid =
				stats[0], stats[1], stats[2], stats[3], stats[4]
		}

		mem := NewScanResult(origin.US1, proto.HTTP, 0)
		run(mem)
		wantJSON := sealedJSON(t, mem)
		wantRows, wantDeduped := mem.SealStats()

		for _, budget := range budgets {
			dir := t.TempDir()
			sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{Dir: dir, Budget: budget})
			if err != nil {
				t.Fatalf("seed %d budget %d: %v", seed, budget, err)
			}
			run(sp)
			if err := sp.SealErr(); err != nil {
				t.Fatalf("seed %d budget %d: SealErr: %v", seed, budget, err)
			}
			if diff := mem.DiffAgainst(sp); diff != "" {
				t.Fatalf("seed %d budget %d: mem vs spill: %s", seed, budget, diff)
			}
			if diff := sp.DiffAgainst(mem); diff != "" {
				t.Fatalf("seed %d budget %d: spill vs mem: %s", seed, budget, diff)
			}
			if got := sealedJSON(t, sp); !bytes.Equal(got, wantJSON) {
				t.Fatalf("seed %d budget %d: sealed JSON differs (%d vs %d bytes)",
					seed, budget, len(got), len(wantJSON))
			}
			rows, deduped := sp.SealStats()
			if rows != wantRows || deduped != wantDeduped {
				t.Fatalf("seed %d budget %d: SealStats=(%d,%d) want (%d,%d)",
					seed, budget, rows, deduped, wantRows, wantDeduped)
			}
			if n := countFiles(t, dir); n != 0 {
				t.Fatalf("seed %d budget %d: %d segment files leaked after seal", seed, budget, n)
			}
			st := sp.SpillStats()
			if budget == 1 && st.Segments == 0 {
				t.Fatalf("seed %d: threshold-1 store never spilled", seed)
			}
			if budget == 1<<40 && st.Segments != 0 {
				t.Fatalf("seed %d: huge-threshold store spilled %d segments", seed, st.Segments)
			}
			if st.Segments > 0 && st.SpilledBytes == 0 {
				t.Fatalf("seed %d budget %d: segments without bytes", seed, budget)
			}
		}
	}
}

// TestSpillHierarchicalMerge pins the fan-in cap path: more runs than
// spillMergeFanIn must merge in multiple passes and still match the
// memory store.
func TestSpillHierarchicalMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mem := NewScanResult(origin.DE, proto.SSH, 2)
	sp, err := NewSpilledScanResult(origin.DE, proto.SSH, 2, 0, SpillConfig{Dir: t.TempDir(), Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Budget 1 flushes a segment per Add: 3×fan-in Adds → 3×fan-in runs.
	for i := 0; i < 3*spillMergeFanIn; i++ {
		r := spillRandRecord(rng)
		mem.Add(r)
		sp.Add(r)
	}
	if err := sp.SealErr(); err != nil {
		t.Fatalf("SealErr: %v", err)
	}
	st := sp.SpillStats()
	if st.MergePasses < 2 {
		t.Fatalf("expected hierarchical merge, got %d pass(es) over %d segments",
			st.MergePasses, st.Segments)
	}
	if st.MergeFanIn > spillMergeFanIn {
		t.Fatalf("final fan-in %d exceeds cap %d", st.MergeFanIn, spillMergeFanIn)
	}
	if diff := mem.DiffAgainst(sp); diff != "" {
		t.Fatalf("hierarchical merge diverged: %s", diff)
	}
}

// TestSpillDiscard asserts an abandoned result deletes its segments.
func TestSpillDiscard(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{Dir: dir, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 32; i++ {
		sp.Add(spillRandRecord(rng))
	}
	if n := countFiles(t, dir); n == 0 {
		t.Fatal("expected segment files before Discard")
	}
	if err := sp.Discard(); err != nil {
		t.Fatalf("Discard: %v", err)
	}
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("%d files leaked after Discard", n)
	}
}

// TestSpillFlushErrorIsStickyButLossless: when the spill device breaks
// mid-scan, the store stops spilling, keeps buffering in RAM (no record
// lost — the sealed columns still match the memory store), and SealErr
// reports the failure so the scan is not silently trusted to a broken
// disk.
func TestSpillFlushErrorIsStickyButLossless(t *testing.T) {
	dir := t.TempDir()
	spillDir := filepath.Join(dir, "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{Dir: spillDir, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewScanResult(origin.US1, proto.HTTP, 0)
	rng := rand.New(rand.NewSource(13))
	// Break the device before the first flush.
	if err := os.RemoveAll(spillDir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		r := spillRandRecord(rng)
		sp.Add(r)
		mem.Add(r)
	}
	if err := sp.SealErr(); err == nil {
		t.Fatal("SealErr: expected sticky flush error")
	}
	if diff := mem.DiffAgainst(sp); diff != "" {
		t.Fatalf("degraded store lost records: %s", diff)
	}
}

// TestSpilledConstructorClampsHint asserts the sizing fix: a capacity hint
// beyond what the budget allows must not pre-allocate past the ceiling.
func TestSpilledConstructorClampsHint(t *testing.T) {
	cfg := SpillConfig{Dir: t.TempDir(), Budget: 100 * spillRowBytes}
	sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 1<<20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, max := cap(sp.addrs), cfg.maxRows(); got > max {
		t.Fatalf("hint pre-allocated %d rows, budget ceiling is %d", got, max)
	}
	// The in-memory constructor trusts the hint (documented asymmetry).
	mem := NewScanResultSized(origin.US1, proto.HTTP, 0, 1<<12)
	if cap(mem.addrs) != 1<<12 {
		t.Fatalf("in-memory hint not honored: cap %d", cap(mem.addrs))
	}
}

// TestSpilledConstructorRejectsBadDir: a missing spill dir is a config
// error at construction, not a mid-scan surprise.
func TestSpilledConstructorRejectsBadDir(t *testing.T) {
	if _, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0,
		SpillConfig{Dir: filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("expected error for missing dir")
	}
	if _, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{}); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

// segmentFrame encodes an ORSEG002 segment holding one frame of rows
// zero-valued records whose header declares bannerBytes and whose banner
// lengths are lens, followed by data — a frame the writer would never
// produce.
func segmentFrame(bannerBytes uint32, lens []uint32, data string) []byte {
	b := append([]byte(segMagic), segAddrWidth)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(lens)))
	b = binary.LittleEndian.AppendUint32(b, bannerBytes)
	b = append(b, make([]byte, len(lens)*(segFrameRowBytes-4))...)
	for _, l := range lens {
		b = binary.LittleEndian.AppendUint32(b, l)
	}
	return append(b, data...)
}

// wrappedBannerFrame is a frame whose second banner length wraps a 32-bit
// offset back to zero.
func wrappedBannerFrame() []byte { return segmentFrame(1, []uint32{1, 0xFFFFFFFF}, "x") }

// TestSpillCorruptSegmentFailsMerge: a segment whose frame lies about its
// sizes fails the merge with an error from SealErr — not a panic, not a
// short result, and not a 4 GiB allocation on the frame's word.
func TestSpillCorruptSegmentFailsMerge(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"wrapped-banner-offset", wrappedBannerFrame()},
		{"banner-lengths-short-of-data", segmentFrame(3, []uint32{1, 1}, "xyz")},
		{"banner-bytes-past-eof", segmentFrame(0xFFFFFFFF, []uint32{1}, "x")},
		{"rows-past-eof", segmentFrame(0, []uint32{0, 0, 0}, "")[:len(segMagic)+1+8+10]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{Dir: t.TempDir(), Budget: 1})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 8; i++ {
				sp.Add(spillRandRecord(rng))
			}
			if len(sp.spill.segments) == 0 {
				t.Fatal("no segment was flushed")
			}
			if err := os.WriteFile(sp.spill.segments[0].path, tc.frame, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = sp.SealErr()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "segment frame") {
				t.Errorf("SealErr = %v, want a corrupt segment frame error", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
				t.Errorf("the merge allocated %d MiB for a %d-byte segment", n>>20, len(tc.frame))
			}
		})
	}
}

// FuzzSegmentReader: whatever bytes a segment file holds, opening it and
// draining its rows returns rows or an error, never a panic, and never more
// rows than the file has bytes for. The segment flushRun writes decodes to
// the rows it was written from.
func FuzzSegmentReader(f *testing.F) {
	dir := f.TempDir()
	sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{Dir: dir, Budget: 1 << 40})
	if err != nil {
		f.Fatal(err)
	}
	mem := NewScanResult(origin.US1, proto.HTTP, 0)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 16; i++ {
		r := spillRandRecord(rng)
		sp.Add(r)
		mem.Add(r)
	}
	if err := sp.flushRun(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(sp.spill.segments[0].path)
	if err != nil {
		f.Fatal(err)
	}
	mem.sortByAddr()
	want := make([]spillRow, len(mem.addrs))
	for i := range want {
		want[i] = mem.rowAt(i)
	}
	f.Add(valid)
	f.Add(wrappedBannerFrame())
	// One file per fuzzing process, rewritten per input: the inputs of a
	// process run one at a time.
	path := filepath.Join(dir, "fuzz.seg")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openSegment(path)
		if err != nil {
			return
		}
		defer r.close()
		var got []spillRow
		for {
			var row spillRow
			ok, err := r.next(&row)
			if err != nil {
				got = nil
				break
			}
			if !ok {
				break
			}
			got = append(got, row)
		}
		if len(got)*segFrameRowBytes > len(data) {
			t.Fatalf("decoded %d rows from %d bytes", len(got), len(data))
		}
		if bytes.Equal(data, valid) && !reflect.DeepEqual(got, want) {
			t.Fatalf("the written segment decoded to %d rows, want the %d it was written from", len(got), len(want))
		}
	})
}
