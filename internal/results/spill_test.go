package results

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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
	budgets := []int64{1, 4 * rowBytes, 64 << 10, 1 << 40}
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

// spillOp is one step of a record stream: a batch of Adds, or a Seal.
type spillOp struct {
	batch []HostRecord // nil = Seal
}

// randomSpillScript is a random stream interleaving Add, AddBatch (larger
// than the tiny thresholds, so spills trigger mid-batch) and mid-stream
// Seal (forcing merge → re-open → re-spill cycles).
func randomSpillScript(rng *rand.Rand) []spillOp {
	var script []spillOp
	nops := 20 + rng.Intn(40)
	for i := 0; i < nops; i++ {
		switch rng.Intn(8) {
		case 0:
			script = append(script, spillOp{}) // mid-stream Seal
		case 1, 2, 3:
			batch := make([]HostRecord, 1+rng.Intn(200))
			for j := range batch {
				batch[j] = spillRandRecord(rng)
			}
			script = append(script, spillOp{batch: batch})
		default:
			script = append(script, spillOp{batch: []HostRecord{spillRandRecord(rng)}})
		}
	}
	return script
}

// scattered is the i-th of a scattered walk over distinct v4 hosts.
func scattered(i int) ip.Addr { return ip.AddrFrom4(uint32(i) * 2654435761) }

// bannerlessBatches is n batches of 200 rows with no banner, hosts
// scattered(0) onward.
func bannerlessBatches(n int) []spillOp {
	var script []spillOp
	for b := 0; b < n; b++ {
		batch := make([]HostRecord, 200)
		for j := range batch {
			i := 200*b + j
			batch[j] = HostRecord{Addr: scattered(i), ProbeMask: 1, Attempts: 1, T: time.Duration(i)}
		}
		script = append(script, spillOp{batch: batch})
	}
	return script
}

// TestSpillDifferential is the determinism proof in test form: identical
// record streams through the in-memory store and spill stores at every
// adversarial threshold must produce an empty DiffAgainst, identical
// sealed JSON bytes, identical SealStats, and no leftover segment files.
// Six streams are random; two script the banner dictionary's edges: a
// banner that first appears after segments were flushed (and then on a
// host a segment already holds), and a keep-last dedup that drops the only
// row carrying a banner, which must leave no "banners" key in the JSON.
func TestSpillDifferential(t *testing.T) {
	budgets := spillTestBudgets(t)
	type stream struct {
		name    string
		script  []spillOp
		banners bool // the sealed JSON has a "banners" key
	}
	var streams []stream
	for seed := int64(0); seed < 6; seed++ {
		streams = append(streams, stream{name: fmt.Sprintf("seed %d", seed), script: randomSpillScript(rand.New(rand.NewSource(seed))), banners: true})
	}
	late := HostRecord{Addr: scattered(7), ProbeMask: 3, L7: true, Attempts: 1, Banner: "late/1.0"}
	streams = append(streams, stream{
		name: "banner after flushed segments",
		script: append(bannerlessBatches(3),
			spillOp{batch: []HostRecord{late, {Addr: ip.AddrFrom4(5000), L7: true, Banner: "late/1.0"}}},
			spillOp{}, spillOp{batch: []HostRecord{{Addr: ip.AddrFrom4(5001), L7: true, Banner: "later/2.0"}}}),
		banners: true,
	})
	only := HostRecord{Addr: scattered(3), ProbeMask: 3, L7: true, Attempts: 1, Banner: "gone/1.0"}
	streams = append(streams, stream{
		name: "dedup drops the only banner",
		script: append(append([]spillOp{{batch: []HostRecord{only}}}, bannerlessBatches(3)...),
			spillOp{batch: []HostRecord{{Addr: only.Addr, ProbeMask: 1}}}),
		banners: false,
	})
	for si, st := range streams {
		stats := [5]uint64{uint64(si), 2, 3, 4, 5}
		run := func(s *ScanResult) {
			for _, o := range st.script {
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
		if got := bytes.Contains(wantJSON, []byte(`"banners"`)); got != st.banners {
			t.Fatalf("%s: sealed JSON has a banners key: %v, want %v", st.name, got, st.banners)
		}

		for _, budget := range budgets {
			dir := t.TempDir()
			sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{Dir: dir, Budget: budget})
			if err != nil {
				t.Fatalf("%s budget %d: %v", st.name, budget, err)
			}
			run(sp)
			if err := sp.SealErr(); err != nil {
				t.Fatalf("%s budget %d: SealErr: %v", st.name, budget, err)
			}
			if diff := mem.DiffAgainst(sp); diff != "" {
				t.Fatalf("%s budget %d: mem vs spill: %s", st.name, budget, diff)
			}
			if diff := sp.DiffAgainst(mem); diff != "" {
				t.Fatalf("%s budget %d: spill vs mem: %s", st.name, budget, diff)
			}
			if got := sealedJSON(t, sp); !bytes.Equal(got, wantJSON) {
				t.Fatalf("%s budget %d: sealed JSON differs (%d vs %d bytes)",
					st.name, budget, len(got), len(wantJSON))
			}
			rows, deduped := sp.SealStats()
			if rows != wantRows || deduped != wantDeduped {
				t.Fatalf("%s budget %d: SealStats=(%d,%d) want (%d,%d)",
					st.name, budget, rows, deduped, wantRows, wantDeduped)
			}
			if n := countFiles(t, dir); n != 0 {
				t.Fatalf("%s budget %d: %d segment files leaked after seal", st.name, budget, n)
			}
			sst := sp.SpillStats()
			if budget == 1 && sst.Segments == 0 {
				t.Fatalf("%s: threshold-1 store never spilled", st.name)
			}
			if budget == 1<<40 && sst.Segments != 0 {
				t.Fatalf("%s: huge-threshold store spilled %d segments", st.name, sst.Segments)
			}
			if sst.Segments > 0 && sst.SpilledBytes == 0 {
				t.Fatalf("%s budget %d: segments without bytes", st.name, budget)
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
	cfg := SpillConfig{Dir: t.TempDir(), Budget: 100 * rowBytes}
	sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 1<<20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The clamp divides by the exact row size: 100 rows fit the budget,
	// plus the one the threshold check appends before it flushes.
	if got := sp.addrs.cap(); got > 101 {
		t.Fatalf("hint pre-allocated %d rows, budget ceiling is 101", got)
	}
	// The in-memory constructor trusts the hint (documented asymmetry).
	mem := NewScanResultSized(origin.US1, proto.HTTP, 0, 1<<12)
	if mem.addrs.cap() != 1<<12 {
		t.Fatalf("in-memory hint not honored: cap %d", mem.addrs.cap())
	}
}

// TestSpillBudgetCountsDictionaryOnce: the live run is the rows at
// rowBytes each plus each banner dictionary entry once. A banner larger
// than the budget flushes the run that introduced it, later rows carrying
// it cost rowBytes each, not the banner again, and after a seal the count
// restarts at the sealed rows.
func TestSpillBudgetCountsDictionaryOnce(t *testing.T) {
	banner := strings.Repeat("b", 1000)
	sp, err := NewSpilledScanResult(origin.US1, proto.HTTP, 0, 0, SpillConfig{Dir: t.TempDir(), Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 21; i++ { // 21 × rowBytes = 756 < 1000
		sp.Add(HostRecord{Addr: scattered(i), L7: true, Banner: banner})
		if got := sp.SpillStats().Segments; got != 1 {
			t.Fatalf("after %d Adds: %d segments, want 1 (the first row's new entry)", i+1, got)
		}
	}
	if err := sp.SealErr(); err != nil {
		t.Fatal(err)
	}
	// The sealed rows are the next run's start: 21 + 7 rows cross the
	// budget (28 × rowBytes = 1008), 21 + 6 do not.
	for i := 21; i < 28; i++ {
		sp.Add(HostRecord{Addr: scattered(i)})
		if got, want := sp.SpillStats().Segments, 1+i/27; got != want {
			t.Fatalf("after %d rows: %d segments, want %d", i+1, got, want)
		}
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

// segmentFrame encodes a segment of one frame declaring rows rows, each
// zero but for banner index k: a frame the writer produces only for a
// dictionary of at least k entries.
func segmentFrame(rows int, k uint32) []byte {
	b := append([]byte(segMagic), segAddrWidth)
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	for i := 0; i < rows; i++ {
		row := make([]byte, segFrameRowBytes)
		binary.LittleEndian.PutUint32(row[28:], k)
		b = append(b, row...)
	}
	return b
}

// rowsPastEOF is a frame declaring three rows with the bytes of less than one.
func rowsPastEOF() []byte { return segmentFrame(3, 0)[:len(segMagic)+1+4+10] }

// truncatedFrame is a whole frame followed by the first half of a second
// frame's header.
func truncatedFrame() []byte { return append(segmentFrame(2, 0), 1, 0) }

// TestSpillCorruptSegmentFailsMerge: a segment whose frame lies about its
// size or names a banner past the dictionary fails the merge with an error
// from SealErr — not a panic, not a short result, and not a large
// allocation on the frame's word.
func TestSpillCorruptSegmentFailsMerge(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame func(dict int) []byte
		want  string // what the error says, past "segment frame"
	}{
		{"banner-index-past-dictionary", func(dict int) []byte { return segmentFrame(2, uint32(dict)+1) }, "dictionary holds"},
		{"rows-past-eof", func(int) []byte { return rowsPastEOF() }, "left in the file"},
		{"truncated-frame", func(int) []byte { return truncatedFrame() }, "unexpected EOF"},
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
			frame := tc.frame(len(sp.banners))
			if err := os.WriteFile(sp.spill.segments[0].path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = sp.SealErr()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "segment frame") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("SealErr = %v, want a segment frame error saying %q", err, tc.want)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
				t.Errorf("the merge allocated %d MiB for a %d-byte segment", n>>20, len(frame))
			}
		})
	}
}

// FuzzSegmentReader: whatever bytes a segment file holds, opening it and
// draining its rows returns rows or an error, never a panic, never more
// rows than the file has bytes for, and never a banner index past the
// dictionary. The segment flushRun writes decodes to the rows it was
// written from.
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
	want := make([]spillRow, mem.addrs.len())
	for i := range want {
		want[i] = mem.rowAt(i)
	}
	dict := len(sp.banners)
	f.Add(valid)
	f.Add(segmentFrame(1, uint32(dict)+1))
	f.Add(rowsPastEOF())
	f.Add(truncatedFrame())
	f.Add(append([]byte("ORSEG002"), valid[len(segMagic):]...))
	// One file per fuzzing process, rewritten per input: the inputs of a
	// process run one at a time.
	path := filepath.Join(dir, "fuzz.seg")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openSegment(path, dict)
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
			if row.banner > uint32(dict) {
				t.Fatalf("decoded banner index %d past a %d-entry dictionary", row.banner, dict)
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
