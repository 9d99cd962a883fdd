package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/report"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// pin is one workload's pinned output for the default seed (expected.json).
type pin struct {
	SHA256  string `json:"sha256"`
	Rows    uint64 `json:"rows"`
	Targets uint64 `json:"targets"`
	Scans   int    `json:"scans"`
}

// repOptions configures one repetition of one workload.
type repOptions struct {
	w     *workload
	seed  uint64
	smoke bool
	// dir is an existing scratch directory for the spill store and the
	// dataset file; the repetition leaves it empty.
	dir string
	// expect, when non-nil, is checked against the run's digest, rows,
	// targets and scan count; nil falls back to the invariant checks.
	expect *pin
	// runOnly skips the report phase: the traced pass's reference run
	// needs run_s alone.
	runOnly bool
}

// repResult is what one repetition measured. Times are host seconds.
type repResult struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	ReportS    float64 `json:"report_s,omitempty"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	AllocGiB   float64 `json:"alloc_gib"`
	MallocsM   float64 `json:"mallocs_m"`
	Pin        pin     `json:"pin"`
	// Attempted and Failed count operations: scans + the report + checks.
	// A digest or round-trip mismatch means no operation of the workload
	// can be trusted: Failed = Attempted.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// expectedScans is the number of (origin, protocol, trial) scans a config
// runs, derived the way experiment.Study.Run enumerates them.
func expectedScans(cfg experiment.Config) int {
	perTrial := len(cfg.Origins) * len(cfg.Protocols)
	n := cfg.Trials * perTrial
	if cfg.IncludeCarinet && !cfg.Origins.Contains(origin.CARINET) {
		n += len(cfg.Protocols)
	}
	return n
}

// expectedTargets is what every scan's Targets must equal: the swept space
// for IPv4, the hitlist length for IPv6 (no blocklist in any workload).
func expectedTargets(w *world.World) uint64 {
	if w.Family == world.FamilyIPv6 {
		return uint64(len(w.Hitlist()))
	}
	return w.SpaceSize()
}

// forEachScan visits the dataset's scans in study order.
func forEachScan(cfg experiment.Config, ds *results.Dataset, fn func(*results.ScanResult)) {
	for trial := 0; trial < ds.Trials; trial++ {
		for _, p := range cfg.Protocols {
			for _, o := range ds.Origins {
				if s := ds.Scan(o, p, trial); s != nil {
					fn(s)
				}
			}
		}
	}
}

// runRep runs one repetition: set-up, run, report, check — each once. It is
// the only place end-to-end numbers are taken, and it runs in a process of
// its own (see child mode in main.go) so VmHWM and the allocation counters
// belong to this workload alone. A repetition is kept to a couple of
// seconds so that one invocation makes many: this box slows down by a third
// for a second or two at a time, and a median over many short repetitions
// steps over those stretches where one over three long ones cannot.
func runRep(ctx context.Context, o repOptions) (*repResult, error) {
	res := &repResult{Workload: o.w.name, Seed: o.seed}
	fail := func(ops int, format string, args ...any) {
		res.Failed += ops
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	wrongOutput := false
	spill, err := os.MkdirTemp(o.dir, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)
	// Phase 1: set-up. Phase 2: run. The allocation counters bracket both.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	study, err := core.New(ctx, o.w.studyConfig(o.seed, o.smoke, spill))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.SetupS = time.Since(begin).Seconds()
	begin = time.Now()
	runErr := study.Run(ctx)
	res.RunS = time.Since(begin).Seconds()
	runtime.ReadMemStats(&m1)
	if rss, ok := telemetry.PeakRSSBytes(); ok {
		res.PeakRSSMiB = float64(rss) / (1 << 20)
	}
	res.AllocGiB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 30)
	res.MallocsM = float64(m1.Mallocs-m0.Mallocs) / 1e6

	cfg := study.Exp.Config
	ds := study.DS
	scans := expectedScans(cfg)
	res.Attempted = scans
	if runErr != nil {
		// The engine seals what completed; every missing scan failed.
		fail(scans-ds.Len(), "run: %v", runErr)
	}

	// Phase 3: report.
	dsPath := filepath.Join(o.dir, "dataset.json")
	defer os.Remove(dsPath)
	if !o.runOnly {
		res.Attempted++
		begin = time.Now()
		err := reportOnce(ctx, o.w.report, study, ds, dsPath)
		res.ReportS = time.Since(begin).Seconds()
		if err != nil {
			wrongOutput = true
			fail(1, "report: %v", err)
		}
		study.UseDataset(ds)
	}

	// Phase 4: check. Three checks: scan count, Targets, digest/rows.
	res.Attempted += 3
	res.Pin.Scans = ds.Len()
	if ds.Len() != scans {
		fail(1, "scan count %d, want %d", ds.Len(), scans)
	}
	want := expectedTargets(study.World())
	res.Pin.Targets = want
	forEachScan(cfg, ds, func(s *results.ScanResult) {
		rows, _ := s.SealStats()
		res.Pin.Rows += uint64(rows)
		if s.Targets != want && res.Pin.Targets == want {
			res.Pin.Targets = s.Targets
			fail(1, "%v/%v/trial %d: targets %d, want %d", s.Origin, s.Proto, s.Trial, s.Targets, want)
		}
	})
	if !o.runOnly {
		digest, err := fileDigest(dsPath)
		if err != nil {
			fail(1, "digest: %v", err)
		}
		res.Pin.SHA256 = digest
	}
	if o.expect != nil && !o.runOnly && res.Pin != *o.expect {
		wrongOutput = true
		fail(1, "output differs from expected.json: got %+v, want %+v", res.Pin, *o.expect)
	}
	if wrongOutput {
		res.Failed = res.Attempted
	}

	return res, nil
}

// writeDataset writes ds to path as JSON and returns the file's size.
func writeDataset(path string, ds *results.Dataset) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := ds.WriteJSON(f); err != nil {
		f.Close()
		return 0, fmt.Errorf("WriteJSON: %w", err)
	}
	size, _ := f.Seek(0, io.SeekCurrent)
	return size, f.Close()
}

func readDataset(path string) (*results.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := results.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("ReadJSON: %w", err)
	}
	return ds, nil
}

// reportOnce is the report phase: the dataset goes to disk and comes back
// (originscan -dataset, then cmd/report), must equal what was written, and
// the workload's analysis runs over the copy read.
func reportOnce(ctx context.Context, kind reportKind, study *core.Study, ds *results.Dataset, path string) error {
	if _, err := writeDataset(path, ds); err != nil {
		return err
	}
	back, err := readDataset(path)
	if err != nil {
		return err
	}
	if diff := ds.Diff(back); diff != "" {
		return fmt.Errorf("dataset read back differs: %s", diff)
	}
	switch kind {
	case reportFull:
		study.UseDataset(back)
		if err := report.All(ctx, io.Discard, study); err != nil {
			return fmt.Errorf("report.All: %w", err)
		}
	case reportV6:
		for _, p := range study.Exp.Config.Protocols {
			_ = analysis.Coverage(back, p)
			_ = analysis.Exclusive(analysis.NewClassifier(back, p))
		}
	}
	return nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
