// Command originscan runs the full reproduction of "On the Origin of
// Scanning": three synchronized trials of HTTP, HTTPS, and SSH scans from
// the seven study origins over a synthetic Internet, followed by the SSH
// retry sub-experiment and the co-located Tier-1 follow-up, and prints
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	originscan [-seed N] [-scale F] [-trials N] [-dataset out.json]
//	           [-parallelism N] [-skip-followup]
//	           [-spill-dir DIR] [-mem-budget SIZE]
//	           [-family ipv4|ipv6] [-hitlist FILE]
//	           [-telemetry-addr host:port] [-trace-dir DIR] [-quiet]
//
// The default scale (0.001) generates ≈58k HTTP hosts, mirroring the
// paper's 58M at 1/1000; a full run takes a few minutes on one core.
//
// -family ipv6 switches the study to the seeded IPv6 world: scans walk a
// hitlist (the world's own seeded hitlist, or -hitlist FILE with one
// address per line) instead of sweeping an address space, and the run
// prints per-origin coverage and exclusivity over the hitlist targets in
// place of the paper's IPv4 report (whose figures are calibrated against
// v4 profile networks). See DESIGN.md § 11.
//
// At -scale 0.1 and above the in-memory result columns dominate the
// process footprint; -spill-dir routes each scan's records through the
// spill-to-disk store, and -mem-budget caps the study's live result
// memory (accepts 64MiB/2GiB-style suffixes, split across the stores that
// can be live at once: two per scan worker). Sealed datasets are byte-identical with or without spilling.
//
// While scans run, a single-line progress report (scans done/total, probe
// rate, ETA) refreshes on stderr every 2 seconds; -quiet suppresses it for
// scripted runs. -telemetry-addr serves live metrics over HTTP for the
// duration of the process: /metrics (Prometheus text), /metrics.json,
// /debug/pprof/, and /debug/vars.
//
// -trace-dir DIR turns on the flight recorder: every finished span (the
// study→scan→stage→batch trace tree) is written to DIR/journal.jsonl as
// it ends, and on exit — normal, failed, or interrupted — the journal is
// sealed with a final metrics snapshot and converted to a Chrome
// trace_event file, DIR/trace.json, holding every span (load it in
// chrome://tracing or Perfetto). Analyze the journal with cmd/tracestat,
// during the run or after it: a journal is readable up to its last
// completed span even if the process is killed.
//
// -dataset is written to a temporary file beside it and renamed into place
// once complete, so the name never holds a truncated dataset.
// SIGINT/SIGTERM cancel the run: scans stop at the next sweep batch, every
// scan completed before the interruption is flushed to -dataset (when set),
// and the process exits with code 130 (saying so if the dataset could not
// be written). Other failures, a dataset that cannot be written after a
// completed study among them, exit with code 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/report"
	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// Exit codes: cancellation exits 130 (128+SIGINT, the shell convention);
// any other failure exits 1.
const (
	exitFailure  = 1
	exitCanceled = 130
)

func main() {
	var (
		seed         = flag.Uint64("seed", 2020, "study seed (drives world, scenario, and scans)")
		scale        = flag.Float64("scale", 0.001, "world scale relative to the paper's Internet")
		trials       = flag.Int("trials", 3, "number of trials")
		datasetPath  = flag.String("dataset", "", "write the raw scan dataset to this JSON file")
		skipFollowUp = flag.Bool("skip-followup", false, "skip the co-located Tier-1 follow-up experiment")
		carinet      = flag.Bool("carinet", true, "include the Carinet origin in trial 1")
		csvDir       = flag.String("csv", "", "also write figure data as CSV files into this directory")
		blocklist    = flag.String("blocklist", "", "ZMap-style blocklist file applied to every scan")
		parallelism  = flag.Int("parallelism", 0, "(origin, protocol, trial) scans sweeping at once (0 = GOMAXPROCS)")
		spillDir     = flag.String("spill-dir", "", "spill scan results to segment files in this directory")
		memBudget    = flag.String("mem-budget", "", "live result memory cap, e.g. 256MiB or 2GiB (requires -spill-dir)")
		telemAddr    = flag.String("telemetry-addr", "", "serve live metrics, pprof, and expvar on this address")
		traceDir     = flag.String("trace-dir", "", "write a span journal and Chrome trace into this directory")
		quiet        = flag.Bool("quiet", false, "suppress the periodic stderr progress line")
		familyStr    = flag.String("family", "ipv4", "address family to study: ipv4 (space sweep) or ipv6 (hitlist walk)")
		hitlistPath  = flag.String("hitlist", "", "scan targets from this file (one address per line; requires -family ipv6)")
	)
	flag.Parse()

	family, err := world.ParseFamily(*familyStr)
	if err != nil {
		fatalf("%v", err)
	}
	if *hitlistPath != "" && family != world.FamilyIPv6 {
		fatalf("-hitlist requires -family ipv6")
	}

	// SIGINT/SIGTERM cancel the study context; the lifecycle layer stops
	// scans at the next batch boundary and hands back partial results.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Telemetry observes every layer of the run; it never changes results
	// (the golden-dataset test pins that), so it is always on and the flags
	// only choose where it surfaces.
	reg := core.NewTelemetry()
	if *traceDir != "" {
		rec, err := core.NewRecorder(filepath.Join(*traceDir, core.JournalFile))
		if err != nil {
			fatalf("opening trace journal: %v", err)
		}
		reg.AttachRecorder(rec)
		setTraceFlush(reg, *traceDir)
		// exitf runs the flush before os.Exit; the defer covers main's
		// normal returns (including the IPv6 report's early return).
		defer traceFlush()
	}
	if *telemAddr != "" {
		ln, err := net.Listen("tcp", *telemAddr)
		if err != nil {
			fatalf("telemetry listener: %v", err)
		}
		fmt.Printf("telemetry: serving /metrics, /metrics.json, /debug/pprof on http://%s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, reg.ServeMux()); err != nil {
				fmt.Fprintf(os.Stderr, "originscan: telemetry server: %v\n", err)
			}
		}()
	}

	cfg := experiment.Config{
		WorldSpec:      world.Spec{Seed: *seed, Scale: *scale},
		Family:         family,
		Trials:         *trials,
		IncludeCarinet: *carinet,
		Parallelism:    *parallelism,
		SpillDir:       *spillDir,
		Telemetry:      reg,
	}
	if *hitlistPath != "" {
		targets, err := readHitlist(*hitlistPath)
		if err != nil {
			fatalf("reading -hitlist: %v", err)
		}
		cfg.Hitlist = targets
		fmt.Printf("hitlist: %d targets from %s\n", len(targets), *hitlistPath)
	}
	if *memBudget != "" {
		if *spillDir == "" {
			fatalf("-mem-budget requires -spill-dir")
		}
		b, err := parseByteSize(*memBudget)
		if err != nil {
			fatalf("parsing -mem-budget: %v", err)
		}
		cfg.MemBudget = b
	}
	if *spillDir != "" {
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			fatalf("creating spill dir: %v", err)
		}
	}
	if *blocklist != "" {
		f, err := os.Open(*blocklist)
		if err != nil {
			fatalf("opening blocklist: %v", err)
		}
		set, err := ip.ParseBlocklist(f)
		f.Close()
		if err != nil {
			fatalf("parsing blocklist: %v", err)
		}
		cfg.Blocklist = set
		fmt.Printf("blocklist: excluding %d addresses\n", set.NumAddrs())
	}
	study, err := core.New(ctx, cfg)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			exitf(exitCanceled, "interrupted during world generation")
		}
		fatalf("preparing study: %v", err)
	}
	w := study.World()
	if w.Family == world.FamilyIPv6 {
		targets := len(w.Hitlist())
		if cfg.Hitlist != nil {
			targets = len(cfg.Hitlist)
		}
		fmt.Printf("world: IPv6, %d hosts (HTTP %d, HTTPS %d, SSH %d), %d ASes, %d hitlist targets\n",
			w.NumHosts(), w.HostCount(proto.HTTP), w.HostCount(proto.HTTPS),
			w.HostCount(proto.SSH), w.Routes.Len(), targets)
	} else {
		fmt.Printf("world: %d hosts (HTTP %d, HTTPS %d, SSH %d), %d ASes, scan space 2^%d\n",
			w.NumHosts(), w.HostCount(proto.HTTP), w.HostCount(proto.HTTPS),
			w.HostCount(proto.SSH), w.Routes.Len(), w.SpaceBits)
	}

	start := time.Now()
	fmt.Printf("running %d trials × 3 protocols × %d origins...\n", *trials, len(origin.StudySet()))
	var progress *core.Progress
	if !*quiet {
		progress = core.StartProgress(reg, os.Stderr, 2*time.Second)
	}
	err = study.Run(ctx)
	progress.Stop()
	if err != nil {
		// Whatever interrupted the run, flush the scans that completed:
		// a multi-hour study should never lose its sealed partial data.
		var unwritten string
		if ferr := flushDataset(*datasetPath, study.DS); ferr != nil {
			unwritten = fmt.Sprintf("; dataset not written: %v", ferr)
		}
		if errors.Is(err, core.ErrCanceled) {
			msg := interruptionMessage(err)
			exitf(exitCanceled, "%s after %v; %d scans sealed%s", msg,
				time.Since(start).Round(time.Second), study.DS.Len(), unwritten)
		}
		fatalf("running study: %v%s", err, unwritten)
	}
	// Wall time varies run to run; stdout stays a function of the seed.
	fmt.Fprintf(os.Stderr, "scans complete in %v\n", time.Since(start).Round(time.Second))

	if err := flushDataset(*datasetPath, study.DS); err != nil {
		fatalf("%v", err)
	}

	if w.Family == world.FamilyIPv6 {
		// The paper's figures are calibrated against v4 profile networks;
		// the v6 study's deliverable is the origin-bias table itself.
		v6Report(os.Stdout, study)
		return
	}

	if err := report.All(ctx, os.Stdout, study); err != nil {
		if errors.Is(err, core.ErrCanceled) {
			exitf(exitCanceled, "interrupted during the report stage")
		}
		fatalf("report: %v", err)
	}

	if *csvDir != "" {
		if err := writeCSVs(ctx, *csvDir, study); err != nil {
			fatalf("writing CSVs: %v", err)
		}
		fmt.Printf("CSV figure data written to %s\n", *csvDir)
	}

	if !*skipFollowUp {
		runFollowUp(ctx, world.Spec{Seed: *seed, Scale: *scale})
	}
}

// v6Report prints the IPv6 study's origin-bias summary: per-origin mean
// coverage of the hitlist's live hosts for each protocol, and how many
// hosts only a single origin could reach (exclusivity, the paper's core
// result restated over hitlist targets).
func v6Report(out *os.File, study *core.Study) {
	ds := study.DS
	fmt.Fprintln(out, "\nIPv6 hitlist study: per-origin coverage and exclusivity")
	fmt.Fprintln(out, "=======================================================")
	for _, p := range proto.All() {
		tab := analysis.Coverage(ds, p)
		cls := analysis.NewClassifier(ds, p)
		ex := analysis.Exclusive(cls)
		fmt.Fprintf(out, "%v: union of hosts seen by any origin: %d\n", p, len(cls.Union()))
		fmt.Fprintf(out, "%-8s%10s%12s\n", "origin", "coverage", "exclusive")
		for _, o := range origin.StudySet() {
			fmt.Fprintf(out, "%-8v%9.2f%%%12d\n", o, 100*tab.Mean(o, false), len(ex.Accessible[o]))
		}
	}
}

// readHitlist parses a scan target file: one address per line, blank lines
// and #-comments skipped.
func readHitlist(path string) ([]ip.Addr, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var targets []ip.Addr
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := ip.ParseAddr(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, ln+1, err)
		}
		targets = append(targets, a)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("%s: no targets", path)
	}
	return targets, nil
}

// interruptionMessage describes where a canceled run stopped: the lifecycle
// stage and, when the interruption landed inside a specific scan, the
// (origin, protocol, trial) tuple — e.g. "interrupted during the sweep
// stage of scan US64/HTTP/trial 2".
func interruptionMessage(err error) string {
	stage, hasStage := core.InterruptedStage(err)
	var serr *core.ScanError
	hasScan := errors.As(err, &serr)
	switch {
	case hasStage && hasScan:
		return fmt.Sprintf("interrupted during the %s stage of scan %v/%v/trial %d",
			stage, serr.Origin, serr.Proto, serr.Trial)
	case hasScan:
		return fmt.Sprintf("interrupted during scan %v/%v/trial %d",
			serr.Origin, serr.Proto, serr.Trial)
	case hasStage:
		return fmt.Sprintf("interrupted during the %s stage", stage)
	default:
		return "interrupted"
	}
}

// flushDataset writes a study's dataset (complete or partial) to path. It
// writes a temporary file beside path and renames it over path only once
// the whole dataset is written, synced and closed, so a failed or killed
// write never leaves a truncated file under the final name; on failure the
// temporary file is removed.
func flushDataset(path string, ds *results.Dataset) error {
	if path == "" || ds == nil {
		return nil
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("writing dataset %s: %w", path, err)
	}
	// CreateTemp makes the file owner-only; a dataset gets the mode
	// os.Create gives under the usual umask.
	err = f.Chmod(0o644)
	if err == nil {
		err = ds.WriteJSON(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("writing dataset %s: %w", path, err)
	}
	fmt.Printf("dataset (%d scans) written to %s\n", ds.Len(), path)
	return nil
}

// runFollowUp executes and prints the §7 follow-up experiment (Table 4b,
// Figure 18).
func runFollowUp(ctx context.Context, spec world.Spec) {
	fmt.Println("\nFollow-up experiment: co-located Tier-1 transits @ Equinix CHI4 (Table 4b, Figure 18)")
	fmt.Println("=====================================================================================")
	_, ds, err := experiment.FollowUp(ctx, spec)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			exitf(exitCanceled, "interrupted during the follow-up experiment")
		}
		fatalf("follow-up: %v", err)
	}
	tab := analysis.Coverage(ds, proto.HTTP)
	fmt.Printf("%-7s", "origin")
	for _, o := range origin.FollowUpSet() {
		fmt.Printf("%9s", o)
	}
	fmt.Println()
	fmt.Printf("%-7s", "mean")
	for _, o := range origin.FollowUpSet() {
		fmt.Printf("%8.2f%%", 100*tab.Mean(o, false))
	}
	fmt.Println()

	levels, err := analysis.MultiOrigin(ctx, ds, proto.HTTP, origin.FollowUpSet(), false)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			exitf(exitCanceled, "interrupted during the follow-up analysis")
		}
		fatalf("follow-up: %v", err)
	}
	triad := analysis.CoverageOfCombo(ds, proto.HTTP,
		origin.Set{origin.HE, origin.NTTC, origin.TELIA}, false)
	if len(levels) >= 3 {
		k3 := levels[2]
		fmt.Printf("3-origin coverage: median %.2f%%, min %.2f%% (%v), max %.2f%% (%v)\n",
			100*k3.Median, 100*k3.Min, k3.Worst.Origins, 100*k3.Max, k3.Best.Origins)
		fmt.Printf("co-located HE-NTT-TELIA triad: %.2f%% (Δ vs median %.2f pts)\n",
			100*triad, 100*(k3.Median-triad))
	}
}

// writeCSVs dumps each figure's data as a CSV file for external plotting.
func writeCSVs(ctx context.Context, dir string, study *core.Study) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writers := []struct {
		name string
		fn   func(*os.File) error
	}{
		{"coverage.csv", func(f *os.File) error { return report.CSVCoverage(f, study) }},
		{"missing_breakdown.csv", func(f *os.File) error { return report.CSVMissingBreakdown(f, study) }},
		{"loss_spread_cdf.csv", func(f *os.File) error { return report.CSVSpreadCDF(f, study) }},
		{"multi_origin.csv", func(f *os.File) error { return report.CSVMultiOrigin(ctx, f, study) }},
		{"alibaba_timeline.csv", func(f *os.File) error {
			return report.CSVTimeline(f, study, []origin.ID{origin.US1, origin.US64, origin.AU, origin.CEN}, 0)
		}},
		{"countries.csv", func(f *os.File) error { return report.CSVCountryTable(f, study) }},
	}
	for _, wr := range writers {
		f, err := os.Create(dir + "/" + wr.name)
		if err != nil {
			return err
		}
		if err := wr.fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// parseByteSize parses a human byte size: a plain integer is bytes, and
// the binary suffixes KiB/MiB/GiB (plus bare K/M/G and KB/MB/GB, all
// treated as powers of two — scan tooling convention) scale it.
func parseByteSize(s string) (int64, error) {
	upper := strings.ToUpper(strings.TrimSpace(s))
	shift := 0
	// Longest suffixes first so "MIB" wins over "B".
	for _, suf := range []struct {
		text  string
		shift int
	}{
		{"KIB", 10}, {"MIB", 20}, {"GIB", 30},
		{"KB", 10}, {"MB", 20}, {"GB", 30},
		{"K", 10}, {"M", 20}, {"G", 30}, {"B", 0},
	} {
		if strings.HasSuffix(upper, suf.text) && len(upper) > len(suf.text) {
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.text))
			shift = suf.shift
			break
		}
	}
	n, err := strconv.ParseInt(upper, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	v := n << shift
	if shift > 0 && v>>shift != n {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return v, nil
}

// traceFlush seals the -trace-dir flight recorder: the journal gets its
// final metrics snapshot and is converted to the Chrome trace next to it.
// It is a no-op until -trace-dir installs the real closure, and idempotent after
// (both the deferred call and exitf run it — exitf skips defers via
// os.Exit, and a multi-hour study should never lose its trace to the exit
// path).
var traceFlush = func() {}

func setTraceFlush(reg *core.Telemetry, dir string) {
	traceFlush = func() {
		traceFlush = func() {}
		if err := reg.CloseRecorder(); err != nil {
			fmt.Fprintf(os.Stderr, "originscan: sealing trace journal: %v\n", err)
		}
		path := filepath.Join(dir, "trace.json")
		if err := writeChromeTrace(dir, path); err != nil {
			fmt.Fprintf(os.Stderr, "originscan: writing Chrome trace: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "originscan: trace journal and %s written\n", path)
	}
}

// writeChromeTrace converts the sealed journal in dir to Chrome
// trace_event JSON at path, the same conversion tracestat -chrome makes:
// the file holds every journaled span.
func writeChromeTrace(dir, path string) error {
	evs, err := telemetry.ReadJournal(dir)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, telemetry.JournalSpans(evs)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	exitf(exitFailure, format, args...)
}

func exitf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "originscan: "+format+"\n", args...)
	traceFlush()
	os.Exit(code)
}
