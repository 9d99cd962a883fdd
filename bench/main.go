// Command bench is the repository's one benchmark: four workloads through
// the product's own entry points (core.New → Study.Run → Dataset.WriteJSON /
// results.ReadJSON → report.All), seven end-to-end metrics each, and — in a
// separate traced pass — the per-layer numbers, timed around the calls into
// each layer's public functions. See README.md.
//
//	go run ./bench                      every workload, -reps repetitions, result file
//	go run ./bench -layers              the same, then the traced pass
//	go run ./bench -compare a.json b.json
//	go run ./bench -update-expected
//	go run ./bench --workload matrix --seed 7 --seconds 20 --trace 0|1   (the driver's form)
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the seed expected.json pins.
const defaultSeed = 2020

//go:embed expected.json
var expectedJSON []byte

// expectedPins parses the embedded expected.json: workload name → pin.
func expectedPins() (map[string]pin, error) {
	pins := map[string]pin{}
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return pins, nil
}

// runner runs one repetition or one traced pass of a workload. The command
// re-executes itself so each gets a process of its own (peak RSS and the
// allocation counters are then the workload's, not the benchmark's); tests
// substitute an in-process runner at smoke size.
type runner interface {
	rep(ctx context.Context, w *workload, seed uint64, runOnly bool) (*repResult, error)
	layers(ctx context.Context, w *workload, seed uint64) (*layerResult, error)
}

// childProcs is the number of processors a child may use: min(nproc, 4),
// so results from boxes of different widths stay comparable up to 4 cores.
func childProcs() int { return min(runtime.NumCPU(), 4) }

// execRunner re-executes this binary in child mode.
type execRunner struct {
	exe      string
	dir      string // scratch directory handed to every child
	spanDir  string
	noExpect bool
}

func (r *execRunner) child(ctx context.Context, out any, args ...string) error {
	cmd := exec.CommandContext(ctx, r.exe, append([]string{"-child", "-dir", r.dir}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout), out); err != nil {
		return fmt.Errorf("child %v: bad result: %w", args, err)
	}
	return nil
}

func (r *execRunner) rep(ctx context.Context, w *workload, seed uint64, runOnly bool) (*repResult, error) {
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if runOnly {
		args = append(args, "-run-only")
	}
	if r.noExpect {
		args = append(args, "-no-expect")
	}
	res := new(repResult)
	return res, r.child(ctx, res, args...)
}

func (r *execRunner) layers(ctx context.Context, w *workload, seed uint64) (*layerResult, error) {
	res := new(layerResult)
	return res, r.child(ctx, res, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-child-layers", "-spans", filepath.Join(r.spanDir, "spans-"+w.name+".json"))
}

// plan is what one invocation measures.
type plan struct {
	workloads []*workload
	seed      uint64
	// reps is the number of untraced repetitions per workload; seconds,
	// when positive, replaces it: repetitions continue until that much
	// time has been measured (at least one).
	reps    int
	seconds float64
	// layers adds the traced pass. layersOnly reduces the untraced pass
	// to the single run-only repetition the traced pass's ratios need.
	layers     bool
	layersOnly bool
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Name     string            `json:"name"`
	Why      string            `json:"why"`
	Seed     uint64            `json:"seed"`
	Reps     int               `json:"reps"`
	EndToEnd map[string]sample `json:"end_to_end,omitempty"`
	PerLayer map[string]sample `json:"per_layer,omitempty"`
	Pin      pin               `json:"pin"`
	// Attempted and Failed are operations over all repetitions.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// LayerFailures, when non-empty, mark the per-layer numbers invalid.
	LayerFailures []string `json:"layer_failures,omitempty"`
}

// resultFile is what a run writes and -compare reads.
type resultFile struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// measure runs one workload's repetitions (and traced pass) and aggregates.
func measure(ctx context.Context, r runner, w *workload, p plan, log io.Writer) (*workloadResult, error) {
	wr := &workloadResult{Name: w.name, Why: w.why, Seed: p.seed}
	var reps []*repResult
	for begin := time.Now(); ; {
		rep, err := r.rep(ctx, w, p.seed, p.layersOnly)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		fmt.Fprintf(log, "%s: rep %d: set-up %.3f s, run %.3f s, report %.3f s, %.0f MiB, %d/%d ops failed\n",
			w.name, len(reps), rep.SetupS, rep.RunS, rep.ReportS, rep.PeakRSSMiB, rep.Failed, rep.Attempted)
		if p.layersOnly || (p.seconds > 0 && time.Since(begin).Seconds() >= p.seconds) ||
			(p.seconds <= 0 && len(reps) >= p.reps) {
			break
		}
	}
	wr.Reps = len(reps)
	wr.Pin = reps[0].Pin
	per := map[string][]float64{}
	for _, rep := range reps {
		wr.Attempted += rep.Attempted
		wr.Failed += rep.Failed
		wr.Failures = append(wr.Failures, rep.Failures...)
		if rep.Pin != wr.Pin {
			// The simulated statistics must repeat exactly.
			wr.Failed = wr.Attempted
			wr.Failures = append(wr.Failures, fmt.Sprintf("repetitions disagree: %+v vs %+v", rep.Pin, wr.Pin))
		}
		per["setup_s"] = append(per["setup_s"], rep.SetupS)
		per["run_s"] = append(per["run_s"], rep.RunS)
		per["report_s"] = append(per["report_s"], rep.ReportS)
		per["peak_rss_mib"] = append(per["peak_rss_mib"], rep.PeakRSSMiB)
		per["alloc_gib"] = append(per["alloc_gib"], rep.AllocGiB)
		per["mallocs_m"] = append(per["mallocs_m"], rep.MallocsM)
		per["ok_share"] = append(per["ok_share"], 1-ratio(float64(rep.Failed), float64(rep.Attempted)))
	}
	if !p.layersOnly {
		wr.EndToEnd = map[string]sample{}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = newSample(d.unit, per[d.name])
		}
	}
	if p.layers {
		lr, err := r.layers(ctx, w, p.seed)
		if err != nil {
			return nil, err
		}
		deriveLayerMetrics(lr, median(per["run_s"]))
		wr.LayerFailures = lr.Failures
		wr.PerLayer = map[string]sample{}
		for _, d := range perLayer {
			wr.PerLayer[d.name] = newSample(d.unit, []float64{lr.Metrics[d.name]})
		}
	}
	return wr, nil
}

// printResult prints every metric of a workload by name.
func printResult(out io.Writer, wr *workloadResult) {
	fmt.Fprintf(out, "\n%s (seed %d, %d repetitions): %s\n", wr.Name, wr.Seed, wr.Reps, wr.Why)
	for _, d := range endToEnd {
		if s, ok := wr.EndToEnd[d.name]; ok {
			fmt.Fprintf(out, "  %-28s %14.6g %-6s min %.6g max %.6g n=%d  (%s is better; may worsen by %g%%)\n",
				d.name, s.Value, s.Unit, s.Min, s.Max, s.N, d.better, 100*d.bound)
		}
	}
	for _, d := range perLayer {
		if s, ok := wr.PerLayer[d.name]; ok {
			fmt.Fprintf(out, "  %-34s %14.6g %-6s -> %s\n", d.name, s.Value, s.Unit, d.moves)
		}
	}
	digest := "not taken (run-only reference)"
	if wr.Pin.SHA256 != "" {
		digest = wr.Pin.SHA256[:16] + "…"
	}
	fmt.Fprintf(out, "  checks: %d operations, %d failed; dataset sha256 %s, %d rows, %d targets, %d scans\n",
		wr.Attempted, wr.Failed, digest, wr.Pin.Rows, wr.Pin.Targets, wr.Pin.Scans)
	for _, f := range wr.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	for _, f := range wr.LayerFailures {
		fmt.Fprintf(out, "  LAYER NUMBERS INVALID: %s\n", f)
	}
}

// contractLine is the driver's result: one JSON object on the last line.
func contractLine(wr *workloadResult, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := wr.EndToEnd
	if traced {
		src = wr.PerLayer
	}
	metrics := map[string]value{}
	for name, s := range src {
		metrics[name] = value{s.Value, s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0 && len(wr.LayerFailures) == 0, wr.Attempted, wr.Failed, metrics})
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed         = fs.Uint64("seed", defaultSeed, "feeds Spec.Seed / V6Spec.Seed and nothing else")
		seconds      = fs.Float64("seconds", 0, "repeat each workload until this many seconds were measured (0: use -reps)")
		trace        = fs.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics instead")
		reps         = fs.Int("reps", 9, "child runs per workload; every end-to-end metric is their median")
		layers       = fs.Bool("layers", false, "after the untraced pass, run the traced pass for the per-layer metrics")
		compare      = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		update       = fs.Bool("update-expected", false, "run every workload at the default seed and rewrite expected.json")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "directory for the result file, span files and scratch data")
		resultPath   = fs.String("o", "", "result file (default <out>/result.json)")

		child       = fs.Bool("child", false, "internal: run one repetition in this process")
		childLayers = fs.Bool("child-layers", false, "internal: with -child, run the traced pass")
		runOnly     = fs.Bool("run-only", false, "internal: with -child, skip the report phase")
		noExpect    = fs.Bool("no-expect", false, "internal: with -child, skip the expected.json check")
		dir         = fs.String("dir", "", "internal: scratch directory of the child")
		spans       = fs.String("spans", "", "internal: span file of the traced child")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	var selected []*workload
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return fail(err)
		}
		selected = []*workload{w}
	} else {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}

	if *child {
		w := selected[0]
		var res any
		var err error
		if *childLayers {
			res, err = runLayers(ctx, layerOptions{w: w, seed: *seed, dir: *dir, spanPath: *spans, loopCap: defaultLoopCap})
		} else {
			o := repOptions{w: w, seed: *seed, dir: *dir, runOnly: *runOnly}
			if *seed == defaultSeed && !*noExpect {
				pins, perr := expectedPins()
				if perr != nil {
					return fail(perr)
				}
				if p, ok := pins[w.name]; ok {
					o.expect = &p
				} else {
					return fail(fmt.Errorf("expected.json has no entry for %s; run -update-expected", w.name))
				}
			}
			res, err = runRep(ctx, o)
		}
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}

	// The defaults (bench/out, bench/expected.json) are relative to the
	// repository root, and the numbers are only meaningful for the tree
	// the binary was built from: refuse to run anywhere else.
	if _, err := os.Stat(filepath.Join("internal", "core", "core.go")); err != nil {
		return fail(fmt.Errorf("run from the root of the repository (go run ./bench): %w", err))
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(*outDir, "scratch-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	r := &execRunner{exe: exe, dir: scratch, spanDir: *outDir, noExpect: *update}

	if *update {
		pins := map[string]pin{}
		for _, w := range selected {
			rep, err := r.rep(ctx, w, defaultSeed, false)
			if err != nil {
				return fail(err)
			}
			if rep.Failed > 0 {
				return fail(fmt.Errorf("%s: %v", w.name, rep.Failures))
			}
			pins[w.name] = rep.Pin
			fmt.Fprintf(stdout, "%s: %+v\n", w.name, rep.Pin)
		}
		if err := writeJSONFile(filepath.Join("bench", "expected.json"), pins); err != nil {
			return fail(err)
		}
		return 0
	}

	p := plan{workloads: selected, seed: *seed, reps: *reps, seconds: *seconds, layers: *layers}
	contract := *workloadName != ""
	if contract && *trace == 1 {
		p.layers, p.layersOnly = true, true
	}
	res := resultFile{Env: readEnvironment(p)}
	failed := false
	for _, w := range p.workloads {
		wr, err := measure(ctx, r, w, p, stderr)
		if err != nil {
			return fail(err)
		}
		printResult(stdout, wr)
		failed = failed || wr.Failed > 0 || len(wr.LayerFailures) > 0
		res.Workloads = append(res.Workloads, *wr)
	}
	if *resultPath == "" {
		*resultPath = filepath.Join(*outDir, "result.json")
	}
	if err := writeJSONFile(*resultPath, res); err != nil {
		return fail(err)
	}
	if contract {
		line, err := contractLine(&res.Workloads[0], p.layersOnly)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		fmt.Fprintln(stderr, "bench: FAILED: a correctness check did not hold; see FAILED lines above")
		return 1
	}
	return 0
}
