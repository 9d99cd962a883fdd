package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// smokeRunner runs repetitions and traced passes in-process at smoke size.
type smokeRunner struct{ dir string }

func (r smokeRunner) spanPath(w *workload) string {
	return filepath.Join(r.dir, "spans-"+w.name+".json")
}

func (r smokeRunner) rep(ctx context.Context, w *workload, seed uint64, runOnly bool) (*repResult, error) {
	return runRep(ctx, repOptions{w: w, seed: seed, smoke: true, dir: r.dir, runOnly: runOnly})
}

func (r smokeRunner) layers(ctx context.Context, w *workload, seed uint64) (*layerResult, error) {
	return runLayers(ctx, layerOptions{w: w, seed: seed, smoke: true, dir: r.dir,
		spanPath: r.spanPath(w), loopCap: 2 * time.Millisecond})
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkJSON mirrors BENCHMARK.json's keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json names exactly the
// workloads and metrics this package defines, with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, package has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d defined", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, package has %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %v", d.name, nameRE)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func metricNames(defs []metricDef) map[string]bool {
	names := map[string]bool{}
	for _, d := range defs {
		names[d.name] = true
	}
	return names
}

// TestSmokeEmitsEveryMetric runs every workload at smoke size through the
// untraced and the traced pass: every named metric is emitted and nothing
// unnamed, no check fails, the replayed scan Equals the engine's, and the
// span file is a well-formed tree.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	ctx := context.Background()
	r := smokeRunner{dir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		wr, err := measure(ctx, r, w, plan{seed: 7, reps: 1, layers: true}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if wr.Failed != 0 || len(wr.LayerFailures) != 0 {
			t.Errorf("%s: %d of %d operations failed: %v %v", w.name, wr.Failed, wr.Attempted, wr.Failures, wr.LayerFailures)
		}
		for _, side := range []struct {
			traced bool
			defs   []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			line, err := contractLine(wr, side.traced)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := metricNames(side.defs)
			for name := range out.Metrics {
				if !want[name] {
					t.Errorf("%s: emitted unnamed metric %q", w.name, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s: metric %q not emitted", w.name, name)
			}
			if !out.Correct {
				t.Errorf("%s: result line says incorrect", w.name)
			}
		}
		for _, d := range endToEnd {
			if wr.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, wr.EndToEnd[d.name].Value)
			}
		}
		if w.name == "bigscan" && wr.PerLayer["results.spill_segments"].Value < 2 {
			t.Errorf("bigscan smoke run flushed %v segments; the spill path is not exercised", wr.PerLayer["results.spill_segments"].Value)
		}

		data, err := os.ReadFile(r.spanPath(w))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		if len(spans) < 10 {
			t.Errorf("%s: only %d spans", w.name, len(spans))
		}
		if err := checkSpanTree(spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestCorruptedExpectedDigest: output that differs from the pinned digest
// drives error_share to 1 (ok_share to 0), and a matching pin does not.
func TestCorruptedExpectedDigest(t *testing.T) {
	ctx := context.Background()
	w, err := findWorkload("sparse")
	if err != nil {
		t.Fatal(err)
	}
	o := repOptions{w: w, seed: defaultSeed, smoke: true, dir: t.TempDir()}
	good, err := runRep(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if good.Failed != 0 {
		t.Fatalf("unpinned run failed: %v", good.Failures)
	}
	pinned := good.Pin
	o.expect = &pinned
	if rep, err := runRep(ctx, o); err != nil || rep.Failed != 0 {
		t.Fatalf("run against its own pin: err %v, failures %v", err, rep.Failures)
	}
	pinned.SHA256 = "0" + pinned.SHA256[1:]
	rep, err := runRep(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Attempted || rep.Attempted == 0 {
		t.Errorf("corrupted digest: %d of %d operations failed, want all", rep.Failed, rep.Attempted)
	}
}

func TestSpanTreeCheck(t *testing.T) {
	r := newSpanRecorder("w")
	root := r.start("root", -1)
	r.timed("child", root, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	r.finish()
	if err := checkSpanTree(r.spans); err != nil {
		t.Fatal(err)
	}
	if r.spans[root].SelfNS >= r.spans[root].EndNS-r.spans[root].StartNS {
		t.Error("self time does not exclude the child")
	}
	bad := append([]span(nil), r.spans...)
	bad[1].EndNS = bad[0].EndNS + 1
	if checkSpanTree(bad) == nil {
		t.Error("child ending after its parent was accepted")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{name: "run_s", better: "lower", bound: 0.10}
	s := func(xs ...float64) sample { return newSample("s", xs) }
	for _, tc := range []struct {
		base, change sample
		want         string
	}{
		{s(10, 10.1, 10.2), s(10.3, 10.4, 10.5), "ok"},
		{s(10, 10.1, 10.2), s(11.5, 11.6, 11.7), "worse"},
		{s(10, 10.1, 12), s(10, 11, 12), "unresolved"},
		{s(10, 11, 12), s(8, 8.5, 9.9), "ok"}, // noisy, but every run better
	} {
		if _, got := verdict(d, tc.base, tc.change); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.base.Samples, tc.change.Samples, got, tc.want)
		}
	}
}
