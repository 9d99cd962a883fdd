package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
)

// TestTraceFlushWritesEverySpan holds -trace-dir's trace.json to the
// journal it is converted from: every committed span is an event.
func TestTraceFlushWritesEverySpan(t *testing.T) {
	dir := t.TempDir()
	reg := core.NewTelemetry()
	rec, err := core.NewRecorder(filepath.Join(dir, core.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachRecorder(rec)
	setTraceFlush(reg, dir)
	const n = 600
	for i := 0; i < n; i++ {
		reg.StartSpan("scan").End(nil)
	}
	traceFlush()

	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	if got := len(trace.TraceEvents); got != n {
		t.Errorf("trace.json has %d events, want %d", got, n)
	}
}

// TestFlushDatasetIsAllOrNothing: a dataset that cannot be written is an
// error, and nothing is left beside the target — no temporary file, no
// truncated dataset; one that can be written lands whole under its name.
func TestFlushDatasetIsAllOrNothing(t *testing.T) {
	ds := results.NewDataset(origin.Set{origin.AU}, 1)
	s := results.NewScanResult(origin.AU, proto.HTTP, 0)
	s.Add(results.HostRecord{Addr: ip.AddrFrom4(1), ProbeMask: 1, L7: true, Banner: "nginx"})
	if err := ds.Put(s); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	isDir := filepath.Join(dir, "taken.json")
	if err := os.Mkdir(isDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{isDir, filepath.Join(dir, "missing", "out.json")} {
		if err := flushDataset(path, ds); err == nil {
			t.Errorf("flushDataset(%s) succeeded", path)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("after failed flushes the directory holds %v (%v), want only the target directory", ents, err)
	}

	path := filepath.Join(dir, "out.json")
	if err := flushDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ds.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("written dataset differs from WriteJSON's bytes (%v)", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Errorf("after a flush the directory holds %v, want the target directory and out.json", ents)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"123", 123, true},
		{"64B", 64, true},
		{"1K", 1 << 10, true},
		{"1KB", 1 << 10, true},
		{"1KiB", 1 << 10, true},
		{"256MiB", 256 << 20, true},
		{"256mib", 256 << 20, true},
		{" 2 GiB ", 2 << 30, true},
		{"2G", 2 << 30, true},
		{"", 0, false},
		{"MiB", 0, false},
		{"-1MiB", 0, false},
		{"1.5GiB", 0, false},
		{"9999999999G", 0, false}, // overflows int64
	}
	for _, tc := range cases {
		got, err := parseByteSize(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseByteSize(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// FuzzReadHitlist feeds readHitlist hostile target files through a temp
// file. It must never panic. On success every target re-parses from its
// String() form to the same address, and there is one target per line that
// is neither blank nor a # comment. On failure the error names the file
// and, unless no line holds a target, the 1-based number of the first line
// that does not parse.
func FuzzReadHitlist(f *testing.F) {
	for _, seed := range []string{
		"2001:db8::1\n# comment\n\n10.0.0.1\n",
		"  2a00:100::5  \r\n2a00:100:0:0:0:0:0:ff\n",
		"::ffff:1.2.3.4\n::\n",
		"# only comments\n\n",
		"2001:db8::1\nnot-an-address\n",
		"1.2.3.256\n",
		"2001:db8::1%eth0\n",
		"",
	} {
		f.Add(seed)
	}
	path := filepath.Join(f.TempDir(), "hitlist.txt")
	f.Fuzz(func(t *testing.T, content string) {
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		targets, err := readHitlist(path)
		lines := strings.Split(content, "\n")
		if err == nil {
			var want int
			for _, line := range lines {
				if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
					want++
				}
			}
			if len(targets) != want {
				t.Fatalf("%d targets from %d address lines", len(targets), want)
			}
			for _, a := range targets {
				if back, perr := ip.ParseAddr(a.String()); perr != nil || back != a {
					t.Fatalf("target %v re-parses to %v, %v", a, back, perr)
				}
			}
			return
		}
		if !strings.HasPrefix(err.Error(), path+":") {
			t.Fatalf("error %q does not name the file", err)
		}
		for n, line := range lines {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if _, perr := ip.ParseAddr(line); perr != nil {
				if want := fmt.Sprintf("%s:%d: ", path, n+1); !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("error %q, want it to name line %d", err, n+1)
				}
				return
			}
		}
		if err.Error() != path+": no targets" {
			t.Fatalf("every address line parses, yet %v", err)
		}
	})
}

// mainArgsEnv, when set, makes the test binary run the command itself with
// these (space-separated) arguments instead of the tests.
const mainArgsEnv = "ORIGINSCAN_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"originscan"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// seedStdoutSHA256 pins TestStdoutIsAFunctionOfTheSeed's stdout (699
// lines), taken before a scan's drain and seal ran beside the next scan's
// sweep: it holds every change to the engine's scheduling to the bytes.
const seedStdoutSHA256 = "79fa5307060d96b1ac92bde79bcf14223e9458b7628f137517f46f8a3cd8b2ce"

// TestStdoutIsAFunctionOfTheSeed runs the command twice, at one and two
// scan workers: stdout must be byte-identical, equal the pinned digest and
// carry no wall-time line (the scan timing goes to stderr).
func TestStdoutIsAFunctionOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the study twice")
	}
	run := func(parallelism int) string {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=-scale 0.0001 -trials 2 -skip-followup -quiet -parallelism %d", mainArgsEnv, parallelism))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-parallelism %d: %v\nstderr: %s", parallelism, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "scans complete in") {
			t.Errorf("-parallelism %d: stderr has no timing line: %q", parallelism, stderr.String())
		}
		return stdout.String()
	}
	one, two := run(1), run(2)
	if strings.Contains(one, "scans complete in") || !strings.Contains(one, "§8") {
		t.Errorf("stdout has a timing line or no report:\n%s", one)
	}
	if one != two {
		t.Errorf("stdout at -parallelism 1 and 2 differ:\n--- 1 ---\n%s\n--- 2 ---\n%s", one, two)
	}
	if sum := sha256.Sum256([]byte(one)); hex.EncodeToString(sum[:]) != seedStdoutSHA256 {
		t.Errorf("stdout sha256 %x, %d lines; pinned %s", sum, strings.Count(one, "\n"), seedStdoutSHA256)
	}
}
