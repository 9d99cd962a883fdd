package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/world"
)

var (
	repOnce sync.Once
	repStu  *core.Study
	repErr  error
)

func study(t *testing.T) *core.Study {
	t.Helper()
	repOnce.Do(func() {
		repStu, repErr = core.New(context.Background(), experiment.Config{WorldSpec: world.TestSpec(42)})
		if repErr == nil {
			repErr = repStu.Run(context.Background())
		}
	})
	if repErr != nil {
		t.Fatal(repErr)
	}
	return repStu
}

func TestAllRendersEverySection(t *testing.T) {
	var b strings.Builder
	if err := All(context.Background(), &b, study(t)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 4a", "Figure 1", "Figure 2", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
		"Figure 10", "Figure 11", "Figure 12", "Figure 13", "Figure 14",
		"Figure 15", "Table 1", "Table 2", "Table 3",
		"§3", "§4.4", "§5.2", "§5.3", "§7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	// Every study origin appears somewhere.
	for _, o := range origin.StudySet() {
		if !strings.Contains(out, o.String()) {
			t.Errorf("report never mentions origin %v", o)
		}
	}
	// The report carries real percentages, not stubs.
	if strings.Count(out, "%") < 200 {
		t.Error("report suspiciously empty of numbers")
	}
}

func TestCoverageTableHasAllTrials(t *testing.T) {
	var b strings.Builder
	Tab4Coverage(&b, study(t))
	out := b.String()
	for _, p := range []string{"[HTTP]", "[HTTPS]", "[SSH]"} {
		if !strings.Contains(out, p) {
			t.Errorf("coverage table missing %s", p)
		}
	}
	if !strings.Contains(out, "mean") {
		t.Error("coverage table missing the mean row")
	}
}

func TestFig12TimelineShape(t *testing.T) {
	var b strings.Builder
	Fig12(&b, study(t))
	out := b.String()
	// US1's timeline line should contain late-scan blocking marks.
	lines := strings.Split(out, "\n")
	var us1 string
	for _, l := range lines {
		if strings.Contains(l, "US1") {
			us1 = l
		}
	}
	if us1 == "" {
		t.Fatal("no US1 timeline")
	}
	if !strings.ContainsAny(us1, "#+-") {
		t.Errorf("US1 timeline shows no blocking: %q", us1)
	}
}

func TestFig13RetrySection(t *testing.T) {
	var b strings.Builder
	if err := Fig13(context.Background(), &b, study(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "success by retries") {
		t.Error("retry curves missing")
	}
}

func TestCSVExporters(t *testing.T) {
	s := study(t)
	cases := []struct {
		name string
		fn   func() (string, error)
	}{
		{"coverage", func() (string, error) {
			var b strings.Builder
			err := CSVCoverage(&b, s)
			return b.String(), err
		}},
		{"breakdown", func() (string, error) {
			var b strings.Builder
			err := CSVMissingBreakdown(&b, s)
			return b.String(), err
		}},
		{"spread", func() (string, error) {
			var b strings.Builder
			err := CSVSpreadCDF(&b, s)
			return b.String(), err
		}},
		{"multiorigin", func() (string, error) {
			var b strings.Builder
			err := CSVMultiOrigin(context.Background(), &b, s)
			return b.String(), err
		}},
		{"timeline", func() (string, error) {
			var b strings.Builder
			err := CSVTimeline(&b, s, []origin.ID{origin.US1, origin.US64}, 0)
			return b.String(), err
		}},
		{"countries", func() (string, error) {
			var b strings.Builder
			err := CSVCountryTable(&b, s)
			return b.String(), err
		}},
	}
	for _, c := range cases {
		out, err := c.fn()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		lines := strings.Count(out, "\n")
		if lines < 3 {
			t.Errorf("%s: only %d rows", c.name, lines)
		}
		header := out[:strings.IndexByte(out, '\n')]
		if !strings.Contains(header, ",") {
			t.Errorf("%s: no CSV header: %q", c.name, header)
		}
	}
}

// render writes report.All and every CSV exporter into one buffer.
func render(t *testing.T, s *core.Study) []byte {
	t.Helper()
	ctx := context.Background()
	var b bytes.Buffer
	for _, fn := range []func() error{
		func() error { return All(ctx, &b, s) },
		func() error { return CSVCoverage(&b, s) },
		func() error { return CSVMissingBreakdown(&b, s) },
		func() error { return CSVSpreadCDF(&b, s) },
		func() error { return CSVMultiOrigin(ctx, &b, s) },
		func() error { return CSVTimeline(&b, s, []origin.ID{origin.US1, origin.US64}, 0) },
		func() error { return CSVCountryTable(&b, s) },
	} {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestAllDeterministic: a report is a function of its dataset. Ties in
// every ranking are broken by a total order, never by map iteration, so
// rendering the same dataset again — with the per-protocol caches dropped
// by UseDataset in between — gives the same bytes.
func TestAllDeterministic(t *testing.T) {
	s := study(t)
	want := render(t, s)
	for i := 1; i < 5; i++ {
		s.UseDataset(s.DS)
		if got := render(t, s); !bytes.Equal(got, want) {
			t.Fatalf("render %d differs from the first (%d vs %d bytes)", i+1, len(got), len(want))
		}
	}
}

// allGoldenSHA256 is the digest of report.All over the TestSpec(42) study.
// A change to any analysis or rendering that moves a single byte of the
// report must update it deliberately.
const allGoldenSHA256 = "ae8868fa3248eafa351e0b42298141ec495c1886565b74b46bdd6d7f71b73b32"

func TestAllGolden(t *testing.T) {
	s := study(t)
	s.UseDataset(s.DS)
	var b bytes.Buffer
	if err := All(context.Background(), &b, s); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); got != allGoldenSHA256 {
		t.Errorf("report.All digest %s, want %s", got, allGoldenSHA256)
	}
}

// TestSec8OneOrigin: a one-origin study has no origin pair to compare, and
// § 8 says so instead of printing a 0/0 mean.
func TestSec8OneOrigin(t *testing.T) {
	s, err := core.New(context.Background(), experiment.Config{
		WorldSpec: world.TestSpec(42), Origins: origin.Set{origin.US1}, Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	Sec8Agreement(&b, s)
	out := b.String()
	if strings.Contains(out, "NaN") || strings.Count(out, "no origin pair to compare") != len(proto.All()) {
		t.Errorf("one-origin § 8:\n%s", out)
	}
}
