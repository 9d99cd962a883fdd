package results_test

// The dataset codec runs on GOMAXPROCS workers when it has more than one:
// WriteJSON encodes scans into buffers of their own, ReadJSON decodes scans
// ahead of its cursor. Neither may show it: the same bytes, the same
// dataset, the same error at the same offset at every GOMAXPROCS, and no
// more memory than a fixed bound past the decoded columns.

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
)

// procsUnderTest are the GOMAXPROCS values the codec is held to: the
// one-goroutine path, this box's two cores, and more workers than cores.
var procsUnderTest = []int{1, 2, 8}

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// bigScan returns a scan of rows IPv4 hosts, a banner on every fourth.
func bigScan(o origin.ID, p proto.Protocol, trial, rows int) *results.ScanResult {
	s := results.NewScanResultSized(o, p, trial, rows)
	s.Targets, s.ProbesSent = uint64(rows)*4, uint64(rows)*8
	banners := []string{"nginx", "OpenSSH_8.2p1 <Ubuntu>", "caf\u00e9"}
	for i := range rows {
		r := results.HostRecord{Addr: ip.AddrFrom4(uint32(i)*2654435761 + 1), ProbeMask: uint8(i%3 + 1), Attempts: i % 3}
		if i%4 == 0 {
			r.L7, r.Banner = true, banners[i/4%3]
		}
		s.Add(r)
	}
	return s
}

// oversizeDataset is a dataset whose second scan WriteJSON must stream in
// line, between small scans it hands to workers.
func oversizeDataset(tb testing.TB) *results.Dataset {
	ds := results.NewDataset(origin.Set{origin.AU, origin.BR}, 2)
	rows := results.InlineBound/40 + 1 // over the bound at any row width
	for i, s := range []*results.ScanResult{
		bigScan(origin.AU, proto.HTTP, 0, 50),
		bigScan(origin.AU, proto.HTTP, 1, rows),
		bigScan(origin.AU, proto.SSH, 0, 70),
		bigScan(origin.BR, proto.HTTP, 0, 30),
		bigScan(origin.BR, proto.HTTPS, 1, 90),
	} {
		if big := results.TextBound(s) > results.InlineBound; big != (i == 1) {
			tb.Fatalf("scan %d: over the in-line bound %v, want %v", i, big, i == 1)
		}
		if err := ds.Put(s); err != nil {
			tb.Fatal(err)
		}
	}
	return ds
}

// TestWriteJSONSameBytesAtAnyGOMAXPROCS: whatever the number of workers,
// WriteJSON writes the same bytes — for the golden v4 dataset and a real
// IPv6 study, which must reproduce their documents exactly, for an empty
// dataset and a one-scan one, which never start a worker, and for a
// dataset with a scan over the in-line bound between scans the workers
// encode. A writer that fails, or writes short, fails the call with its
// error at every width.
func TestWriteJSONSameBytesAtAnyGOMAXPROCS(t *testing.T) {
	one := results.NewDataset(origin.Set{origin.AU}, 1)
	if err := one.Put(bigScan(origin.AU, proto.SSH, 0, 300)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ds   *results.Dataset
		want []byte // the document it was read from, if any
	}{
		{"empty", results.NewDataset(nil, 1), nil},
		{"one scan", one, nil},
		{"oversize scan", oversizeDataset(t), nil},
	}
	for _, c := range codecDocs(t) {
		cases = append(cases, struct {
			name string
			ds   *results.Dataset
			want []byte
		}{c.name, decodeDoc(t, c.doc), c.doc})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ref []byte
			for _, procs := range procsUnderTest {
				var got []byte
				atProcs(procs, func() { got = encode(t, c.ds) })
				switch {
				case c.want != nil && !bytes.Equal(got, c.want):
					t.Fatalf("GOMAXPROCS %d: %d bytes, not the %d-byte document the dataset was read from", procs, len(got), len(c.want))
				case ref == nil:
					ref = got
				case !bytes.Equal(got, ref):
					t.Fatalf("GOMAXPROCS %d: %d bytes differ from GOMAXPROCS %d's %d", procs, len(got), procsUnderTest[0], len(ref))
				}
				if c.want == nil {
					// What was written reads back to the dataset.
					if d := sameDataset(c.ds, decodeDoc(t, got)); d != "" {
						t.Fatalf("GOMAXPROCS %d: read back differently: %s", procs, d)
					}
				}
			}
			for _, procs := range procsUnderTest {
				for _, w := range []io.Writer{&failingWriter{after: len(ref) / 2}, &shortWriter{}} {
					var err error
					atProcs(procs, func() { err = c.ds.WriteJSON(w) })
					want := errDiskFull
					if _, short := w.(*shortWriter); short {
						want = io.ErrShortWrite
					}
					if !errors.Is(err, want) {
						t.Errorf("GOMAXPROCS %d, %T: err = %v, want %v", procs, w, err, want)
					}
				}
			}
		})
	}
}

var errDiskFull = errors.New("disk full")

// failingWriter takes after bytes, then fails every write.
type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.after {
		n := w.after
		w.after = 0
		return n, errDiskFull
	}
	w.after -= len(p)
	return len(p), nil
}

// shortWriter takes one byte less than it is given and reports no error.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return max(0, len(p)-1), nil }

// TestReadJSONSameAtAnyGOMAXPROCS: every test document decodes to the same
// dataset, or fails with the same error at the same offset, at every
// GOMAXPROCS — the look-ahead's candidates are taken only where the
// in-line decoder would have read the same scan. Every strict prefix of a
// multi-scan document still fails, and says the input ended.
func TestReadJSONSameAtAnyGOMAXPROCS(t *testing.T) {
	docs := map[string][]byte{}
	for _, c := range codecDocs(t) {
		docs[c.name] = c.doc
	}
	for _, set := range []map[string]string{acceptDocs, rejectDocs, strictOnly} {
		for name, doc := range set {
			docs[name] = []byte(doc)
		}
	}
	verdict := func(doc []byte) (*results.Dataset, string) {
		ds, err := results.ReadJSON(bytes.NewReader(doc))
		if err != nil {
			return nil, err.Error()
		}
		return ds, ""
	}
	for name, doc := range docs {
		var ref *results.Dataset
		var refErr string
		atProcs(1, func() { ref, refErr = verdict(doc) })
		for _, procs := range procsUnderTest[1:] {
			var got *results.Dataset
			var gotErr string
			atProcs(procs, func() { got, gotErr = verdict(doc) })
			switch {
			case gotErr != refErr:
				t.Errorf("%s: GOMAXPROCS %d: error %q, at 1 %q", name, procs, gotErr, refErr)
			case got != nil:
				if d := sameDataset(ref, got); d != "" {
					t.Errorf("%s: GOMAXPROCS %d decodes differently: %s", name, procs, d)
				}
			}
		}
	}
	doc := strings.TrimSpace(acceptDocs["false boundary"])
	atProcs(2, func() {
		for n := 0; n < len(doc); n++ {
			_, err := results.ReadJSON(strings.NewReader(doc[:n]))
			if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
				t.Fatalf("prefix of %d bytes: %v, want unexpected EOF", n, err)
			}
		}
	})
}

// TestJSONCodecMemoryIsBounded: the codec never holds a large scan as
// text. Writing a one-scan document several times the in-line bound
// allocates a fixed budget, and reading it back the decoded columns plus
// that budget; with the scan between two small ones, reading may add the
// look-ahead's bound for the workers it has. The rows carry long banners,
// so the text is many times the columns it decodes to.
func TestJSONCodecMemoryIsBounded(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const fixed = 1 << 20
	long := []string{strings.Repeat("a", 2000), strings.Repeat("b", 2100), strings.Repeat("c", 2200)}
	scan := func(o origin.ID, p proto.Protocol, rows int) *results.ScanResult {
		s := results.NewScanResult(o, p, 0)
		for i := range rows {
			s.Add(results.HostRecord{Addr: ip.AddrFrom4(uint32(i + 1)), ProbeMask: 1, L7: true, Banner: long[i%3]})
		}
		return s
	}
	rows := 3 * results.InlineBound / 2000
	// What the decoder's columns cost, growth included: each append that
	// fills them doubles their capacity, and the last cuts them to size.
	columns := uint64(5 * 24 * rows)
	oneScan := results.NewDataset(origin.Set{origin.AU}, 1)
	if err := oneScan.Put(scan(origin.AU, proto.HTTP, rows)); err != nil {
		t.Fatal(err)
	}
	between := results.NewDataset(origin.Set{origin.AU}, 1)
	for i, p := range proto.All() {
		if err := between.Put(scan(origin.AU, p, []int{3, 2 * rows, 3}[i])); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	for _, c := range []struct {
		name          string
		ds            *results.Dataset
		columns, read uint64 // the read budget: columns + fixed + the look-ahead
	}{
		{"one scan", oneScan, columns, 0},
		{"between small scans", between, 2 * columns, uint64(results.ReadAheadBound(2))},
	} {
		atProcs(2, func() {
			doc := encode(t, c.ds)
			if len(doc) < 3*results.InlineBound {
				t.Fatalf("%s: a %d-byte document is too small to tell", c.name, len(doc))
			}
			a := allocated(func() { c.ds.WriteJSON(io.Discard) })
			t.Logf("%s: WriteJSON allocates %d B", c.name, a)
			if a > fixed {
				t.Errorf("%s: WriteJSON of %d bytes allocates %d B, budget %d", c.name, len(doc), a, fixed)
			}
			budget := c.columns + fixed + c.read
			a = allocated(func() { decodeDoc(t, doc) })
			t.Logf("%s: ReadJSON allocates %d B", c.name, a)
			if a > budget {
				t.Errorf("%s: ReadJSON of %d bytes allocates %d B, budget %d", c.name, len(doc), a, budget)
			}
			t.Logf("%s: %d-byte document, columns %d B", c.name, len(doc), c.columns)
		})
	}
}
