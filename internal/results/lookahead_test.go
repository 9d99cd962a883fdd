package results

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestReadJSONLookaheadTakesCandidates holds the look-ahead to the scans it
// is meant to decode, so the documents the differential tests run through
// it do exercise it: every scan after the first whose text ends in the
// separator WriteJSON writes, or ends the array, is taken decoded ahead,
// unless it is too long, its batch has no second candidate, or its
// candidate does not start where the scan before it ended.
func TestReadJSONLookaheadTakesCandidates(t *testing.T) {
	const small = `"targets":9,"records":[[1,3,2,0,1,5],["2a00::6",1,2,0,1,6]],"banners":["a"]`
	big := `"records":[` + string(bytes.Repeat([]byte(`[7,3,2,0,1,5],`), inlineBound/14)) + `[8]]`
	scans := func(sep string, fields ...string) []byte {
		var b bytes.Buffer
		b.WriteString(`{"origins":"AAE=","trials":2,"scans":[`)
		for i, f := range fields {
			if i > 0 {
				b.WriteString(sep)
			}
			fmt.Fprintf(&b, `{"origin":%d,"proto":%d,"trial":%d,%s}`, i%2, i/4, i/2%2, f)
		}
		b.WriteString("]}")
		return b.Bytes()
	}
	for _, tc := range []struct {
		name  string
		doc   []byte
		taken int
	}{
		{"one scan", scans(",", small), 0},
		{"two scans", scans(",", small, small), 0}, // a batch of one is decoded in line
		{"three scans", scans(",", small, small, small), 2},
		{"five scans", scans(",", small, small, small, small, small), 4},
		{"false boundary", scans(",", small, `"x":[{},{"origin":0}],`+small, small, small, small), 3},
		{"false end", scans(",", small, small, small, `"x":[{}],`+small), 2},
		{"whitespace", scans(", ", small, small, small, small, small), 0},
		{"oversize", scans(",", small, small, small, big, small, small, small, small), 6},
	} {
		for _, workers := range []int{2, 8} {
			d := &decoder{r: bytes.NewReader(tc.doc), buf: make([]byte, readWindow), mark: -1, la: &lookahead{workers: workers}}
			if _, err := d.dataset(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if d.la.taken != tc.taken {
				t.Errorf("%s, %d workers: %d scans taken decoded ahead, want %d", tc.name, workers, d.la.taken, tc.taken)
			}
		}
	}
}

// FuzzLookaheadMatchesInLine holds ReadJSON's look-ahead to the in-line
// decoder it stands in for: over any input, a decoder with workers gives
// the dataset, or the error at the offset, that one without gives.
func FuzzLookaheadMatchesInLine(f *testing.F) {
	const scan = `{"origin":0,"proto":0,"trial":0,"records":[[1,3,2,0,1,5],["2a00::6",1,2]],"banners":["a"]}`
	five := `{"origins":"AA==","trials":1,"scans":[` + scan + `,` + strings.ReplaceAll(scan, `"proto":0`, `"proto":1`) + `,` +
		strings.ReplaceAll(scan, `"proto":0`, `"proto":2`) + `,` + strings.ReplaceAll(scan, `"trial":0`, `"trial":1`) + `]}`
	f.Add([]byte(five))
	f.Add([]byte(strings.Replace(five, `"records"`, `"x":[{},{"origin":0}],"records"`, 2)))
	f.Add([]byte(strings.ReplaceAll(five, `},{"origin"`, `}, {"origin"`)))
	f.Add([]byte(strings.Replace(five, `[1,3,2,0,1,5]`, `[1,3,2,0,1,-5]`, 3)))
	f.Add([]byte(five[:len(five)-40]))
	f.Fuzz(func(t *testing.T, doc []byte) {
		read := func(la *lookahead) (*Dataset, string) {
			d := &decoder{r: bytes.NewReader(doc), buf: make([]byte, readWindow), mark: -1, la: la}
			ds, err := d.dataset()
			if err != nil {
				return nil, err.Error()
			}
			return ds, ""
		}
		want, wantErr := read(nil)
		got, gotErr := read(&lookahead{workers: 2})
		if gotErr != wantErr {
			t.Fatalf("with workers: %q; in line: %q", gotErr, wantErr)
		}
		if want != nil {
			if want.Trials != got.Trials || !slices.Equal(want.Origins, got.Origins) {
				t.Fatalf("header %v × %d, in line %v × %d", got.Origins, got.Trials, want.Origins, want.Trials)
			}
			if diff := want.Diff(got); diff != "" {
				t.Fatalf("decoded differently: %s", diff)
			}
		}
	})
}
