package results_test

// The dataset decoder's contract, held from outside the package: for every
// input, ReadJSON accepts exactly what the json.Decoder.Token implementation
// it replaced (oracle_test.go) accepts and decodes an Equal dataset — except
// for the inputs strictOnly names, which the oracle loaded wrong or
// invisibly and ReadJSON refuses.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
)

func encode(tb testing.TB, ds *results.Dataset) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// goldenJSON is the repository's golden v4 dataset: 66 scans, 45,822 rows.
func goldenJSON(tb testing.TB) []byte {
	tb.Helper()
	f, err := os.Open("../../testdata/golden_dataset.json.gz")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// hitlistStudy runs a real IPv6 study once: the bench's `hitlist` workload
// at TestV6Spec size (21 scans over a ≈400-target hitlist).
var hitlistStudy = sync.OnceValues(func() ([]byte, error) {
	ctx := context.Background()
	stu, err := experiment.NewStudy(ctx, experiment.Config{
		WorldSpec: world.Spec{Seed: 17},
		Family:    world.FamilyIPv6,
		V6Spec:    world.TestV6Spec(17),
		Trials:    1,
	})
	if err != nil {
		return nil, err
	}
	ds, err := stu.Run(ctx)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = ds.WriteJSON(&buf)
	return buf.Bytes(), err
})

func hitlistJSON(tb testing.TB) []byte {
	tb.Helper()
	raw, err := hitlistStudy()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// scanDoc wraps scan-object fields in a one-origin (AU), two-trial dataset.
func scanDoc(fields string) string {
	return `{"origins":"AA==","trials":2,"scans":[{"origin":0,"proto":0,"trial":0,` + fields + `}]}`
}

// smallDoc is a valid dataset with a v4 and a v6 row, banners, whitespace
// and an escape: the document the prefix and chunked-reader tests cut up.
const smallDoc = `{"origins":"AAE=", "trials":2, "scans":[
 {"origin":1,"proto":2,"trial":1,"targets":10,"probes":20,"synacks":3,"rsts":1,"invalid":0,
  "records":[[167772161,3,2,0,1,5000000000],["2a00:1::2b",1,0,4,2,18446744073]],
  "banners":["OpenSSH_8.2","caf\u00e9"]},
 {"origin":0,"proto":0,"trial":0,"targets":0,"probes":0,"synacks":0,"rsts":0,"invalid":0,"records":null}
]}
`

// widenDoc's scan lists IPv4 records, then an IPv6 one, then IPv4 again:
// the decoder's address column starts at 4 bytes a row and widens at the
// fourth record, keeping the rows before it.
var widenDoc = scanDoc(`"records":[[10,1,2,0,1,5],[4294967295,1,2,0,1,6],[7,3,0,0,2,7],["2a00:1::2b",1,2,4,2,8],[11,1,2]],"banners":["a","b","","c","d"]`)

// scansDoc wraps scan objects in a two-origin (AU, BR), two-trial dataset:
// scan i is origin i%2, protocol i/4, trial i/2%2, plus its fields. The
// scans are joined as WriteJSON joins them unless sep says otherwise, so
// the decoder's look-ahead cuts them into candidates.
func scansDoc(sep string, fields ...string) string {
	var b strings.Builder
	b.WriteString(`{"origins":"AAE=","trials":2,"scans":[`)
	for i, f := range fields {
		if i > 0 {
			b.WriteString(sep)
		}
		fmt.Fprintf(&b, `{"origin":%d,"proto":%d,"trial":%d,%s}`, i%2, i/4, i/2%2, f)
	}
	b.WriteString("]}\n")
	return b.String()
}

// fiveScans are the fields of five small scans, each with a banner.
var fiveScans = []string{
	`"targets":9,"records":[[1,3,2,0,1,5],[2,1,0,0,0,6]],"banners":["a"]`,
	`"targets":9,"records":[[3,3,2,0,1,5],[4,1,2,4,2,6]],"banners":["b","c"]`,
	`"targets":9,"records":[[5,3,2,0,1,5],["2a00::6",1,2,0,1,6]],"banners":["d"]`,
	`"targets":9,"records":[[7,3,2,0,1,5]],"banners":["e"]`,
	`"targets":9,"records":[[9,3,2,0,1,5],[10,3,0,0,0,7]]`,
}

// withScan returns fiveScans with scan i's fields replaced.
func withScan(i int, fields string) []string {
	scans := slices.Clone(fiveScans)
	scans[i] = fields
	return scans
}

// oversizeScans puts a scan of more than results.InlineBound bytes of text
// between small ones, three before it and four after: the look-ahead must
// leave it to the in-line decoder and still take the scans around it.
func oversizeScans() []string {
	var b strings.Builder
	b.WriteString(`"targets":9,"records":[`)
	for i := 0; b.Len() <= results.InlineBound; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,3,2,0,1,%d]", 100+i, 1000000+i)
	}
	b.WriteByte(']')
	return append(append(slices.Clone(fiveScans[:3]), b.String()), fiveScans[1:]...)
}

// acceptDocs are hand-written documents both decoders must accept, with
// Equal results: everything WriteJSON never emits but the format allows.
var acceptDocs = map[string]string{
	"small":          smallDoc,
	"v4 then v6":     widenDoc,
	"minimal":        `{"trials":1}`,
	"whitespace":     " \t\r\n{ \"origins\" : \"AA==\" ,\n\"trials\"\t:\r1 , \"scans\" : [ { \"origin\" : 0 , \"proto\" : 1 , \"trial\" : 0 , \"records\" : [ [ 7 , 1 , 2 , 0 , 1 , 9 ] , [ 8 ] ] , \"banners\" : [ \"a\" , \"b\" ] } ] } \n\t",
	"reordered keys": `{"scans":[{"banners":["x","y"],"records":[[5,3,2,0,1,1],[6,3,2,0,1,2]],"trial":1,"proto":2,"origin":0}],"trials":2,"origins":"AA=="}`,
	"duplicate keys": `{"origins":"AA==","origins":"AQ==","trials":9,"trials":2,"scans":[{"origin":1,"origin":0,"proto":0,"trial":0,` +
		`"banners":["a"],"records":[[1,1,2]],"records":[[2,1,2],[3]],"banners":["b","c","d","e"]}],` +
		`"scans":[{"origin":1,"proto":0,"trial":1}]}`,
	"unknown fields": `{"version":2,"meta":{"a":[1,-2.5e+3,true,false,null,{"b":"c\n"}],"":{}},"origins":"AA==","trials":1,` +
		`"scans":[{"origin":0,"proto":0,"trial":0,"note":"x","nested":[[],{},[{"k":[0.0,1E9,-0]}]],"records":[[1]]}],"tail":[]}`,
	"null arrays":        `{"origins":null,"trials":1,"scans":null}`,
	"null records":       scanDoc(`"records":null,"banners":null`),
	"empty arrays":       scanDoc(`"records":[],"banners":[]`),
	"empty tuple":        scanDoc(`"records":[[]]`),
	"short tuples":       scanDoc(`"records":[[9],[10,3],[11,3,2],[12,3,2,1],[13,3,2,1,4]]`),
	"long tuples":        scanDoc(`"records":[[9,3,2,0,1,77,0,18446744073709551615,5]]`),
	"unsorted":           scanDoc(`"records":[[30,1,2],[10,1,2],[20,1,2]],"banners":["c","a","b"]`),
	"duplicate address":  scanDoc(`"records":[[10,1,2,0,1,5],[10,3,2,0,2,6],["::ffff:0.0.0.10",0,0,3,3,7]],"banners":["a","b","c"]`),
	"more banners":       scanDoc(`"records":[[1,1,2]],"banners":["a","b","c"]`),
	"fewer banners":      scanDoc(`"records":[[1,1,2],[2,1,2],[3,1,2]],"banners":["a"]`),
	"banners first":      scanDoc(`"banners":["a","b"],"records":[[1,1,2],[2,1,2]]`),
	"unknown flag bits":  scanDoc(`"records":[[1,1,255],[2,1,18446744073709551615],[3,1,4]]`),
	"column maxima":      scanDoc(`"records":[[4294967295,255,3,255,2147483647,9223372036854775807]],"targets":18446744073709551615`),
	"escaped keys":       `{"\u006frigins":"AA==","tri\u0061ls":1,"scans":[{"origin":0,"proto":0,"trial":0,"\u0072ecords":[[1,1,2]],"b\u0061nners":["k"]}]}`,
	"escaped origins":    `{"origins":"A\u0041\u003d=","trials":1}`,
	"origins newline":    `{"origins":"AAEC\r\nAwQ=","trials":1}`,
	"escaped banners":    scanDoc(`"records":[[1,1,2],[2,1,2],[3,1,2],[4,1,2],[5,1,2]],"banners":["a\"b\\c\/d\b\f\n\r\t","\u00e9\u2028","\ud83d\ude00","\ud800","\udc00x\ud800"]`),
	"non-ascii banners":  scanDoc(`"records":[[1,1,2],[2,1,2]],"banners":["café ☕","` + "\x7f" + `del"]`),
	"invalid utf8":       scanDoc(`"records":[[1,1,2],[2,1,2]],"banners":["` + "a\xffb\xc0\x80" + `","` + "\xed\xa0\x80" + `"]`),
	"escaped v6 address": scanDoc(`"records":[["2001:db8::\u0031",1,2],["2001:DB8:0:0:0:0:0:2",1,2],["::",0,0]]`),
	"repeated banners":   scanDoc(`"records":[[1,1,2],[2,1,2],[3,1,2],[4,1,2]],"banners":["nginx","nginx","","nginx"]`),
	"long string": scanDoc(`"records":[[1,1,2],[2,1,2]],"banners":["` + strings.Repeat("x", 200<<10) + `","` +
		strings.Repeat("y", 70<<10) + `\n"],"` + strings.Repeat("k", 65<<10) + `":"` + strings.Repeat("z", 130<<10) + `"`),
	"identical rescans": `{"origins":"AA==","trials":1,"scans":[{"origin":0,"proto":0,"trial":0,"records":[[1,1,2]]},{"origin":0,"proto":0,"trial":0,"records":[[1,1,2]]}]}`,
	"deep unknown":      `{"trials":1,"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,

	// Multi-scan documents, whose scans after the first the decoder's
	// look-ahead cuts into candidates and decodes on workers.
	"five scans": scansDoc(",", fiveScans...),
	// The second scan's unknown field holds the separator the look-ahead
	// cuts candidates at, so its candidate ends inside that field.
	"false boundary": scansDoc(",", withScan(1, `"x":[{},{"origin":0}],`+fiveScans[1])...),
	"false boundary in a banner": scansDoc(",",
		withScan(2, `"records":[[5,3,2,0,1,5],[6,3,2,0,1,5]],"banners":["},{\"origin\":","}"]`)...),
	"whitespace between scans": scansDoc(", ", fiveScans...),
	"newlines between scans":   scansDoc("\n,\n", fiveScans...),
	"oversize scan":            scansDoc(",", oversizeScans()...),
}

// rejectDocs holds one sentinel per class of malformed input; both
// decoders must refuse each.
var rejectDocs = map[string]string{
	"empty":                    ``,
	"not json":                 `not json`,
	"top-level array":          `[]`,
	"top-level null":           `null`,
	"no trials":                `{}`,
	"zero trials":              `{"trials":0}`,
	"huge trials":              `{"trials":65}`,
	"bad literal":              `{"trials":1,"scans":nul}`,
	"bad literal in skip":      `{"trials":1,"x":[tru]}`,
	"literal for number":       `{"trials":true}`,
	"null trials":              `{"trials":null}`,
	"string for number":        `{"trials":"1"}`,
	"missing colon":            `{"trials" 1}`,
	"missing comma":            `{"trials":1 "scans":null}`,
	"missing tuple comma":      scanDoc(`"records":[[1 2]]`),
	"missing array comma":      scanDoc(`"records":[[1][2]]`),
	"trailing object comma":    `{"trials":1,}`,
	"trailing array comma":     scanDoc(`"records":[[1,1,2],]`),
	"trailing tuple comma":     scanDoc(`"records":[[1,1,]]`),
	"leading comma":            scanDoc(`"records":[,[1]]`),
	"double comma":             scanDoc(`"records":[[1],,[2]]`),
	"mismatched close":         scanDoc(`"records":[[1,1,2}]`),
	"unquoted key":             `{trials:1}`,
	"number key":               `{1:1}`,
	"negative":                 `{"trials":-1}`,
	"fraction":                 `{"trials":1.0}`,
	"exponent":                 `{"trials":1e0}`,
	"leading zero":             `{"trials":01}`,
	"plus sign":                `{"trials":+1}`,
	"overflow 8 bits":          `{"origins":"AA==","trials":1,"scans":[{"origin":256}]}`,
	"overflow 32 bits":         `{"trials":4294967296}`,
	"overflow 32-bit address":  scanDoc(`"records":[[4294967296]]`),
	"overflow 64 bits":         scanDoc(`"targets":18446744073709551616`),
	"overflow 64 bits by 10x":  scanDoc(`"targets":184467440737095516150`),
	"overflow in extra column": scanDoc(`"records":[[1,1,2,0,1,5,18446744073709551616]]`),
	"string in tuple":          scanDoc(`"records":[[1,"1"]]`),
	"null address":             scanDoc(`"records":[[null]]`),
	"array address":            scanDoc(`"records":[[[1]]]`),
	"bad v6 address":           scanDoc(`"records":[["2001:db8"]]`),
	"zoned v6 address":         scanDoc(`"records":[["fe80::1%eth0"]]`),
	"null record":              scanDoc(`"records":[null]`),
	"null banner":              scanDoc(`"banners":[null]`),
	"number banner":            scanDoc(`"banners":[1]`),
	"null scan":                `{"trials":1,"scans":[null]}`,
	"scans object":             `{"trials":1,"scans":{}}`,
	"origins array":            `{"origins":[0],"trials":1}`,
	"bad base64":               `{"origins":"A","trials":1}`,
	"control byte in string":   scanDoc(`"banners":["a` + "\n" + `b"]`),
	"control byte in key":      "{\"tri\x00als\":1}",
	"bad escape":               scanDoc(`"banners":["\x41"]`),
	"bad unicode escape":       scanDoc(`"banners":["\u12g4"]`),
	"escape at end":            scanDoc(`"banners":["abc\`),
	"unterminated string":      `{"trials":1,"x":"abc`,
	"unterminated document":    `{"trials":1`,
	"depth bomb":               `{"trials":1,"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	"unclosed depth bomb":      `{"trials":1,"x":` + strings.Repeat(`{"a":`, 100000),
	"bad number in skip":       `{"trials":1,"x":[1.]}`,
	"bad exponent in skip":     `{"trials":1,"x":1e+}`,
	"lone minus in skip":       `{"trials":1,"x":-}`,
	"leading zero in skip":     `{"trials":1,"x":[01]}`,
	"conflicting rescans":      `{"origins":"AA==","trials":1,"scans":[{"origin":0,"proto":0,"trial":0,"records":[[1,1,2]]},{"origin":0,"proto":0,"trial":0,"records":[[2,1,2]]}]}`,

	// Later scans of a multi-scan document, which the decoder's look-ahead
	// decodes on workers: still the in-line decoder's error.
	"bad record in scan 2 of 5": scansDoc(",", withScan(2, `"records":[[5,3,2,0,1,5],[6,3,2,0,1,"x"]]`)...),
	"bad fields in scans 2-4":   scansDoc(",", fiveScans[0], fiveScans[1], `"records":[[-1]]`, `"proto":9`, `"x":tru`),
	"truncated in scan 3 of 5":  truncated(scansDoc(",", fiveScans...), `[[7,3,2`),
}

// truncated cuts doc just after the first occurrence of at.
func truncated(doc, at string) string {
	return doc[:strings.Index(doc, at)+len(at)]
}

// strictOnly are the documents ReadJSON refuses and the oracle accepted —
// DESIGN.md § 5 enumerates the classes. Each value is what the oracle made
// of it: a truncated field, a scan no reader of the dataset would ever
// visit, or bytes it never looked at.
var strictOnly = map[string]string{
	"probeMask 257 loads as 1":        scanDoc(`"records":[[1,257,2,0,1,5]]`),
	"fail 256 loads as 0":             scanDoc(`"records":[[1,1,0,256,1,5]]`),
	"attempts 2^31 loads negative":    scanDoc(`"records":[[1,1,2,0,2147483648,5]]`),
	"attempts 2^32 loads as 0":        scanDoc(`"records":[[1,1,2,0,4294967296,5]]`),
	"t 2^63 loads negative":           scanDoc(`"records":[[1,1,2,0,1,9223372036854775808]]`),
	"trial == trials is invisible":    `{"origins":"AA==","trials":2,"scans":[{"origin":0,"proto":0,"trial":2}]}`,
	"foreign origin is invisible":     `{"origins":"AA==","trials":2,"scans":[{"origin":1,"proto":0,"trial":0}]}`,
	"no origins, one scan":            `{"trials":2,"scans":[{"origin":0,"proto":0,"trial":0}]}`,
	"unknown protocol is invisible":   `{"origins":"AA==","trials":2,"scans":[{"origin":0,"proto":3,"trial":0}]}`,
	"trials declared after the scan":  `{"origins":"AA==","scans":[{"origin":0,"proto":0,"trial":1}],"trials":1}`,
	"bytes after the closing brace":   `{"trials":1}x`,
	"second document after the first": `{"trials":1}{"trials":1}`,
}

// sameDataset is Equal plus the header fields Diff does not look at.
func sameDataset(a, b *results.Dataset) string {
	if a.Trials != b.Trials || !slices.Equal(a.Origins, b.Origins) {
		return fmt.Sprintf("header %v × %d trials vs %v × %d trials", a.Origins, a.Trials, b.Origins, b.Trials)
	}
	return a.Diff(b)
}

// chunkReader hands out its data in reads of the given sizes, repeating
// the last size — a stand-in for a pipe, a socket or a gzip stream.
type chunkReader struct {
	data  []byte
	sizes []int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(c.sizes[0], len(p), len(c.data))
	if len(c.sizes) > 1 {
		c.sizes = c.sizes[1:]
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

var (
	byteOffset = regexp.MustCompile(`byte \d+`)
	// strictErr matches the errors of strictOnly's classes: the only ones
	// ReadJSON may give for a document the oracle accepts.
	strictErr = regexp.MustCompile(`(probeMask|fail|attempts|tNanos): byte \d+: \d+ does not fit \d+ bits$` +
		`|origin is not in the dataset's origins$|unknown protocol$|dataset has \d+ trials$` +
		`|expected end of input after the dataset object`)
)

// checkOracle holds one document to the contract and returns ReadJSON's
// verdict. A document the oracle refuses must be refused; one it accepts
// must decode to the same dataset, or be refused with one of strictErr's
// reasons. However the bytes arrive — at once, or 1, 7, then 4096 at a
// time — the result is the same, so the decoder holds no state a refill
// can tear and needs no more of the file than its window.
func checkOracle(tb testing.TB, doc []byte) (*results.Dataset, error) {
	tb.Helper()
	want, wantErr := results.ReadJSONOracle(bytes.NewReader(doc))
	got, err := results.ReadJSON(bytes.NewReader(doc))
	switch {
	case err != nil && !strings.HasPrefix(err.Error(), "results: decoding dataset: "):
		tb.Fatalf("error %q lacks the package prefix", err)
	case err != nil && !byteOffset.MatchString(err.Error()):
		tb.Fatalf("error %q carries no byte offset", err)
	case wantErr != nil && err == nil:
		tb.Fatalf("accepted a document the oracle refuses (%v)", wantErr)
	case wantErr == nil && err != nil && !strictErr.MatchString(err.Error()):
		tb.Fatalf("refused a document the oracle accepts: %v", err)
	case wantErr == nil && err == nil:
		if d := sameDataset(want, got); d != "" {
			tb.Fatalf("decoded differently from the oracle: %s", d)
		}
	}
	for _, sizes := range [][]int{{1}, {1, 7, 4096}} {
		chunked, cerr := results.ReadJSON(&chunkReader{data: doc, sizes: sizes})
		if (cerr == nil) != (err == nil) || (err != nil && cerr.Error() != err.Error()) {
			tb.Fatalf("reads of %v bytes: %v; whole: %v", sizes, cerr, err)
		}
		if err == nil {
			if d := sameDataset(got, chunked); d != "" {
				tb.Fatalf("reads of %v bytes decode differently: %s", sizes, d)
			}
		}
	}
	return got, err
}

func TestReadJSONMatchesOracle(t *testing.T) {
	docs := map[string][]byte{
		"golden dataset": goldenJSON(t),
		"hitlist study":  hitlistJSON(t),
		"sample":         encode(t, results.Sample()),
	}
	for name, doc := range acceptDocs {
		docs[name] = []byte(doc)
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			ds, err := checkOracle(t, doc)
			if err != nil {
				t.Fatalf("both decoders refuse it: %v", err)
			}
			// What was read writes back to what reads the same again.
			if _, err := checkOracle(t, encode(t, ds)); err != nil {
				t.Fatalf("re-encoded dataset refused: %v", err)
			}
		})
	}
}

// TestReadJSONHostileInputs: malformed input is an error — never a panic,
// never a short dataset. Every strict prefix of a valid document is
// malformed, so a truncated file cannot load as a smaller study.
func TestReadJSONHostileInputs(t *testing.T) {
	for name, doc := range rejectDocs {
		t.Run(name, func(t *testing.T) {
			if _, err := checkOracle(t, []byte(doc)); err == nil {
				t.Fatal("both decoders accept it")
			}
		})
	}
	t.Run("every strict prefix", func(t *testing.T) {
		doc := strings.TrimSpace(smallDoc)
		if _, err := results.ReadJSON(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(doc); n++ {
			if _, err := results.ReadJSON(strings.NewReader(doc[:n])); err == nil {
				t.Fatalf("prefix of %d bytes accepted: %q", n, doc[:n])
			} else if !strings.Contains(err.Error(), "unexpected EOF") {
				t.Fatalf("prefix of %d bytes: error %q does not say the input ended", n, err)
			}
		}
	})
	t.Run("reader error", func(t *testing.T) {
		boom := fmt.Errorf("disk on fire")
		r := io.MultiReader(strings.NewReader(smallDoc[:40]), errReader{boom})
		if _, err := results.ReadJSON(r); err == nil || !strings.Contains(err.Error(), boom.Error()) {
			t.Fatalf("err = %v, want the reader's error", err)
		}
		if _, err := results.ReadJSON(errReader{nil}); err == nil || !strings.Contains(err.Error(), io.ErrNoProgress.Error()) {
			t.Fatalf("err = %v from a reader that never progresses", err)
		}
	})
}

// errReader returns no bytes and the given error.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestReadJSONRejectsOutOfRange: one row per way the Token-stream decoder
// was silently wrong on read-back. Each loaded without a word before.
func TestReadJSONRejectsOutOfRange(t *testing.T) {
	for name, doc := range strictOnly {
		t.Run(name, func(t *testing.T) {
			if _, err := results.ReadJSONOracle(strings.NewReader(doc)); err != nil {
				t.Fatalf("the oracle refuses it too (%v): not a strict-only case", err)
			}
			_, err := checkOracle(t, []byte(doc))
			if err == nil {
				t.Fatal("accepted")
			}
			if !byteOffset.MatchString(err.Error()) {
				t.Errorf("error %q carries no byte offset", err)
			}
			if strings.Contains(doc, `"scans"`) && !strings.Contains(err.Error(), "scan 0") {
				t.Errorf("error %q does not name the scan", err)
			}
		})
	}
	// The leniencies that stay: each loads, and loads as the oracle did.
	for _, name := range []string{"unknown flag bits", "short tuples", "long tuples", "fewer banners", "more banners", "column maxima"} {
		if _, err := checkOracle(t, []byte(acceptDocs[name])); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReadJSONFastRecordBoundary: a record that differs from the form
// WriteJSON gives it in any one way, met in the middle of a run of
// canonical records, loads or is refused exactly as the oracle says — the
// fast record routine either takes it whole and right, or leaves it to
// record and its errors.
func TestReadJSONFastRecordBoundary(t *testing.T) {
	for _, rec := range []string{
		`[01,1,2,0,1,5]`, `[1,01,2,0,1,5]`, `[1,1,00,0,1,5]`, `[1,1,2,0,1,05]`, `[0,0,0,0,0,0]`,
		`[4294967295,255,3,255,2147483647,9223372036854775807]`, `[4294967296,1,2,0,1,5]`,
		`[1,256,2,0,1,5]`, `[1,1,2,256,1,5]`, `[1,1,2,0,2147483648,5]`, `[1,1,2,0,1,9223372036854775808]`,
		`[1,1,1000000000000000000,0,1,5]`, `[1,1,18446744073709551615,0,1,5]`, `[1,1,18446744073709551616,0,1,5]`,
		`[1,1,2,0,1,99999999999999999999]`, `[1,1,2,0,1,0000000000000000000005]`,
		`[1,1,2,0,1]`, `[1]`, `[]`, `[1,1,2,0,1,5,6]`, `[ 1,1,2,0,1,5]`, `[1 ,1,2,0,1,5]`, `[1,1,2,0,1,5 ]`,
		`[1,1,2,0,1,5.0]`, `[1,1,2,0,1,5e0]`, `[1,1,2,0,1,-5]`, `[1,1,2,0,1,]`, `[1,,2,0,1,5]`, `[1,1,2,0,1,5}`,
		`[1,1,2,0,1,5]]`, `[1,1,2,0,1,"5"]`, `[null,1,2,0,1,5]`, `[[1],1,2,0,1,5]`,
		`["2a00::1",1,2,0,1,5]`, `["2A00:0:0:0:0:0:0:1",1,2,0,1,5]`, `["2a00::\u0031",1,2,0,1,5]`,
		`["2a00::g",1,2,0,1,5]`, `["2a00::1%eth0",1,2,0,1,5]`, `["1.2.3.4",1,2,0,1,5]`, `["",1,2,0,1,5]`,
		`["2a00::1,1,2,0,1,5]`, `["2a00::1"1,2,0,1,5]`, "[\"2a00::1\x00\",1,2,0,1,5]",
	} {
		for _, doc := range []string{
			scanDoc(`"records":[[7,3,2,0,1,9],` + rec + `,[8,3,2,0,1,9]]`),
			scanDoc(`"records":[["2a00::7",3,2,0,1,9],` + rec + `]`),
		} {
			checkOracle(t, []byte(doc))
		}
	}
}

func FuzzReadJSON(f *testing.F) {
	f.Add(encode(f, results.Sample()))
	f.Add([]byte(widenDoc))
	for _, docs := range []map[string]string{acceptDocs, rejectDocs, strictOnly} {
		for _, doc := range docs {
			if len(doc) < 4096 { // the long-string and depth documents only slow mutation down
				f.Add([]byte(doc))
			}
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkOracle(t, doc)
	})
}

func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

func countRows(tb testing.TB, doc []byte) int {
	ds, err := results.ReadJSON(bytes.NewReader(doc))
	if err != nil {
		tb.Fatal(err)
	}
	rows := 0
	for _, o := range ds.Origins {
		for _, p := range proto.All() {
			for tr := 0; tr < ds.Trials; tr++ {
				if s := ds.Scan(o, p, tr); s != nil {
					rows += s.Len()
				}
			}
		}
	}
	return rows
}

// TestReadJSONAllocBudget: decoding costs at most 0.1 allocations per row
// (the Token stream made 51) — column growth, one string per distinct
// banner, and per-scan bookkeeping; nothing per row, v4 or v6.
func TestReadJSONAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 0.1
	for name, doc := range map[string][]byte{"golden-v4": goldenJSON(t), "hitlist-v6": hitlistJSON(t)} {
		rows := countRows(t, doc)
		r := bytes.NewReader(doc)
		allocs := testing.AllocsPerRun(5, func() {
			r.Reset(doc)
			if _, err := results.ReadJSON(r); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d rows, %.0f allocations, %.3f per row", name, rows, allocs, allocs/float64(rows))
		if allocs/float64(rows) > budget {
			t.Errorf("%s: %.3f allocations per row, budget %.1f", name, allocs/float64(rows), budget)
		}
	}
}

// BenchmarkReadJSON is the one-command home of the decoder's MiB/s and
// allocs/op, beside the bench's results.read_json_mib_per_s.
func BenchmarkReadJSON(b *testing.B) {
	for _, c := range codecDocs(b) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.doc)))
			b.ReportAllocs()
			r := bytes.NewReader(c.doc)
			for i := 0; i < b.N; i++ {
				r.Reset(c.doc)
				if _, err := results.ReadJSON(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// codecDoc is a document the codec's benchmarks and allocation budgets
// run on.
type codecDoc struct {
	name string
	doc  []byte
}

// codecDocs are the golden v4 dataset and a real IPv6 hitlist study.
func codecDocs(tb testing.TB) []codecDoc {
	return []codecDoc{{"golden-v4", goldenJSON(tb)}, {"hitlist-v6", hitlistJSON(tb)}}
}

// decodeDoc reads a codec document back into the dataset it was written
// from.
func decodeDoc(tb testing.TB, doc []byte) *results.Dataset {
	tb.Helper()
	ds, err := results.ReadJSON(bytes.NewReader(doc))
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// TestWriteJSONAllocBudget: encoding costs at most 0.01 allocations per
// row — the output buffer, the scratch and one json.Marshal per escaped
// dictionary entry; nothing per row, v4 or v6.
func TestWriteJSONAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 0.01
	for _, c := range codecDocs(t) {
		ds := decodeDoc(t, c.doc)
		rows := countRows(t, c.doc)
		var buf bytes.Buffer
		buf.Grow(len(c.doc))
		allocs := testing.AllocsPerRun(5, func() {
			buf.Reset()
			if err := ds.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(buf.Bytes(), c.doc) {
			t.Fatalf("%s: WriteJSON does not reproduce the document it was read from", c.name)
		}
		t.Logf("%s: %d rows, %.0f allocations, %.4f per row", c.name, rows, allocs, allocs/float64(rows))
		if allocs/float64(rows) > budget {
			t.Errorf("%s: %.4f allocations per row, budget %.2f", c.name, allocs/float64(rows), budget)
		}
	}
}

// BenchmarkWriteJSON is the encoder's twin of BenchmarkReadJSON, beside
// the bench's results.write_json_mib_per_s.
func BenchmarkWriteJSON(b *testing.B) {
	for _, c := range codecDocs(b) {
		b.Run(c.name, func(b *testing.B) {
			ds := decodeDoc(b, c.doc)
			var buf bytes.Buffer
			buf.Grow(len(c.doc))
			b.SetBytes(int64(len(c.doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := ds.WriteJSON(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWriteJSONBannerEscapesMatchMarshal: the encoder encodes each entry of
// a scan's banner dictionary once, raw when it can, and writes every row's
// banner from that table; whatever it writes must be the bytes json.Marshal
// gives the per-row banner list (HTML escaping, U+2028/9, invalid UTF-8 →
// U+FFFD), and must read back as what json.Unmarshal makes of them. Every
// banner repeats on many rows, keep-last dedup orphans a dictionary entry,
// and a scan whose dictionary only orphans still writes no "banners".
func TestWriteJSONBannerEscapesMatchMarshal(t *testing.T) {
	banners := []string{
		"nginx", "Apache/2.4.41 (Ubuntu)", "", " ", "~", "\x7f",
		"<script>alert(1)</script>", "a&b", "x>y", `say "hi"`, `back\slash`, "/slash/",
		"line\nbreak", "tab\there", "\r", "\b\f", "nul\x00byte", "\x1f",
		"sep\u2028and\u2029", "caf\u00e9", "\U0001F600", "\ufffd",
		"bad\xffutf8", "\xc0\x80", "\xed\xa0\x80", "trunc\xe2\x82",
	}
	const reps = 3
	s := results.NewScanResult(origin.AU, proto.HTTP, 0)
	var perRow []string // the surviving rows' banners, in address order
	for r := 0; r < reps; r++ {
		for i, b := range banners {
			a := ip.AddrFrom4(uint32(r*len(banners) + i + 1))
			if i == 1 && r == 0 {
				// Keep-last replaces this row, orphaning its banner, the
				// only row to carry it.
				s.Add(results.HostRecord{Addr: a, ProbeMask: 1, L7: true, Banner: "orphan<\n>"})
			}
			s.Add(results.HostRecord{Addr: a, ProbeMask: 1, L7: true, Banner: b})
			perRow = append(perRow, b)
		}
	}
	// A dictionary entry with no surviving row: no "banners" at all.
	bare := results.NewScanResult(origin.AU, proto.SSH, 0)
	bare.Add(results.HostRecord{Addr: ip.AddrFrom4(1), ProbeMask: 1, L7: true, Banner: "SSH-2.0-x"})
	bare.Add(results.HostRecord{Addr: ip.AddrFrom4(1), ProbeMask: 1})
	bare.Add(results.HostRecord{Addr: ip.AddrFrom4(2), ProbeMask: 1})
	ds := results.NewDataset(origin.Set{origin.AU}, 1)
	for _, sc := range []*results.ScanResult{s, bare} {
		if err := ds.Put(sc); err != nil {
			t.Fatal(err)
		}
	}
	raw := encode(t, ds)
	want, err := json.Marshal(perRow)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scans []map[string]json.RawMessage `json:"scans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Scans) != 2 {
		t.Fatalf("document does not parse as two scans (%v): %s", err, raw)
	}
	if got := doc.Scans[0]["banners"]; !bytes.Equal(got, want) {
		t.Fatalf("banner column\n got %s\nwant %s", got, want)
	}
	if got, ok := doc.Scans[1]["banners"]; ok {
		t.Errorf("scan with no surviving banner writes \"banners\":%s", got)
	}
	back, err := checkOracle(t, raw)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []string
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	got := back.MustScan(origin.AU, proto.HTTP, 0)
	for i, w := range decoded {
		if r := got.RecordAt(i); r.Banner != w {
			t.Errorf("banner %d read back as %q, want %q", i, r.Banner, w)
		}
	}
}

// TestAheadScanSizesColumns holds a scan decoded ahead to one allocation
// per column: its text bounds its rows before the first record, so
// decoding a 10 k-row scan allocates at most 1.25× its final address, row
// and banner columns, for an IPv4 scan (4-byte addresses) and an IPv6 one.
// Growing by doubling from 1,024 rows and cutting to size allocates ≈ 4×
// them.
func TestAheadScanSizesColumns(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows = 10_000
	for _, family := range []string{"v4", "v6"} {
		var b bytes.Buffer
		b.WriteString(`{"origin":1,"proto":0,"trial":0,"targets":65536,"records":[`)
		for i := range rows {
			if i > 0 {
				b.WriteByte(',')
			}
			if family == "v4" {
				fmt.Fprintf(&b, `[%d,3,3,0,1,%d]`, 1<<24+i, i*1000)
			} else {
				fmt.Fprintf(&b, `["2a00::%x",3,3,0,1,%d]`, i, i*1000)
			}
		}
		b.WriteString(`],"banners":["SSH-2.0-OpenSSH_8.2p1"]}`)
		text := b.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := results.DecodeWhole(text)
		runtime.ReadMemStats(&after)
		if s == nil || s.Len() != rows {
			t.Fatalf("%s: the scan did not decode whole", family)
		}
		cols := uint64(results.ColumnBytes(s))
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d rows, %d B allocated for %d B of columns (%.2f×)", family, rows, got, cols, float64(got)/float64(cols))
		if float64(got) > 1.25*float64(cols) {
			t.Errorf("%s: decoding ahead allocates %d B, over 1.25× the final columns' %d B", family, got, cols)
		}
	}
}
