package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/wirebuf"
)

// reader returns a wirebuf.Reader over raw, delivered through an io.Reader
// (the connection path, with arena growth), not handed over whole.
func reader(raw []byte) *wirebuf.Reader {
	rd := new(wirebuf.Reader)
	rd.Reset(bytes.NewReader(raw))
	return rd
}

func readResponse(raw string, maxBody int) (*Response, error) {
	resp := new(Response)
	return resp, ReadResponse(reader([]byte(raw)), resp, maxBody)
}

func readRequest(raw string) (*Request, error) {
	req := new(Request)
	return req, ReadRequest(reader([]byte(raw)), req)
}

func TestRequestRoundTrip(t *testing.T) {
	wire := AppendRequest(nil, "GET", "/", []byte("192.0.2.7"), "Mozilla/5.0 zgrab/0.x")
	req, err := readRequest(string(wire))
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Method) != "GET" || string(req.Target) != "/" || string(req.Proto) != "HTTP/1.1" {
		t.Errorf("request line: %q %q %q", req.Method, req.Target, req.Proto)
	}
	if host, ok := req.Get("host"); !ok || string(host) != "192.0.2.7" {
		t.Errorf("Host = %q,%v", host, ok)
	}
	if ua, ok := req.Get("User-Agent"); !ok || !bytes.Contains(ua, []byte("zgrab")) {
		t.Errorf("User-Agent = %q,%v", ua, ok)
	}
	if _, ok := req.Get("Connection"); !ok {
		t.Error("Connection header missing")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body := []byte("<html><title>Index</title></html>")
	wire := AppendResponse(nil, 200, "OK", []Header{{"Server", "nginx"}, {"Content-Type", "text/html"}}, body)
	resp, err := readResponse(string(wire), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Status) != "OK" {
		t.Errorf("status: %d %q", resp.StatusCode, resp.Status)
	}
	if sv, _ := resp.Get("server"); string(sv) != "nginx" {
		t.Errorf("Server = %q", sv)
	}
	if !bytes.Equal(resp.Body, body) {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestAppendResponseKeepsCallerContentLength(t *testing.T) {
	wire := AppendResponse(nil, 204, "No Content", []Header{{"content-length", "0"}}, nil)
	if n := bytes.Count(bytes.ToLower(wire), []byte("content-length")); n != 1 {
		t.Errorf("%d Content-Length headers in %q", n, wire)
	}
}

func TestResponseBodyCapped(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 100<<10)
	wire := AppendResponse(nil, 200, "OK", nil, big)
	resp, err := readResponse(string(wire), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != 1024 {
		t.Errorf("body len = %d, want capped at 1024", len(resp.Body))
	}
	// The grabber's cap: 16 KiB however much the server sends.
	if resp, err = readResponse(string(wire), 16<<10); err != nil || len(resp.Body) != 16<<10 {
		t.Errorf("body len = %d, err %v, want capped at 16 KiB", len(resp.Body), err)
	}
}

func TestResponseWithoutContentLengthReadsToEOF(t *testing.T) {
	raw := "HTTP/1.1 301 Moved Permanently\r\nLocation: https://example.org/\r\n\r\nmoved"
	resp, err := readResponse(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 301 {
		t.Errorf("code = %d", resp.StatusCode)
	}
	if string(resp.Body) != "moved" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestMalformedResponses(t *testing.T) {
	bad := []string{
		"",                          // empty
		"garbage\r\n\r\n",           // no HTTP/
		"HTTP/1.1\r\n\r\n",          // no status code
		"HTTP/1.1 abc Oops\r\n\r\n", // non-numeric code
		"HTTP/1.1 99 Tiny\r\n\r\n",  // out-of-range code
		"HTTP/1.1 200 OK\r\nBadHeaderNoColon\r\n\r\n",
	}
	for _, raw := range bad {
		if _, err := readResponse(raw, 0); err == nil {
			t.Errorf("ReadResponse(%q) succeeded", raw)
		}
	}
}

func TestMalformedRequests(t *testing.T) {
	bad := []string{
		"GET /\r\n\r\n",               // missing proto
		"GET / FTP/1.0\r\n\r\n",       // wrong proto
		"GET / HTTP/1.1\r\nX\r\n\r\n", // header without colon
	}
	for _, raw := range bad {
		if _, err := readRequest(raw); err == nil {
			t.Errorf("ReadRequest(%q) succeeded", raw)
		}
	}
}

func TestHeaderLimits(t *testing.T) {
	var b strings.Builder
	b.WriteString("HTTP/1.1 200 OK\r\n")
	for i := 0; i < MaxHeaders+10; i++ {
		b.WriteString("X-H: v\r\n")
	}
	b.WriteString("\r\n")
	if _, err := readResponse(b.String(), 0); err == nil {
		t.Error("unbounded header count accepted")
	}

	long := "HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("a", MaxLineLen+10) + "\r\n\r\n"
	if _, err := readResponse(long, 0); err == nil {
		t.Error("oversized header line accepted")
	}
}

func TestContentLengthIgnoredWhenInsane(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nbody"
	resp, err := readResponse(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "body" {
		t.Errorf("body = %q", resp.Body)
	}
}

// limitEdges are the inputs that sit on each bound on untrusted input.
func limitEdges() map[string]string {
	head := "HTTP/1.1 200 OK\r\n"
	fields := func(n int) string { return strings.Repeat("X-H: v\r\n", n) }
	block := func(total int) string { // header block of total content bytes in 1 KiB lines
		var b strings.Builder
		for total > 0 {
			n := 1024
			if total < 2*n {
				n = total
			}
			b.WriteString("X: " + strings.Repeat("a", n-3) + "\r\n")
			total -= n
		}
		return b.String()
	}
	return map[string]string{
		"line at limit":            head + "X: " + strings.Repeat("a", MaxLineLen-3) + "\r\n\r\n",
		"line over limit":          head + "X: " + strings.Repeat("a", MaxLineLen-2) + "\r\n\r\n",
		"status line over limit":   "HTTP/1.1 200 " + strings.Repeat("a", MaxLineLen) + "\r\n\r\n",
		"unterminated over limit":  head + strings.Repeat("a", MaxLineLen+1),
		"CR then EOF over limit":   head + strings.Repeat("a", MaxLineLen) + "\r",
		"CRLF just inside limit":   head + "X:" + strings.Repeat("a", MaxLineLen-2) + "\r\n\r\n",
		"100 headers":              head + fields(MaxHeaders) + "\r\n",
		"101 headers":              head + fields(MaxHeaders+1) + "\r\n",
		"header block at limit":    head + block(MaxHeaderLen) + "\r\n",
		"header block over limit":  head + block(MaxHeaderLen+1) + "\r\n",
		"oversize Content-Length":  head + "Content-Length: 99999999999\r\n\r\nbody",
		"Content-Length over body": head + "Content-Length: 100\r\n\r\nshort",
		"unterminated last header": head + "Server: nginx",
		"status line only":         "HTTP/1.1 200 OK",
		"bare LF":                  "HTTP/1.1 200 OK\nServer: x\n\nbody",
		"no colon":                 head + "Bad\r\n\r\n",
		"empty name":               head + ": v\r\n\r\n",
	}
}

// TestHostileInputSentinels pins the error class of each limit edge: the
// grabber's FailMode classification depends on exactly these sentinels.
func TestHostileInputSentinels(t *testing.T) {
	edges := limitEdges()
	for name, want := range map[string]error{
		"line at limit":            nil,
		"line over limit":          ErrLineTooLong,
		"status line over limit":   ErrLineTooLong,
		"unterminated over limit":  ErrLineTooLong,
		"CR then EOF over limit":   ErrLineTooLong,
		"CRLF just inside limit":   nil,
		"100 headers":              nil,
		"101 headers":              ErrTooManyHeaders,
		"header block at limit":    nil,
		"header block over limit":  ErrTooManyHeaders,
		"oversize Content-Length":  nil,
		"Content-Length over body": nil,
		"unterminated last header": io.EOF,
		"status line only":         io.EOF,
		"bare LF":                  nil,
		"no colon":                 ErrMalformed,
		"empty name":               ErrMalformed,
	} {
		raw, ok := edges[name]
		if !ok {
			t.Fatalf("no edge case %q", name)
		}
		if _, err := readResponse(raw, 16<<10); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
}

// oracleReader gives the oracle a bufio.Reader larger than every limit, so
// its answers do not depend on where bufio's 4 KiB buffer boundary falls
// inside a long line (the one artifact of the old reader the rewrite does
// not reproduce: an unterminated final line of exactly k×4096 bytes was
// dropped instead of parsed).
func oracleReader(raw []byte) *bufio.Reader {
	return bufio.NewReaderSize(bytes.NewReader(raw), 128<<10)
}

func sameFields(t *testing.T, got []Field, want []Header) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d fields, oracle %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Name) != want[i].Name || string(got[i].Value) != want[i].Value {
			t.Fatalf("field %d = %q: %q, oracle %q: %q", i, got[i].Name, got[i].Value, want[i].Name, want[i].Value)
		}
	}
}

// diffResponse holds ReadResponse to the oracle on one input: same error,
// and on success the same parsed fields. The input is parsed twice, once
// through a connection-style reader and once in place.
func diffResponse(t *testing.T, raw []byte, maxBody int) {
	t.Helper()
	want, wantErr := oracleReadResponse(oracleReader(raw), maxBody)
	inPlace := new(wirebuf.Reader)
	inPlace.ResetBytes(raw)
	for _, rd := range []*wirebuf.Reader{reader(raw), inPlace} {
		got := new(Response)
		err := ReadResponse(rd, got, maxBody)
		if err != wantErr {
			t.Fatalf("err = %v, oracle %v", err, wantErr)
		}
		if err != nil {
			continue
		}
		if string(got.Proto) != want.Proto || got.StatusCode != want.StatusCode || string(got.Status) != want.Status {
			t.Fatalf("status line = %q %d %q, oracle %q %d %q",
				got.Proto, got.StatusCode, got.Status, want.Proto, want.StatusCode, want.Status)
		}
		sameFields(t, got.Fields, want.Headers)
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("body = %d bytes, oracle %d", len(got.Body), len(want.Body))
		}
		for _, name := range []string{"Server", "content-length", "ſerver"} {
			gv, gok := got.Get(name)
			wv, wok := want.Get(name)
			if gok != wok || string(gv) != wv {
				t.Fatalf("Get(%q) = %q,%v, oracle %q,%v", name, gv, gok, wv, wok)
			}
		}
	}
}

func diffRequest(t *testing.T, raw []byte) {
	t.Helper()
	want, wantErr := oracleReadRequest(oracleReader(raw))
	inPlace := new(wirebuf.Reader)
	inPlace.ResetBytes(raw)
	for _, rd := range []*wirebuf.Reader{reader(raw), inPlace} {
		got := new(Request)
		err := ReadRequest(rd, got)
		if err != wantErr {
			t.Fatalf("err = %v, oracle %v", err, wantErr)
		}
		if err != nil {
			continue
		}
		if string(got.Method) != want.Method || string(got.Target) != want.Target || string(got.Proto) != want.Proto {
			t.Fatalf("request line = %q %q %q, oracle %q %q %q",
				got.Method, got.Target, got.Proto, want.Method, want.Target, want.Proto)
		}
		sameFields(t, got.Fields, want.Headers)
	}
}

// responseSeeds are real flights plus the limit edges.
func responseSeeds() [][]byte {
	seeds := [][]byte{
		AppendResponse(nil, 200, "OK", []Header{{"Server", "nginx/1.14.0"}, {"Content-Type", "text/html"}},
			[]byte("<html><head><title>10.0.0.1</title></head><body>host 10.0.0.1 says hello to GET /</body></html>")),
		AppendResponse(nil, 404, "Not Found", nil, nil),
		[]byte("HTTP/1.1 301 Moved Permanently\r\nLocation: https://example.org/\r\n\r\nmoved"),
		[]byte("HTTP/1.0 200\r\n\r\n"),
		[]byte("HTTP/1.1 +200 OK\r\n  Spaced  :  value  \r\n\r\n"),
		[]byte("220 FTP ready\r\n"),
		[]byte("SSH-2.0-OpenSSH_7.4\r\n"),
		{},
	}
	for _, raw := range limitEdges() {
		seeds = append(seeds, []byte(raw))
	}
	return seeds
}

func requestSeeds() [][]byte {
	seeds := [][]byte{
		AppendRequest(nil, "GET", "/", []byte("192.0.2.7"), "Mozilla/5.0 zgrab/0.x"),
		AppendRequest(nil, "HEAD", "/index.html", []byte("2001:db8::1"), ""),
		[]byte("GET  / HTTP/1.1\r\n\r\n"),
		[]byte("GET / HTTP/1.1"),
		[]byte("NONSENSE\r\n\r\n"),
		{},
	}
	for _, raw := range limitEdges() {
		seeds = append(seeds, []byte(strings.Replace(raw, "HTTP/1.1 200 OK", "GET / HTTP/1.1", 1)))
	}
	return seeds
}

// TestParsersMatchOracle runs the differentials over the seed corpus under
// plain `go test`; the fuzz targets below extend it.
func TestParsersMatchOracle(t *testing.T) {
	for _, raw := range responseSeeds() {
		diffResponse(t, raw, 16<<10)
		diffResponse(t, raw, 0)
	}
	for _, raw := range requestSeeds() {
		diffRequest(t, raw)
	}
}

func FuzzReadResponse(f *testing.F) {
	for _, raw := range responseSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { diffResponse(t, raw, 16<<10) })
}

func FuzzReadRequest(f *testing.F) {
	for _, raw := range requestSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { diffRequest(t, raw) })
}

// TestParseReusesMessage: a message parsed into twice carries nothing over
// from the first parse, and a parse of an already-grown message allocates
// nothing.
func TestParseReusesMessage(t *testing.T) {
	long := AppendResponse(nil, 200, "OK", []Header{{"Server", "Apache"}, {"X-A", "1"}, {"X-B", "2"}}, []byte("a longer body than the next one"))
	short := AppendResponse(nil, 204, "No Content", nil, nil)
	rd, resp := new(wirebuf.Reader), new(Response)
	for _, raw := range [][]byte{long, short, long} {
		rd.ResetBytes(raw)
		if err := ReadResponse(rd, resp, 0); err != nil {
			t.Fatal(err)
		}
		want, _ := oracleReadResponse(oracleReader(raw), 0)
		sameFields(t, resp.Fields, want.Headers)
		if resp.StatusCode != want.StatusCode || !bytes.Equal(resp.Body, want.Body) {
			t.Fatalf("reused message: %d %q", resp.StatusCode, resp.Body)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		rd.ResetBytes(long)
		if err := ReadResponse(rd, resp, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadResponse into a reused message: %v allocs, want 0", n)
	}
}
