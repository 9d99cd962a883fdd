package tlslite

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/rng"
	"repro/internal/wirebuf"
)

// reader returns a wirebuf.Reader over raw, delivered through an io.Reader.
func reader(raw []byte) *wirebuf.Reader {
	rd := new(wirebuf.Reader)
	rd.Reset(bytes.NewReader(raw))
	return rd
}

func handshakeReader(raw []byte) *HandshakeReader {
	hr := new(HandshakeReader)
	hr.Reset(reader(raw))
	return hr
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// body strips the record and handshake headers from a one-record message.
func body(wire []byte) []byte { return wire[9:] }

func clientHello(key rng.Key, serverName string) *ClientHello {
	ch := new(ClientHello)
	InitClientHello(ch, key, []byte(serverName))
	return ch
}

func TestRecordRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	wire, err := AppendRecord(nil, RecordHandshake, payload)
	if err != nil {
		t.Fatal(err)
	}
	ct, got, err := ReadRecord(reader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if ct != RecordHandshake || !bytes.Equal(got, payload) {
		t.Errorf("record = %d %v", ct, got)
	}
}

func TestRecordRejectsOversize(t *testing.T) {
	if _, err := AppendRecord(nil, RecordHandshake, make([]byte, MaxRecordLen+1)); err != ErrRecordTooBig {
		t.Errorf("append err = %v", err)
	}
	if _, err := AppendCertificate(nil, &Certificate{Chain: [][]byte{make([]byte, MaxRecordLen)}}); err != ErrRecordTooBig {
		t.Errorf("oversize certificate err = %v", err)
	}
	hdr := []byte{RecordHandshake, 3, 3, byte((MaxRecordLen + 1) >> 8), byte((MaxRecordLen + 1) & 0xff)}
	if _, _, err := ReadRecord(reader(hdr)); err != ErrRecordTooBig {
		t.Errorf("read err = %v", err)
	}
}

func TestClientHelloRoundTrip(t *testing.T) {
	ch := clientHello(rng.NewKey(1).Derive("grab"), "198.51.100.9")
	parsed := new(ClientHello)
	if err := ParseClientHello(body(must(AppendClientHello(nil, ch))), parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Version != VersionTLS12 {
		t.Errorf("version = %#x", parsed.Version)
	}
	if parsed.Random != ch.Random {
		t.Error("random mismatch")
	}
	if len(parsed.CipherSuites) != len(ChromeTLS12Suites) {
		t.Fatalf("suites = %d", len(parsed.CipherSuites))
	}
	for i, cs := range parsed.CipherSuites {
		if cs != ChromeTLS12Suites[i] {
			t.Errorf("suite %d = %#x, want %#x", i, cs, ChromeTLS12Suites[i])
		}
	}
	if string(parsed.ServerName) != "198.51.100.9" {
		t.Errorf("SNI = %q", parsed.ServerName)
	}
}

func TestClientHelloWithoutSNI(t *testing.T) {
	ch := clientHello(rng.NewKey(2), "")
	parsed := new(ClientHello)
	if err := ParseClientHello(body(must(AppendClientHello(nil, ch))), parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.ServerName) != 0 {
		t.Errorf("SNI = %q, want empty", parsed.ServerName)
	}
}

// TestParseClientHelloLeavesSharedSuitesAlone: a ClientHello that was
// initialised for sending and is then parsed into must not write through to
// the package's suite table.
func TestParseClientHelloLeavesSharedSuitesAlone(t *testing.T) {
	want := append([]uint16(nil), ChromeTLS12Suites...)
	ch := clientHello(rng.NewKey(3), "h")
	other := &ClientHello{Version: VersionTLS12, CipherSuites: []uint16{0x1301, 0x1302}}
	if err := ParseClientHello(body(must(AppendClientHello(nil, other))), ch); err != nil {
		t.Fatal(err)
	}
	if len(ch.CipherSuites) != 2 || ch.CipherSuites[0] != 0x1301 {
		t.Errorf("parsed suites = %#x", ch.CipherSuites)
	}
	for i, cs := range ChromeTLS12Suites {
		if cs != want[i] {
			t.Fatalf("ChromeTLS12Suites[%d] overwritten: %#x", i, cs)
		}
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := &ServerHello{Version: VersionTLS12, CipherSuite: 0xc02f, SessionID: []byte{9, 9}}
	sh.Random[0] = 0xaa
	parsed := new(ServerHello)
	if err := ParseServerHello(body(must(AppendServerHello(nil, sh))), parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.CipherSuite != 0xc02f || parsed.Random[0] != 0xaa || len(parsed.SessionID) != 2 {
		t.Errorf("parsed = %+v", parsed)
	}
}

func TestCertificateRoundTrip(t *testing.T) {
	c := &Certificate{Chain: [][]byte{{1, 2, 3}, {4, 5}}}
	parsed, err := ParseCertificate(body(must(AppendCertificate(nil, c))))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Chain) != 2 || !bytes.Equal(parsed.Chain[0], []byte{1, 2, 3}) || !bytes.Equal(parsed.Chain[1], []byte{4, 5}) {
		t.Errorf("chain = %v", parsed.Chain)
	}
}

func serverFlight() []byte {
	sh := &ServerHello{Version: VersionTLS12, CipherSuite: ChromeTLS12Suites[1]}
	resp := must(AppendServerHello(nil, sh))
	resp = must(AppendCertificate(resp, &Certificate{Chain: [][]byte{bytes.Repeat([]byte{0x30}, 800)}}))
	return AppendServerHelloDone(resp)
}

func TestFullHandshakeFlightOverWire(t *testing.T) {
	// Client writes ClientHello; server answers ServerHello +
	// Certificate + ServerHelloDone; client parses all three.
	wire := must(AppendClientHello(nil, clientHello(rng.NewKey(3), "host")))
	typ, msg, err := handshakeReader(wire).Next()
	if err != nil || typ != TypeClientHello {
		t.Fatalf("server read CH: %d %v", typ, err)
	}
	if err := ParseClientHello(msg, new(ClientHello)); err != nil {
		t.Fatal(err)
	}

	cr := handshakeReader(serverFlight())
	wantTypes := []uint8{TypeServerHello, TypeCertificate, TypeServerHelloDone}
	for _, want := range wantTypes {
		typ, msg, err := cr.Next()
		if err != nil {
			t.Fatalf("reading type %d: %v", want, err)
		}
		if typ != want {
			t.Fatalf("type = %d, want %d", typ, want)
		}
		switch typ {
		case TypeServerHello:
			if err := ParseServerHello(msg, new(ServerHello)); err != nil {
				t.Fatal(err)
			}
		case TypeCertificate:
			c, err := ParseCertificate(msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Chain) != 1 || len(c.Chain[0]) != 800 {
				t.Errorf("cert chain = %d certs", len(c.Chain))
			}
		}
	}
	if _, _, err := cr.Next(); err != io.EOF {
		t.Errorf("after the flight: err = %v, want io.EOF", err)
	}
}

func TestHandshakeReaderAlert(t *testing.T) {
	hr := handshakeReader(AppendAlert(nil, 2, 40)) // fatal handshake_failure
	if _, _, err := hr.Next(); err != ErrAlert {
		t.Errorf("err = %v, want ErrAlert", err)
	}
}

func TestHandshakeSpanningRecords(t *testing.T) {
	// A handshake message split across two records must reassemble.
	msg := make([]byte, 4+100)
	msg[0] = TypeCertificate
	msg[3] = 100
	wire := must(AppendRecord(nil, RecordHandshake, msg[:50]))
	wire = must(AppendRecord(wire, RecordHandshake, msg[50:]))
	typ, got, err := handshakeReader(wire).Next()
	if err != nil || typ != TypeCertificate || len(got) != 100 {
		t.Errorf("reassembly: %d, %d bytes, %v", typ, len(got), err)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	if err := ParseClientHello([]byte{3, 3, 0}, new(ClientHello)); err == nil {
		t.Error("truncated ClientHello accepted")
	}
	if err := ParseServerHello([]byte{3}, new(ServerHello)); err == nil {
		t.Error("truncated ServerHello accepted")
	}
	if _, err := ParseCertificate([]byte{0, 0, 9, 1}); err == nil {
		t.Error("truncated Certificate accepted")
	}
}

// TestHostileInputSentinels pins the error class of each hostile flight:
// the grabber's FailMode classification depends on exactly these.
func TestHostileInputSentinels(t *testing.T) {
	oversize := []byte{RecordHandshake, 3, 3, 0xff, 0xff}
	hugeMsg := must(AppendRecord(nil, RecordHandshake, []byte{TypeServerHello, 0xff, 0xff, 0xff}))
	truncated := serverFlight()[:20]
	for name, tc := range map[string]struct {
		raw  []byte
		want error
	}{
		"alert":             {AppendAlert(nil, 2, 40), ErrAlert},
		"oversize record":   {oversize, ErrRecordTooBig},
		"oversize message":  {hugeMsg, ErrMalformed},
		"closed":            {nil, io.EOF},
		"closed mid-header": {truncated[:3], io.ErrUnexpectedEOF},
		"closed mid-record": {truncated, io.ErrUnexpectedEOF},
		"closed at payload": {truncated[:5], io.EOF},
	} {
		if _, _, err := handshakeReader(tc.raw).Next(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// diffHandshake holds the HandshakeReader and the two hot-path parsers to
// the oracle on one stream: message by message the same type, body and
// error, and for hello messages the same parsed fields.
func diffHandshake(t *testing.T, raw []byte) {
	t.Helper()
	inPlace := new(wirebuf.Reader)
	inPlace.ResetBytes(raw)
	for _, rd := range []*wirebuf.Reader{reader(raw), inPlace} {
		got := new(HandshakeReader)
		got.Reset(rd)
		want := newOracleHandshakeReader(bytes.NewReader(raw))
		var ch ClientHello
		var sh ServerHello
		for i := 0; i < 16; i++ {
			gt, gb, gerr := got.Next()
			wt, wb, werr := want.Next()
			if !sameErr(gerr, werr) {
				t.Fatalf("message %d: err = %v, oracle %v", i, gerr, werr)
			}
			if gerr != nil {
				break
			}
			if gt != wt || !bytes.Equal(gb, wb) {
				t.Fatalf("message %d: type %d (%d bytes), oracle type %d (%d bytes)", i, gt, len(gb), wt, len(wb))
			}
			switch gt {
			case TypeClientHello:
				wch, werr := oracleParseClientHello(wb)
				if gerr := ParseClientHello(gb, &ch); gerr != werr {
					t.Fatalf("ParseClientHello: err = %v, oracle %v", gerr, werr)
				} else if gerr == nil && (ch.Version != wch.Version || ch.Random != wch.Random ||
					!bytes.Equal(ch.SessionID, wch.SessionID) || string(ch.ServerName) != wch.ServerName ||
					!sameSuites(ch.CipherSuites, wch.CipherSuites)) {
					t.Fatalf("ParseClientHello = %+v, oracle %+v", ch, *wch)
				}
			case TypeServerHello:
				wsh, werr := oracleParseServerHello(wb)
				if gerr := ParseServerHello(gb, &sh); gerr != werr {
					t.Fatalf("ParseServerHello: err = %v, oracle %v", gerr, werr)
				} else if gerr == nil && (sh.Version != wsh.Version || sh.Random != wsh.Random ||
					!bytes.Equal(sh.SessionID, wsh.SessionID) || sh.CipherSuite != wsh.CipherSuite ||
					sh.Compression != wsh.Compression) {
					t.Fatalf("ParseServerHello = %+v, oracle %+v", sh, *wsh)
				}
			}
		}
	}
}

func sameSuites(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// handshakeSeeds are real flights plus the limit-edge and hostile cases.
func handshakeSeeds() [][]byte {
	flight := serverFlight()
	split := must(AppendRecord(nil, RecordHandshake, flight[5:40]))
	split = must(AppendRecord(split, RecordHandshake, flight[40:80]))
	return [][]byte{
		must(AppendClientHello(nil, clientHello(rng.NewKey(1), "192.0.2.7"))),
		must(AppendClientHello(nil, clientHello(rng.NewKey(2), ""))),
		must(AppendClientHello(nil, &ClientHello{Version: VersionTLS12, SessionID: []byte{1, 2, 3}})),
		flight,
		flight[:20],
		split,
		AppendAlert(nil, 2, 40),
		{RecordHandshake, 3, 3, 0xff, 0xff},
		must(AppendRecord(nil, RecordHandshake, []byte{TypeServerHello, 0xff, 0xff, 0xff})),
		must(AppendRecord(nil, RecordHandshake, nil)),
		must(AppendRecord(nil, 23, []byte("application data"))),
		must(AppendRecord(nil, RecordHandshake, []byte{TypeServerHello, 0, 0, 3, 3, 3, 0})),
		[]byte("HTTP/1.1 400 Bad Request\r\n\r\n"),
		{},
	}
}

func TestHandshakeMatchesOracle(t *testing.T) {
	for _, raw := range handshakeSeeds() {
		diffHandshake(t, raw)
	}
}

func FuzzHandshakeReader(f *testing.F) {
	for _, raw := range handshakeSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { diffHandshake(t, raw) })
}

// TestHandshakeReaderReuse: bodies stay valid while later messages are
// read, a Reset reader carries nothing over, and a reused reader reads a
// flight without allocating.
func TestHandshakeReaderReuse(t *testing.T) {
	flight := serverFlight()
	rd, hr := new(wirebuf.Reader), new(HandshakeReader)
	rd.ResetBytes(flight)
	hr.Reset(rd)
	_, first, _ := hr.Next()
	keep := append([]byte(nil), first...)
	for {
		if _, _, err := hr.Next(); err != nil {
			break
		}
	}
	if !bytes.Equal(first, keep) {
		t.Error("first body changed while the rest of the flight was read")
	}
	if n := testing.AllocsPerRun(100, func() {
		rd.ResetBytes(flight)
		hr.Reset(rd)
		for i := 0; i < 3; i++ {
			if _, _, err := hr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("reading a flight with a reused reader: %v allocs, want 0", n)
	}
}
