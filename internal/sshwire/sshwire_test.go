package sshwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/wirebuf"
)

// reader returns a wirebuf.Reader over raw, delivered through an io.Reader.
func reader(raw []byte) *wirebuf.Reader {
	rd := new(wirebuf.Reader)
	rd.Reset(bytes.NewReader(raw))
	return rd
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func kexPayload(key rng.Key) []byte {
	k := DefaultKexInit(key)
	return AppendKexInit(nil, &k)
}

func TestIDRoundTrip(t *testing.T) {
	wire, err := AppendID(nil, "2.0", "OpenSSH_7.4", "Debian-10")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(wire); got != "SSH-2.0-OpenSSH_7.4 Debian-10\r\n" {
		t.Errorf("wire = %q", got)
	}
	parsed, err := ReadID(reader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if string(parsed.ProtoVersion) != "2.0" || string(parsed.SoftwareVersion) != "OpenSSH_7.4" || string(parsed.Comments) != "Debian-10" {
		t.Errorf("parsed = %q %q %q", parsed.ProtoVersion, parsed.SoftwareVersion, parsed.Comments)
	}
}

func TestAppendIDRejectsOverlong(t *testing.T) {
	if _, err := AppendID(nil, "2.0", strings.Repeat("a", MaxIDLen), ""); err != ErrIDTooLong {
		t.Errorf("err = %v, want ErrIDTooLong", err)
	}
	// "SSH-2.0-" + software + CRLF at exactly the limit is fine.
	if wire, err := AppendID(nil, "2.0", strings.Repeat("a", MaxIDLen-10), ""); err != nil || len(wire) != MaxIDLen {
		t.Errorf("at limit: %d bytes, err %v", len(wire), err)
	}
}

func TestReadIDSkipsBanner(t *testing.T) {
	raw := "Welcome to the machine\r\nUnauthorized access prohibited\r\nSSH-2.0-srv\r\n"
	id, err := ReadID(reader([]byte(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if string(id.SoftwareVersion) != "srv" {
		t.Errorf("id = %+v", id)
	}
}

func TestReadIDRejectsNonSSH(t *testing.T) {
	if _, err := ReadID(reader([]byte(strings.Repeat("spam\r\n", MaxBannerLines+2)))); err != ErrNotSSH {
		t.Errorf("err = %v, want ErrNotSSH", err)
	}
}

func TestReadIDRejectsOverlongLine(t *testing.T) {
	raw := strings.Repeat("a", MaxIDLen+50) + "\r\n"
	if _, err := ReadID(reader([]byte(raw))); err == nil {
		t.Error("overlong line accepted")
	}
}

func TestParseIDVariants(t *testing.T) {
	id, err := parseID([]byte("SSH-1.99-old"))
	if err != nil || string(id.ProtoVersion) != "1.99" || string(id.SoftwareVersion) != "old" {
		t.Errorf("parse = %+v, %v", id, err)
	}
	for _, bad := range []string{"SSH-", "SSH-2.0", "SSH--x", "SSH-2.0-"} {
		if _, err := parseID([]byte(bad)); err == nil {
			t.Errorf("parseID(%q) succeeded", bad)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	payload := []byte{MsgKexInit, 1, 2, 3, 4, 5}
	wire, err := AppendPacket(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	// RFC 4253: total length multiple of 8 (pre-encryption block).
	if len(wire)%8 != 0 {
		t.Errorf("packet length %d not a multiple of 8", len(wire))
	}
	got, err := ReadPacket(reader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %v, want %v", got, payload)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 30000 {
			payload = payload[:30000]
		}
		wire, err := AppendPacket(nil, payload)
		if err != nil {
			return false
		}
		got, err := ReadPacket(reader(wire))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendPacketRejectsOversize(t *testing.T) {
	if _, err := AppendPacket(nil, make([]byte, MaxPacketLen)); err != ErrPacketTooBig {
		t.Errorf("err = %v, want ErrPacketTooBig", err)
	}
}

func TestReadPacketRejectsBadLengths(t *testing.T) {
	// Packet length below minimum.
	if _, err := ReadPacket(reader([]byte{0, 0, 0, 2, 0, 0})); err == nil {
		t.Error("undersized packet accepted")
	}
	// Oversized.
	if _, err := ReadPacket(reader([]byte{0xff, 0xff, 0xff, 0xff})); err != ErrPacketTooBig {
		t.Error("oversized packet accepted")
	}
	// Padding larger than packet.
	if _, err := ReadPacket(reader([]byte{0, 0, 0, 8, 200, 0, 0, 0, 0, 0, 0, 0})); err != ErrMalformed {
		t.Errorf("bad padding err = %v", err)
	}
}

func TestKexInitRoundTrip(t *testing.T) {
	k := DefaultKexInit(rng.NewKey(5).Derive("host"))
	payload := AppendKexInit(nil, &k)
	if payload[0] != MsgKexInit {
		t.Fatalf("message type = %d", payload[0])
	}
	parsed, err := ParseKexInit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Cookie != k.Cookie {
		t.Error("cookie mismatch")
	}
	if strings.Join(parsed.KexAlgorithms, ",") != strings.Join(k.KexAlgorithms, ",") {
		t.Errorf("kex algos = %v", parsed.KexAlgorithms)
	}
	if strings.Join(parsed.CiphersServerClient, ",") != strings.Join(k.CiphersServerClient, ",") {
		t.Errorf("ciphers = %v", parsed.CiphersServerClient)
	}
	if len(parsed.LanguagesClientServer) != 0 {
		t.Errorf("languages = %v, want none", parsed.LanguagesClientServer)
	}
	if parsed.FirstKexPacketFollows != k.FirstKexPacketFollows {
		t.Error("first_kex_packet_follows mismatch")
	}
}

func TestKexInitOverWire(t *testing.T) {
	wire, err := AppendPacket(nil, kexPayload(rng.NewKey(6).Derive("host")))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadPacket(reader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseKexInit(payload); err != nil {
		t.Fatal(err)
	}
}

func TestParseKexInitRejectsGarbage(t *testing.T) {
	if _, err := ParseKexInit(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := ParseKexInit([]byte{99, 0, 0}); err == nil {
		t.Error("wrong type accepted")
	}
	// Truncated name-list.
	b := []byte{MsgKexInit}
	b = append(b, make([]byte, 16)...)
	b = append(b, 0, 0, 0, 200) // claims 200 bytes, has none
	if _, err := ParseKexInit(b); err == nil {
		t.Error("truncated name-list accepted")
	}
}

func TestDefaultKexInitDeterministic(t *testing.T) {
	a := DefaultKexInit(rng.NewKey(7))
	b := DefaultKexInit(rng.NewKey(7))
	if a.Cookie != b.Cookie {
		t.Error("same key produced different cookies")
	}
	c := DefaultKexInit(rng.NewKey(8))
	if a.Cookie == c.Cookie {
		t.Error("different keys produced same cookie")
	}
}

// limitEdges are the inputs that sit on each bound on untrusted input.
func limitEdges() map[string]string {
	return map[string]string{
		"line at limit":         "SSH-2.0-" + strings.Repeat("a", MaxIDLen-8) + "\n",
		"CRLF line over limit":  "SSH-2.0-" + strings.Repeat("a", MaxIDLen-8) + "\r\n",
		"line over limit":       "SSH-2.0-" + strings.Repeat("a", MaxIDLen-7) + "\n",
		"unterminated at limit": strings.Repeat("a", MaxIDLen),
		"unterminated over":     strings.Repeat("a", MaxIDLen+1),
		"64 banner lines":       strings.Repeat("spam\r\n", MaxBannerLines),
		"63 banner lines + ID":  strings.Repeat("spam\r\n", MaxBannerLines-1) + "SSH-2.0-x\r\n",
		"64 banner lines + ID":  strings.Repeat("spam\r\n", MaxBannerLines) + "SSH-2.0-x\r\n",
		"closed before ID":      "",
		"closed mid-line":       "SSH-2.0-Open",
		"other protocol":        "220 FTP ready\r\n",
		"no software":           "SSH-2.0-\r\n",
		"no dash":               "SSH-2.0\r\n",
		"bare LF":               "SSH-2.0-x y z\n",
	}
}

// TestHostileInputSentinels pins the error class of each limit edge: the
// grabber's FailMode classification depends on exactly these sentinels.
func TestHostileInputSentinels(t *testing.T) {
	edges := limitEdges()
	for name, want := range map[string]error{
		"line at limit":         nil,
		"CRLF line over limit":  ErrIDTooLong,
		"line over limit":       ErrIDTooLong,
		"unterminated at limit": io.EOF,
		"unterminated over":     ErrIDTooLong,
		"64 banner lines":       ErrNotSSH,
		"63 banner lines + ID":  nil,
		"64 banner lines + ID":  ErrNotSSH,
		"closed before ID":      io.EOF,
		"closed mid-line":       io.EOF,
		"other protocol":        io.EOF,
		"no software":           ErrNotSSH,
		"no dash":               ErrNotSSH,
		"bare LF":               nil,
	} {
		raw, ok := edges[name]
		if !ok {
			t.Fatalf("no edge case %q", name)
		}
		if _, err := ReadID(reader([]byte(raw))); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
}

// diffID holds ReadID, and the ReadPacket that may follow it on the same
// stream, to the oracle: same error, same parsed fields, same payload.
func diffID(t *testing.T, raw []byte) {
	t.Helper()
	inPlace := new(wirebuf.Reader)
	inPlace.ResetBytes(raw)
	for _, rd := range []*wirebuf.Reader{reader(raw), inPlace} {
		br := bufio.NewReader(bytes.NewReader(raw))
		want, wantErr := oracleReadID(br)
		got, err := ReadID(rd)
		if err != wantErr {
			t.Fatalf("ReadID: err = %v, oracle %v", err, wantErr)
		}
		if err != nil {
			continue
		}
		if string(got.ProtoVersion) != want.ProtoVersion || string(got.SoftwareVersion) != want.SoftwareVersion ||
			string(got.Comments) != want.Comments {
			t.Fatalf("ReadID = %q %q %q, oracle %+v", got.ProtoVersion, got.SoftwareVersion, got.Comments, want)
		}
		wantPayload, wantErr := oracleReadPacket(br)
		payload, err := ReadPacket(rd)
		if err != wantErr || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("ReadPacket: %d bytes, err %v; oracle %d bytes, err %v", len(payload), err, len(wantPayload), wantErr)
		}
	}
}

// idSeeds are real flights plus the limit edges.
func idSeeds() [][]byte {
	server := must(AppendID(nil, "2.0", "OpenSSH_7.4", ""))
	server = must(AppendPacket(server, kexPayload(rng.NewKey(1))))
	seeds := [][]byte{
		server,
		server[:len(server)-9],
		must(AppendID(nil, "2.0", "zgrab_ssh_0.x", "")),
		must(AppendID(nil, "1.99", "dropbear_2019.78", "a comment")),
		[]byte("SSH-2.0-x\r\n\x00\x00\x00\x08\xc8\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("SSH-2.0-x\r\n\xff\xff\xff\xff"),
		[]byte("SSH-2.0-x\r\n\x00\x00\x00\x02\x00\x00"),
	}
	for _, raw := range limitEdges() {
		seeds = append(seeds, []byte(raw))
	}
	return seeds
}

func TestReadIDMatchesOracle(t *testing.T) {
	for _, raw := range idSeeds() {
		diffID(t, raw)
	}
}

func FuzzReadID(f *testing.F) {
	for _, raw := range idSeeds() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { diffID(t, raw) })
}

// TestEncodersAllocateNothing: with a destination that has room, the three
// encoders of the server flight are allocation-free.
func TestEncodersAllocateNothing(t *testing.T) {
	key := rng.NewKey(9)
	out, tmp := make([]byte, 0, 1024), make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		out, _ = AppendID(out[:0], "2.0", "OpenSSH_8.0", "")
		kex := DefaultKexInit(key)
		tmp = AppendKexInit(tmp[:0], &kex)
		out, _ = AppendPacket(out, tmp)
	}); n != 0 {
		t.Errorf("server flight: %v allocs, want 0", n)
	}
}
