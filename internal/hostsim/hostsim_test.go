package hostsim

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sshwire"
	"repro/internal/tlslite"
	"repro/internal/vconn"
	"repro/internal/wirebuf"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// serve runs the host end of a pipe, as host's own software class, and
// returns the client side plus a waiter for server completion.
func serve(s *Server, host ip.Addr, p proto.Protocol) (client *vconn.Conn, wait func()) {
	client, server := vconn.PipeLabeled("client", host.String())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Serve(server, host, p, s.Class(host, p))
	}()
	return client, wg.Wait
}

// reader returns a wirebuf.Reader over the server's side of a connection.
func reader(conn io.Reader) *wirebuf.Reader {
	rd := new(wirebuf.Reader)
	rd.Reset(conn)
	return rd
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// clientFlight is the opening flight a grabber sends host for p.
func clientFlight(p proto.Protocol, host ip.Addr, key rng.Key) []byte {
	addr := []byte(host.String())
	switch p {
	case proto.HTTP:
		return httpwire.AppendRequest(nil, "GET", "/", addr, "Mozilla/5.0 zgrab/0.x")
	case proto.HTTPS:
		var ch tlslite.ClientHello
		tlslite.InitClientHello(&ch, key.DeriveN("ch", host.Word64()), addr)
		return must(tlslite.AppendClientHello(nil, &ch))
	default:
		return must(sshwire.AppendID(nil, "2.0", "zgrab_ssh_0.x", ""))
	}
}

func TestServeHTTPAnswersGet(t *testing.T) {
	s := NewServer(rng.NewKey(1))
	client, wait := serve(s, ip.MustParseAddr("10.0.0.1"), proto.HTTP)
	defer client.Close()
	if _, err := client.Write(httpwire.AppendRequest(nil, "GET", "/", []byte("10.0.0.1"), "test")); err != nil {
		t.Fatal(err)
	}
	var resp httpwire.Response
	if err := httpwire.ReadResponse(reader(client), &resp, 0); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if sv, ok := resp.Get("Server"); !ok || len(sv) == 0 {
		t.Error("no Server header")
	}
	if len(resp.Body) == 0 {
		t.Error("empty body")
	}
	wait()
}

func TestServeHTTPIgnoresGarbage(t *testing.T) {
	s := NewServer(rng.NewKey(2))
	client, wait := serve(s, ip.MustParseAddr("10.0.0.2"), proto.HTTP)
	client.Write([]byte("NONSENSE\r\n\r\n"))
	client.Close()
	wait() // must terminate without hanging or panicking
}

func TestServeTLSFlight(t *testing.T) {
	s := NewServer(rng.NewKey(3))
	host := ip.MustParseAddr("10.0.0.3")
	client, wait := serve(s, host, proto.HTTPS)
	defer client.Close()
	var ch tlslite.ClientHello
	tlslite.InitClientHello(&ch, rng.NewKey(4), []byte(host.String()))
	if _, err := client.Write(must(tlslite.AppendClientHello(nil, &ch))); err != nil {
		t.Fatal(err)
	}
	var hr tlslite.HandshakeReader
	hr.Reset(reader(client))
	typ, body, err := hr.Next()
	if err != nil || typ != tlslite.TypeServerHello {
		t.Fatalf("first message: %d, %v", typ, err)
	}
	var sh tlslite.ServerHello
	if err := tlslite.ParseServerHello(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.CipherSuite != ch.CipherSuites[0] {
		t.Errorf("server picked %#x, want client's first preference %#x", sh.CipherSuite, ch.CipherSuites[0])
	}
	typ, body, err = hr.Next()
	if err != nil || typ != tlslite.TypeCertificate {
		t.Fatalf("second message: %d, %v", typ, err)
	}
	cert, err := tlslite.ParseCertificate(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Chain) != 1 || cert.Chain[0][0] != 0x30 {
		t.Error("certificate blob not DER-framed")
	}
	if typ, _, err = hr.Next(); err != nil || typ != tlslite.TypeServerHelloDone {
		t.Fatalf("third message: %d, %v", typ, err)
	}
	wait()
}

func TestServeTLSAlertsOnEmptySuites(t *testing.T) {
	s := NewServer(rng.NewKey(5))
	host := ip.MustParseAddr("10.0.0.4")
	client, wait := serve(s, host, proto.HTTPS)
	defer client.Close()
	ch := tlslite.ClientHello{Version: tlslite.VersionTLS12}
	if _, err := client.Write(must(tlslite.AppendClientHello(nil, &ch))); err != nil {
		t.Fatal(err)
	}
	var hr tlslite.HandshakeReader
	hr.Reset(reader(client))
	if _, _, err := hr.Next(); err != tlslite.ErrAlert {
		t.Errorf("err = %v, want ErrAlert", err)
	}
	wait()
}

func TestServeSSHVersionExchange(t *testing.T) {
	s := NewServer(rng.NewKey(7))
	host := ip.MustParseAddr("10.0.0.5")
	client, wait := serve(s, host, proto.SSH)
	defer client.Close()
	rd := reader(client)
	id, err := sshwire.ReadID(rd)
	if err != nil {
		t.Fatal(err)
	}
	if string(id.ProtoVersion) != "2.0" || len(id.SoftwareVersion) == 0 {
		t.Errorf("server id = %+v", id)
	}
	// Server's KEXINIT follows.
	payload, err := sshwire.ReadPacket(rd)
	if err != nil {
		t.Fatal(err)
	}
	kex, err := sshwire.ParseKexInit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(kex.KexAlgorithms) == 0 {
		t.Error("empty kex algorithm list")
	}
	// Complete our side so the server returns cleanly.
	mine := sshwire.DefaultKexInit(rng.NewKey(8))
	flight := must(sshwire.AppendID(nil, "2.0", "test", ""))
	client.Write(must(sshwire.AppendPacket(flight, sshwire.AppendKexInit(nil, &mine))))
	wait()
}

func TestPersonalitiesStableAndDiverse(t *testing.T) {
	s := NewServer(rng.NewKey(9))
	banner := func(host ip.Addr) string {
		client, wait := serve(s, host, proto.SSH)
		defer client.Close()
		id, err := sshwire.ReadID(reader(client))
		if err != nil {
			t.Fatal(err)
		}
		client.Close()
		wait()
		return string(id.SoftwareVersion)
	}
	a1 := banner(ip.MustParseAddr("10.1.0.1"))
	a2 := banner(ip.MustParseAddr("10.1.0.1"))
	if a1 != a2 {
		t.Error("same host changed SSH version across connections")
	}
	versions := map[string]bool{}
	for i := 0; i < 20; i++ {
		versions[banner(ip.AddrFrom4(0x0a020000+uint32(i)))] = true
	}
	if len(versions) < 2 {
		t.Error("SSH versions not diverse across hosts")
	}
}

func TestCertBlobStablePerHost(t *testing.T) {
	s := NewServer(rng.NewKey(10))
	a := s.appendCertBlob(nil, ip.MustParseAddr("10.0.0.9"))
	b := s.appendCertBlob(nil, ip.MustParseAddr("10.0.0.9"))
	if string(a) != string(b) {
		t.Error("certificate changed between handshakes")
	}
	c := s.appendCertBlob(nil, ip.MustParseAddr("10.0.0.10"))
	if string(a) == string(c) {
		t.Error("different hosts share a certificate")
	}
	if len(a) < 500 {
		t.Errorf("cert suspiciously small: %d bytes", len(a))
	}
	// Appending after other bytes frames the blob, not the prefix.
	if d := s.appendCertBlob([]byte("prefix"), ip.MustParseAddr("10.0.0.9")); !bytes.Equal(d[6:], a) || string(d[:6]) != "prefix" {
		t.Error("blob appended after a prefix differs")
	}
}

// ServeInline handles one connection's exchange synchronously in the
// caller's goroutine: in holds every byte the client has written, and the
// server's whole response flight is appended to out. All three protocols are
// turn-based single-flight exchanges — the client writes its complete
// opening flight before reading — so reads past the client bytes see io.EOF
// exactly where a Serve goroutine would see the client's half-close.
func (s *Server) ServeInline(out, in []byte, host ip.Addr, p proto.Protocol) []byte {
	w := appendWriter{b: out}
	x := &exchange{w: &w}
	x.rd.ResetBytes(in)
	s.serve(x, host, p, s.Class(host, p))
	return w.b
}

// appendWriter appends what is written to b.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// TestServeInlineMatchesGoroutineServe is the inline-serve byte proof: for
// each protocol, the response flight ServeInline appends for a complete
// client opening flight must be byte-identical to what a goroutine Serve
// streams through a vconn pipe for the same flight.
// (TestFlightsMatchOracleEncoders records flights through ServeInline; the
// grabbers' parsers are insensitive to chunking, so identical bytes mean
// identical zgrab.Results.)
func TestServeInlineMatchesGoroutineServe(t *testing.T) {
	s := NewServer(rng.NewKey(77))
	for _, host := range []ip.Addr{
		ip.MustParseAddr("10.1.2.3"),
		ip.MustParseAddr("172.16.9.200"),
		ip.MustParseAddr("192.0.2.41"),
	} {
		for _, p := range []proto.Protocol{proto.HTTP, proto.HTTPS, proto.SSH} {
			flight := clientFlight(p, host, rng.NewKey(5))
			t.Run(host.String()+"/"+p.String(), func(t *testing.T) {
				client, wait := serve(s, host, p)
				if _, err := client.Write(flight); err != nil {
					t.Fatal(err)
				}
				client.CloseWrite()
				ref, err := io.ReadAll(client)
				if err != nil {
					t.Fatalf("reading reference flight: %v", err)
				}
				wait()
				client.Close()

				out := s.ServeInline([]byte("kept"), flight, host, p)
				if !bytes.Equal(out[4:], ref) || string(out[:4]) != "kept" {
					t.Errorf("inline flight (%d bytes) differs from goroutine flight (%d bytes)",
						len(out)-4, len(ref))
				}
				if len(ref) == 0 {
					t.Error("reference server sent nothing")
				}
			})
		}
	}
}

// TestServeInlineGarbage: a non-protocol flight must leave the inline
// server silent for HTTP/TLS parse failures without hanging or panicking,
// like the goroutine server.
func TestServeInlineGarbage(t *testing.T) {
	s := NewServer(rng.NewKey(78))
	host := ip.MustParseAddr("10.9.9.9")
	for _, p := range []proto.Protocol{proto.HTTP, proto.HTTPS, proto.SSH} {
		client, wait := serve(s, host, p)
		client.Write([]byte("NONSENSE\r\n\r\n"))
		client.CloseWrite()
		ref, _ := io.ReadAll(client)
		wait()
		client.Close()
		out := s.ServeInline(nil, []byte("NONSENSE\r\n\r\n"), host, p)
		if !bytes.Equal(out, ref) {
			t.Errorf("%v: inline garbage response (%d bytes) differs from goroutine (%d bytes)",
				p, len(out), len(ref))
		}
	}
}

// recConn is the in-memory client end: writes gather the client flight,
// the first read serves it inline, so a test sees exactly what a
// zgrab.Grabber and a Server put on the wire for each other.
type recConn struct {
	s      *Server
	host   ip.Addr
	p      proto.Protocol
	client []byte
	server []byte
	served bool
	off    int
}

func (c *recConn) Write(b []byte) (int, error) {
	c.client = append(c.client, b...)
	return len(b), nil
}

func (c *recConn) Read(b []byte) (int, error) {
	if !c.served {
		c.served = true
		c.server = c.s.ServeInline(nil, c.client, c.host, c.p)
	}
	if c.off >= len(c.server) {
		return 0, io.EOF
	}
	n := copy(b, c.server[c.off:])
	c.off += n
	return n, nil
}

func (c *recConn) Close() error                     { return nil }
func (c *recConn) LocalAddr() net.Addr              { return vconn.Addr{Label: "grabber"} }
func (c *recConn) RemoteAddr() net.Addr             { return vconn.Addr{IP: c.host} }
func (c *recConn) SetDeadline(time.Time) error      { return nil }
func (c *recConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

// TestFlightsMatchOracleEncoders is the wire byte-identity proof for the
// append-style codecs: for every host of a test world (and a few IPv6
// addresses) and every protocol, the flight the grabber writes and the
// flight the server answers equal, byte for byte, what the old fmt/Marshal
// encoders produced, and the grab still succeeds on them.
func TestFlightsMatchOracleEncoders(t *testing.T) {
	w, err := world.Build(context.Background(), world.Spec{Seed: 5, Scale: 0.00002})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []ip.Addr
	for _, h := range w.Hosts() {
		hosts = append(hosts, h.Addr)
	}
	if len(hosts) < 500 {
		t.Fatalf("test world has only %d hosts", len(hosts))
	}
	hosts = append(hosts, ip.MustParseAddr("2001:db8::1"), ip.MustParseAddr("2a00:1450:4001:81b::200e"))

	s := NewServer(rng.NewKey(2020))
	key := rng.NewKey(9).Derive("grab")
	g := &zgrab.Grabber{Key: key}
	for _, host := range hosts {
		for _, p := range []proto.Protocol{proto.HTTP, proto.HTTPS, proto.SSH} {
			conn := recConn{s: s, host: host, p: p}
			res := g.Exchange(&conn, p, host)
			if !res.Success || res.Banner == "" {
				t.Fatalf("%v %v: grab failed: %+v", host, p, res)
			}
			if want := oracleClientFlight(p, host, key); !bytes.Equal(conn.client, want) {
				t.Fatalf("%v %v: client flight\n got %q\nwant %q", host, p, conn.client, want)
			}
			if want := oracleServerFlight(s, p, host); !bytes.Equal(conn.server, want) {
				t.Fatalf("%v %v: server flight\n got %q\nwant %q", host, p, conn.server, want)
			}
		}
	}
}
