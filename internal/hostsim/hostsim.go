// Package hostsim implements the simulated edge hosts: small servers that
// speak genuine HTTP/1.1, TLS 1.2, and SSH transport bytes over a net.Conn.
// Each host runs one software class per protocol (Class, a keyed pick stable
// across trials). The fabric serves every class once per process to the ZGrab
// grabbers over a vconn pipe — they cannot tell these servers from real ones
// — and answers every accepted grab with what that exchange ended in.
package hostsim

import (
	"io"
	"net"

	"repro/internal/httpwire"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sshwire"
	"repro/internal/tlslite"
	"repro/internal/wirebuf"
)

// Server serves host personalities derived from a key: server software
// banners, certificate blobs, and SSH versions vary per host but are stable
// across trials, as real hosts are.
type Server struct {
	key    rng.Key
	kexKey rng.Key
}

// NewServer returns a host simulator deriving personalities from key.
func NewServer(key rng.Key) *Server {
	key = key.Derive("hostsim")
	return &Server{key: key, kexKey: key.Derive("kex")}
}

// exchange is the state one served connection runs on: the client's flight
// is parsed in place in rd's arena, the response flight is built in out, and
// everything the parsers and encoders need in between lives here.
type exchange struct {
	rd   wirebuf.Reader
	w    io.Writer // where flush sends out
	out  []byte    // response flight not yet flushed
	tmp  []byte    // staging: HTTP body, certificate blob, KEXINIT payload
	addr [48]byte  // the host's address text, formatted once per exchange
	req  httpwire.Request
	hr   tlslite.HandshakeReader
	ch   tlslite.ClientHello
}

// flush hands the flight built so far to the peer.
func (x *exchange) flush() error {
	_, err := x.w.Write(x.out)
	x.out = x.out[:0]
	return err
}

// Serve handles one accepted connection to host for the given protocol,
// running software class (0 ≤ class < Classes(p)), and closes conn when
// done. It is designed to run in its own goroutine.
func (s *Server) Serve(conn net.Conn, host ip.Addr, p proto.Protocol, class int) {
	defer conn.Close()
	x := &exchange{w: conn}
	x.rd.Reset(conn)
	s.serve(x, host, p, class)
}

func (s *Server) serve(x *exchange, host ip.Addr, p proto.Protocol, class int) {
	switch p {
	case proto.HTTP:
		s.serveHTTP(x, host, httpServers[class])
	case proto.HTTPS:
		s.serveTLS(x, host)
	case proto.SSH:
		s.serveSSH(x, host, sshVersions[class])
	}
}

var httpServers = []string{
	"nginx", "nginx/1.14.0", "Apache", "Apache/2.4.29 (Ubuntu)",
	"Microsoft-IIS/10.0", "lighttpd/1.4.45", "openresty",
}

var sshVersions = []string{
	"OpenSSH_7.4", "OpenSSH_7.9p1", "OpenSSH_8.2p1", "dropbear_2019.78",
	"OpenSSH_6.6.1", "OpenSSH_8.0",
}

// Classes is how many software classes hosts run for p: one per HTTP
// Server header and per SSH software version, and one for TLS, whose
// negotiated suite is the client's first offer whatever the host.
func Classes(p proto.Protocol) int {
	switch p {
	case proto.HTTP:
		return len(httpServers)
	case proto.SSH:
		return len(sshVersions)
	}
	return 1
}

// Class is host's software class for p: a keyed pick, stable across trials.
func (s *Server) Class(host ip.Addr, p proto.Protocol) int {
	switch p {
	case proto.HTTP:
		return int(s.key.Uint64(host.Word64(), 1) % uint64(len(httpServers)))
	case proto.SSH:
		return int(s.key.Uint64(host.Word64(), 4) % uint64(len(sshVersions)))
	}
	return 0
}

// serveHTTP answers one GET with a small page.
func (s *Server) serveHTTP(x *exchange, host ip.Addr, software string) {
	if err := httpwire.ReadRequest(&x.rd, &x.req); err != nil {
		return
	}
	addr := host.AppendTo(x.addr[:0])
	body := append(x.tmp[:0], "<html><head><title>"...)
	body = append(body, addr...)
	body = append(body, "</title></head><body>host "...)
	body = append(body, addr...)
	body = append(body, " says hello to "...)
	body = append(body, x.req.Method...)
	body = append(body, ' ')
	body = append(body, x.req.Target...)
	body = append(body, "</body></html>"...)
	x.tmp = body
	x.out = httpwire.AppendResponse(x.out, 200, "OK",
		[]httpwire.Header{
			{Name: "Server", Value: software},
			{Name: "Content-Type", Value: "text/html"},
		}, body)
	_ = x.flush() // the connection is done either way
}

// serveTLS completes the server's first handshake flight: ServerHello,
// Certificate, ServerHelloDone. The grab terminates there, as the paper's
// TLS handshake capture does.
func (s *Server) serveTLS(x *exchange, host ip.Addr) {
	x.hr.Reset(&x.rd)
	typ, body, err := x.hr.Next()
	if err != nil || typ != tlslite.TypeClientHello {
		return
	}
	if err := tlslite.ParseClientHello(body, &x.ch); err != nil || len(x.ch.CipherSuites) == 0 {
		x.out = tlslite.AppendAlert(x.out, 2, 40) // fatal handshake_failure
		_ = x.flush()
		return
	}
	// Pick the client's highest-preference suite we "support": first
	// offered, like a server honoring client preference.
	sh := tlslite.ServerHello{
		Version:     tlslite.VersionTLS12,
		CipherSuite: x.ch.CipherSuites[0],
	}
	stream := s.key.Stream(host.Word64(), 2)
	for i := 0; i < 32; i += 8 {
		v := stream.Uint64()
		for j := 0; j < 8; j++ {
			sh.Random[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	// Both messages are far below the record limit; the error returns are
	// for callers with unbounded chains.
	x.out, _ = tlslite.AppendServerHello(x.out, &sh)
	x.tmp = s.appendCertBlob(x.tmp[:0], host)
	x.out, _ = tlslite.AppendCertificate(x.out, &tlslite.Certificate{Chain: [][]byte{x.tmp}})
	x.out = tlslite.AppendServerHelloDone(x.out)
	_ = x.flush()
}

// appendCertBlob synthesizes a stable pseudo-DER certificate for the host.
// It is opaque bytes with a DER-ish SEQUENCE framing, unique per host.
func (s *Server) appendCertBlob(dst []byte, host ip.Addr) []byte {
	stream := s.key.Stream(host.Word64(), 3)
	n := 600 + int(stream.Uint64()%400)
	dst = append(dst, make([]byte, n)...) // extends in place: no temporary
	blob := dst[len(dst)-n:]
	for i := 0; i < n; i += 8 {
		v := stream.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			blob[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	blob[0] = 0x30 // SEQUENCE
	blob[1] = 0x82 // long form, 2 length bytes
	blob[2] = byte((n - 4) >> 8)
	blob[3] = byte(n - 4)
	return dst
}

// serveSSH performs the identification exchange and sends KEXINIT, then
// reads the client's ID and KEXINIT before closing. The grab terminates
// after the version exchange per the paper's methodology.
func (s *Server) serveSSH(x *exchange, host ip.Addr, software string) {
	// A fixed-size ID and KEXINIT: neither length limit can trip.
	x.out, _ = sshwire.AppendID(x.out, "2.0", software, "")
	kex := sshwire.DefaultKexInit(s.kexKey.DeriveN("host", host.Word64()))
	x.tmp = sshwire.AppendKexInit(x.tmp[:0], &kex)
	x.out, _ = sshwire.AppendPacket(x.out, x.tmp)
	if err := x.flush(); err != nil {
		return
	}
	if _, err := sshwire.ReadID(&x.rd); err != nil {
		return
	}
	// Client may send its KEXINIT; read and discard if so.
	_, _ = sshwire.ReadPacket(&x.rd)
}
