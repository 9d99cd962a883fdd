package hostsim

// The encoders the three wire packages shipped before the append-style
// rewrite — fmt.Fprintf into strings.Builders, Marshal into fresh slices,
// one io.Writer call per frame — and the serve functions that drove them,
// kept as they were (names prefixed, KEXINIT's ten name-list fields folded
// into an array, the write-side limit checks dropped) as the oracle for the
// flight byte-identity test: whatever the new codecs put on the wire for a
// host must equal what these produce.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
)

// --- httpwire ---

type oracleHeader struct{ Name, Value string }

func oracleWriteRequest(w io.Writer, method, target, host, userAgent string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", method, target)
	fmt.Fprintf(&b, "Host: %s\r\n", host)
	if userAgent != "" {
		fmt.Fprintf(&b, "User-Agent: %s\r\n", userAgent)
	}
	b.WriteString("Accept: */*\r\nConnection: close\r\n\r\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func oracleWriteResponse(w io.Writer, statusCode int, status string, headers []oracleHeader, body []byte) error {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", statusCode, status)
	hasLen := false
	for _, h := range headers {
		if strings.EqualFold(h.Name, "Content-Length") {
			hasLen = true
		}
		fmt.Fprintf(&b, "%s: %s\r\n", h.Name, h.Value)
	}
	if !hasLen {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	b.WriteString("Connection: close\r\n\r\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// --- tlslite ---

const (
	oracleRecordHandshake     = 22
	oracleTypeClientHello     = 1
	oracleTypeServerHello     = 2
	oracleTypeCertificate     = 11
	oracleTypeServerHelloDone = 14
	oracleVersionTLS12        = 0x0303
)

var oracleChromeTLS12Suites = []uint16{
	0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8,
	0xc013, 0xc014, 0x009c, 0x009d, 0x002f, 0x0035,
}

type oracleClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	ServerName   string
}

type oracleServerHello struct {
	Version     uint16
	Random      [32]byte
	SessionID   []byte
	CipherSuite uint16
	Compression uint8
}

type oracleCertificate struct {
	Chain [][]byte
}

func oracleNewClientHello(key rng.Key, serverName string) *oracleClientHello {
	ch := &oracleClientHello{
		Version:      oracleVersionTLS12,
		CipherSuites: oracleChromeTLS12Suites,
		ServerName:   serverName,
	}
	s := key.Stream(0x636868) // "chh"
	for i := 0; i < 32; i += 8 {
		binary.BigEndian.PutUint64(ch.Random[i:], s.Uint64())
	}
	return ch
}

func oracleWriteRecord(w io.Writer, contentType uint8, payload []byte) error {
	hdr := [5]byte{contentType, byte(oracleVersionTLS12 >> 8), byte(oracleVersionTLS12 & 0xff)}
	binary.BigEndian.PutUint16(hdr[3:], uint16(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func oracleWriteHandshake(w io.Writer, msgType uint8, body []byte) error {
	msg := make([]byte, 4+len(body))
	msg[0] = msgType
	msg[1] = byte(len(body) >> 16)
	msg[2] = byte(len(body) >> 8)
	msg[3] = byte(len(body))
	copy(msg[4:], body)
	return oracleWriteRecord(w, oracleRecordHandshake, msg)
}

func (ch *oracleClientHello) Marshal() []byte {
	var b []byte
	b = append(b, byte(ch.Version>>8), byte(ch.Version))
	b = append(b, ch.Random[:]...)
	b = append(b, byte(len(ch.SessionID)))
	b = append(b, ch.SessionID...)
	b = append(b, byte(len(ch.CipherSuites)*2>>8), byte(len(ch.CipherSuites)*2))
	for _, cs := range ch.CipherSuites {
		b = append(b, byte(cs>>8), byte(cs))
	}
	b = append(b, 1, 0) // compression: null only
	// Extensions.
	var ext []byte
	if ch.ServerName != "" {
		ext = append(ext, oracleSNIExtension(ch.ServerName)...)
	}
	b = append(b, byte(len(ext)>>8), byte(len(ext)))
	b = append(b, ext...)
	return b
}

func oracleSNIExtension(name string) []byte {
	// extension type 0, server_name_list with one host_name entry.
	inner := make([]byte, 0, len(name)+5)
	inner = append(inner, 0) // name_type host_name
	inner = append(inner, byte(len(name)>>8), byte(len(name)))
	inner = append(inner, name...)
	list := make([]byte, 0, len(inner)+2)
	list = append(list, byte(len(inner)>>8), byte(len(inner)))
	list = append(list, inner...)
	ext := make([]byte, 0, len(list)+4)
	ext = append(ext, 0, 0) // type server_name
	ext = append(ext, byte(len(list)>>8), byte(len(list)))
	ext = append(ext, list...)
	return ext
}

func (ch *oracleClientHello) Write(w io.Writer) error {
	return oracleWriteHandshake(w, oracleTypeClientHello, ch.Marshal())
}

func (sh *oracleServerHello) Marshal() []byte {
	var b []byte
	b = append(b, byte(sh.Version>>8), byte(sh.Version))
	b = append(b, sh.Random[:]...)
	b = append(b, byte(len(sh.SessionID)))
	b = append(b, sh.SessionID...)
	b = append(b, byte(sh.CipherSuite>>8), byte(sh.CipherSuite))
	b = append(b, sh.Compression)
	return b
}

func (sh *oracleServerHello) Write(w io.Writer) error {
	return oracleWriteHandshake(w, oracleTypeServerHello, sh.Marshal())
}

func (c *oracleCertificate) Marshal() []byte {
	var inner []byte
	for _, cert := range c.Chain {
		inner = append(inner, byte(len(cert)>>16), byte(len(cert)>>8), byte(len(cert)))
		inner = append(inner, cert...)
	}
	b := make([]byte, 0, 3+len(inner))
	b = append(b, byte(len(inner)>>16), byte(len(inner)>>8), byte(len(inner)))
	return append(b, inner...)
}

func (c *oracleCertificate) Write(w io.Writer) error {
	return oracleWriteHandshake(w, oracleTypeCertificate, c.Marshal())
}

func oracleWriteServerHelloDone(w io.Writer) error {
	return oracleWriteHandshake(w, oracleTypeServerHelloDone, nil)
}

// --- sshwire ---

type oracleID struct {
	ProtoVersion    string
	SoftwareVersion string
	Comments        string
}

func (id oracleID) String() string {
	s := fmt.Sprintf("SSH-%s-%s", id.ProtoVersion, id.SoftwareVersion)
	if id.Comments != "" {
		s += " " + id.Comments
	}
	return s
}

func oracleWriteID(w io.Writer, id oracleID) error {
	_, err := io.WriteString(w, id.String()+"\r\n")
	return err
}

func oracleWritePacket(w io.Writer, payload []byte) error {
	const block = 8
	padLen := block - (5+len(payload))%block
	if padLen < 4 {
		padLen += block
	}
	total := 1 + len(payload) + padLen
	buf := make([]byte, 4+total)
	binary.BigEndian.PutUint32(buf, uint32(total))
	buf[4] = byte(padLen)
	copy(buf[5:], payload)
	for i := 0; i < padLen; i++ {
		buf[5+len(payload)+i] = byte(i * 37)
	}
	_, err := w.Write(buf)
	return err
}

type oracleKexInit struct {
	Cookie    [16]byte
	NameLists [10][]string
}

func oracleDefaultKexInit(key rng.Key) *oracleKexInit {
	k := &oracleKexInit{NameLists: [10][]string{
		{"curve25519-sha256", "diffie-hellman-group14-sha256"},
		{"ssh-ed25519", "rsa-sha2-256"},
		{"chacha20-poly1305@openssh.com", "aes128-ctr"},
		{"chacha20-poly1305@openssh.com", "aes128-ctr"},
		{"hmac-sha2-256"},
		{"hmac-sha2-256"},
		{"none"},
		{"none"},
	}}
	s := key.Stream(0x6b6578) // "kex"
	for i := 0; i < 16; i += 8 {
		binary.BigEndian.PutUint64(k.Cookie[i:], s.Uint64())
	}
	return k
}

func (k *oracleKexInit) Marshal() []byte {
	var b []byte
	b = append(b, 20) // SSH_MSG_KEXINIT
	b = append(b, k.Cookie[:]...)
	for _, names := range k.NameLists {
		s := strings.Join(names, ",")
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		b = append(b, l[:]...)
		b = append(b, s...)
	}
	b = append(b, 0)          // first_kex_packet_follows
	b = append(b, 0, 0, 0, 0) // reserved uint32
	return b
}

// --- the flights ---

// oracleClientFlight is the opening flight the grabbers sent for p.
func oracleClientFlight(p proto.Protocol, dst ip.Addr, grabKey rng.Key) []byte {
	var w bytes.Buffer
	switch p {
	case proto.HTTP:
		oracleWriteRequest(&w, "GET", "/", dst.String(), "Mozilla/5.0 zgrab/0.x")
	case proto.HTTPS:
		oracleNewClientHello(grabKey.DeriveN("ch", dst.Word64()), dst.String()).Write(&w)
	case proto.SSH:
		oracleWriteID(&w, oracleID{ProtoVersion: "2.0", SoftwareVersion: "zgrab_ssh_0.x"})
	}
	return w.Bytes()
}

// oracleServerFlight is what the old serve functions answered a well-formed
// client flight with (the HTTP request line being GET /, the ClientHello
// offering Chrome's suites).
func oracleServerFlight(s *Server, p proto.Protocol, host ip.Addr) []byte {
	var w bytes.Buffer
	switch p {
	case proto.HTTP:
		software := httpServers[int(s.key.Uint64(host.Word64(), 1)%uint64(len(httpServers)))]
		body := fmt.Sprintf("<html><head><title>%s</title></head><body>host %s says hello to %s %s</body></html>",
			host, host, "GET", "/")
		oracleWriteResponse(&w, 200, "OK",
			[]oracleHeader{
				{Name: "Server", Value: software},
				{Name: "Content-Type", Value: "text/html"},
			}, []byte(body))
	case proto.HTTPS:
		sh := &oracleServerHello{Version: oracleVersionTLS12, CipherSuite: oracleChromeTLS12Suites[0]}
		stream := s.key.Stream(host.Word64(), 2)
		for i := 0; i < 32; i += 8 {
			v := stream.Uint64()
			for j := 0; j < 8; j++ {
				sh.Random[i+j] = byte(v >> (8 * uint(j)))
			}
		}
		sh.Write(&w)
		(&oracleCertificate{Chain: [][]byte{oracleCertBlob(s, host)}}).Write(&w)
		oracleWriteServerHelloDone(&w)
	case proto.SSH:
		version := sshVersions[int(s.key.Uint64(host.Word64(), 4)%uint64(len(sshVersions)))]
		oracleWriteID(&w, oracleID{ProtoVersion: "2.0", SoftwareVersion: version})
		kex := oracleDefaultKexInit(s.key.Derive("kex").DeriveN("host", host.Word64()))
		oracleWritePacket(&w, kex.Marshal())
	}
	return w.Bytes()
}

func oracleCertBlob(s *Server, host ip.Addr) []byte {
	stream := s.key.Stream(host.Word64(), 3)
	n := 600 + int(stream.Uint64()%400)
	blob := make([]byte, n)
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
	return blob
}
