// Package tlslite implements the TLS 1.2 wire format needed for a handshake
// grab: the record layer, ClientHello (with the cipher suites of modern
// Chrome, as the paper's ZGrab configuration sends), ServerHello, and the
// Certificate message carried as opaque DER blobs. The study's HTTPS grab
// considers a host accessible once the server's handshake flight parses, so
// no key exchange or record encryption is implemented — but every byte
// exchanged is valid TLS 1.2 that a real stack would produce or accept.
//
// Encoders append to a caller-owned buffer. The hot-path parsers
// (HandshakeReader, ParseClientHello, ParseServerHello) fill caller-owned,
// reusable values whose byte fields are views — into the HandshakeReader's
// reassembly buffer, valid until its Reset — so a handshake allocates
// nothing.
package tlslite

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/wirebuf"
)

// Record content types.
const (
	RecordHandshake = 22
	RecordAlert     = 21
)

// Handshake message types.
const (
	TypeClientHello     = 1
	TypeServerHello     = 2
	TypeCertificate     = 11
	TypeServerHelloDone = 14
)

// VersionTLS12 is the wire version of TLS 1.2.
const VersionTLS12 = 0x0303

// ChromeTLS12Suites are the TLS 1.2 cipher suites offered by modern Chrome,
// which the paper's methodology uses for the HTTPS handshake.
var ChromeTLS12Suites = []uint16{
	0xc02b, // ECDHE-ECDSA-AES128-GCM-SHA256
	0xc02f, // ECDHE-RSA-AES128-GCM-SHA256
	0xc02c, // ECDHE-ECDSA-AES256-GCM-SHA384
	0xc030, // ECDHE-RSA-AES256-GCM-SHA384
	0xcca9, // ECDHE-ECDSA-CHACHA20-POLY1305
	0xcca8, // ECDHE-RSA-CHACHA20-POLY1305
	0xc013, // ECDHE-RSA-AES128-CBC-SHA
	0xc014, // ECDHE-RSA-AES256-CBC-SHA
	0x009c, // RSA-AES128-GCM-SHA256
	0x009d, // RSA-AES256-GCM-SHA384
	0x002f, // RSA-AES128-CBC-SHA
	0x0035, // RSA-AES256-CBC-SHA
}

// SuiteName is the name a grab records for a negotiated cipher suite.
func SuiteName(cs uint16) string {
	switch cs {
	case 0xc02b:
		return "ECDHE-ECDSA-AES128-GCM-SHA256"
	case 0xc02f:
		return "ECDHE-RSA-AES128-GCM-SHA256"
	case 0xcca8:
		return "ECDHE-RSA-CHACHA20-POLY1305"
	default:
		const hex = "0123456789abcdef"
		return "suite-" + string([]byte{hex[cs>>12&0xf], hex[cs>>8&0xf], hex[cs>>4&0xf], hex[cs&0xf]})
	}
}

// Limits on untrusted input.
const (
	MaxRecordLen    = 1<<14 + 2048
	MaxHandshakeLen = 1 << 18
)

// Errors.
var (
	ErrMalformed    = errors.New("tlslite: malformed message")
	ErrRecordTooBig = errors.New("tlslite: record exceeds maximum length")
	ErrAlert        = errors.New("tlslite: received fatal alert")
)

// ClientHello is the first client flight. A parsed ClientHello's SessionID
// and ServerName are views into the message body it was parsed from.
type ClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	ServerName   []byte // SNI extension, empty to omit
}

// ServerHello is the server's handshake response. A parsed ServerHello's
// SessionID is a view into the message body it was parsed from.
type ServerHello struct {
	Version     uint16
	Random      [32]byte
	SessionID   []byte
	CipherSuite uint16
	Compression uint8
}

// Certificate carries the server certificate chain as opaque DER blobs.
type Certificate struct {
	Chain [][]byte
}

// InitClientHello fills ch as a Chrome-shaped ClientHello with a random
// derived from key, recycling its CipherSuites storage.
func InitClientHello(ch *ClientHello, key rng.Key, serverName []byte) {
	*ch = ClientHello{
		Version:      VersionTLS12,
		CipherSuites: append(ch.CipherSuites[:0], ChromeTLS12Suites...),
		ServerName:   serverName,
	}
	s := key.Stream(0x636868) // "chh"
	for i := 0; i < 32; i += 8 {
		binary.BigEndian.PutUint64(ch.Random[i:], s.Uint64())
	}
}

// --- record layer ---

// AppendRecord frames payload as one TLS record.
func AppendRecord(dst []byte, contentType uint8, payload []byte) ([]byte, error) {
	dst, err := appendRecordHeader(dst, contentType, len(payload))
	if err != nil {
		return dst, err
	}
	return append(dst, payload...), nil
}

func appendRecordHeader(dst []byte, contentType uint8, n int) ([]byte, error) {
	if n > MaxRecordLen {
		return dst, ErrRecordTooBig
	}
	return append(dst, contentType, byte(VersionTLS12>>8), byte(VersionTLS12&0xff), byte(n>>8), byte(n)), nil
}

// ReadRecord reads one TLS record, returning its content type and payload
// (a view into rd's arena).
func ReadRecord(rd *wirebuf.Reader) (uint8, []byte, error) {
	if err := rd.Need(5); err != nil {
		return 0, nil, err
	}
	hdr := rd.Unread()
	ct, n := hdr[0], int(binary.BigEndian.Uint16(hdr[3:]))
	if n > MaxRecordLen {
		return 0, nil, ErrRecordTooBig
	}
	rd.Advance(5)
	if err := rd.Need(n); err != nil {
		return 0, nil, err
	}
	payload := rd.Unread()[:n]
	rd.Advance(n)
	return ct, payload, nil
}

// HandshakeReader assembles handshake messages across records. Reuse one
// across exchanges via Reset; message bodies are views into its reassembly
// buffer, valid until then.
type HandshakeReader struct {
	rd  *wirebuf.Reader
	buf []byte // handshake bytes reassembled so far
	off int    // buf[off:] is not yet returned
}

// Reset starts reading a new flight from rd, recycling the reassembly
// buffer.
func (h *HandshakeReader) Reset(rd *wirebuf.Reader) {
	h.rd = rd
	h.buf = h.buf[:0]
	h.off = 0
}

// Next returns the next handshake message (type and body). A fatal alert
// record yields ErrAlert.
func (h *HandshakeReader) Next() (uint8, []byte, error) {
	for len(h.buf)-h.off < 4 {
		if err := h.fill(); err != nil {
			return 0, nil, err
		}
	}
	hdr := h.buf[h.off:]
	msgType := hdr[0]
	msgLen := int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if msgLen > MaxHandshakeLen {
		return 0, nil, ErrMalformed
	}
	for len(h.buf)-h.off < 4+msgLen {
		if err := h.fill(); err != nil {
			return 0, nil, err
		}
	}
	body := h.buf[h.off+4 : h.off+4+msgLen]
	h.off += 4 + msgLen
	return msgType, body, nil
}

func (h *HandshakeReader) fill() error {
	ct, payload, err := ReadRecord(h.rd)
	if err != nil {
		return err
	}
	switch ct {
	case RecordHandshake:
		h.buf = append(h.buf, payload...)
		return nil
	case RecordAlert:
		return ErrAlert
	default:
		return fmt.Errorf("tlslite: unexpected record type %d", ct)
	}
}

// appendHandshakeHeader frames a handshake message of bodyLen bytes in one
// record; the caller appends exactly bodyLen bytes after it.
func appendHandshakeHeader(dst []byte, msgType uint8, bodyLen int) ([]byte, error) {
	dst, err := appendRecordHeader(dst, RecordHandshake, 4+bodyLen)
	if err != nil {
		return dst, err
	}
	return append(dst, msgType, byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen)), nil
}

// --- ClientHello ---

// AppendClientHello appends the ClientHello as a handshake record.
func AppendClientHello(dst []byte, ch *ClientHello) ([]byte, error) {
	extLen := 0
	if len(ch.ServerName) > 0 {
		extLen = 9 + len(ch.ServerName)
	}
	dst, err := appendHandshakeHeader(dst, TypeClientHello,
		2+32+1+len(ch.SessionID)+2+2*len(ch.CipherSuites)+2+2+extLen)
	if err != nil {
		return dst, err
	}
	dst = append(dst, byte(ch.Version>>8), byte(ch.Version))
	dst = append(dst, ch.Random[:]...)
	dst = append(dst, byte(len(ch.SessionID)))
	dst = append(dst, ch.SessionID...)
	dst = append(dst, byte(len(ch.CipherSuites)*2>>8), byte(len(ch.CipherSuites)*2))
	for _, cs := range ch.CipherSuites {
		dst = append(dst, byte(cs>>8), byte(cs))
	}
	dst = append(dst, 1, 0) // compression: null only
	dst = append(dst, byte(extLen>>8), byte(extLen))
	if extLen > 0 {
		// extension type 0, server_name_list with one host_name entry.
		n := len(ch.ServerName)
		dst = append(dst, 0, 0, byte((n+5)>>8), byte(n+5)) // type server_name, extension length
		dst = append(dst, byte((n+3)>>8), byte(n+3))       // list length
		dst = append(dst, 0, byte(n>>8), byte(n))          // name_type host_name, name length
		dst = append(dst, ch.ServerName...)
	}
	return dst, nil
}

// ParseClientHello decodes a ClientHello body into ch, recycling its
// CipherSuites storage.
func ParseClientHello(b []byte, ch *ClientHello) error {
	suites := ch.CipherSuites[:0]
	*ch = ClientHello{}
	if len(b) < 2+32+1 {
		return ErrMalformed
	}
	ch.Version = binary.BigEndian.Uint16(b)
	copy(ch.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+2 {
		return ErrMalformed
	}
	ch.SessionID = b[1 : 1+sidLen]
	b = b[1+sidLen:]
	csLen := int(binary.BigEndian.Uint16(b))
	if csLen%2 != 0 || len(b) < 2+csLen+1 {
		return ErrMalformed
	}
	for i := 0; i < csLen; i += 2 {
		suites = append(suites, binary.BigEndian.Uint16(b[2+i:]))
	}
	ch.CipherSuites = suites
	b = b[2+csLen:]
	compLen := int(b[0])
	if len(b) < 1+compLen {
		return ErrMalformed
	}
	b = b[1+compLen:]
	// Extensions (optional).
	if len(b) >= 2 {
		extLen := int(binary.BigEndian.Uint16(b))
		if len(b) < 2+extLen {
			return ErrMalformed
		}
		ext := b[2 : 2+extLen]
		for len(ext) >= 4 {
			typ := binary.BigEndian.Uint16(ext)
			l := int(binary.BigEndian.Uint16(ext[2:]))
			if len(ext) < 4+l {
				return ErrMalformed
			}
			if typ == 0 { // server_name
				if name, ok := parseSNI(ext[4 : 4+l]); ok {
					ch.ServerName = name
				}
			}
			ext = ext[4+l:]
		}
	}
	return nil
}

func parseSNI(b []byte) ([]byte, bool) {
	if len(b) < 2 {
		return nil, false
	}
	listLen := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+listLen || listLen < 3 {
		return nil, false
	}
	entry := b[2 : 2+listLen]
	if entry[0] != 0 {
		return nil, false
	}
	n := int(binary.BigEndian.Uint16(entry[1:]))
	if len(entry) < 3+n {
		return nil, false
	}
	return entry[3 : 3+n], true
}

// --- ServerHello ---

// AppendServerHello appends the ServerHello as a handshake record.
func AppendServerHello(dst []byte, sh *ServerHello) ([]byte, error) {
	dst, err := appendHandshakeHeader(dst, TypeServerHello, 2+32+1+len(sh.SessionID)+2+1)
	if err != nil {
		return dst, err
	}
	dst = append(dst, byte(sh.Version>>8), byte(sh.Version))
	dst = append(dst, sh.Random[:]...)
	dst = append(dst, byte(len(sh.SessionID)))
	dst = append(dst, sh.SessionID...)
	dst = append(dst, byte(sh.CipherSuite>>8), byte(sh.CipherSuite))
	return append(dst, sh.Compression), nil
}

// ParseServerHello decodes a ServerHello body into sh.
func ParseServerHello(b []byte, sh *ServerHello) error {
	*sh = ServerHello{}
	if len(b) < 2+32+1 {
		return ErrMalformed
	}
	sh.Version = binary.BigEndian.Uint16(b)
	copy(sh.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+3 {
		return ErrMalformed
	}
	sh.SessionID = b[1 : 1+sidLen]
	b = b[1+sidLen:]
	sh.CipherSuite = binary.BigEndian.Uint16(b)
	sh.Compression = b[2]
	return nil
}

// --- Certificate ---

// AppendCertificate appends the Certificate message as a handshake record.
func AppendCertificate(dst []byte, c *Certificate) ([]byte, error) {
	inner := 0
	for _, cert := range c.Chain {
		inner += 3 + len(cert)
	}
	dst, err := appendHandshakeHeader(dst, TypeCertificate, 3+inner)
	if err != nil {
		return dst, err
	}
	dst = append(dst, byte(inner>>16), byte(inner>>8), byte(inner))
	for _, cert := range c.Chain {
		dst = append(dst, byte(len(cert)>>16), byte(len(cert)>>8), byte(len(cert)))
		dst = append(dst, cert...)
	}
	return dst, nil
}

// ParseCertificate decodes a Certificate body. The chain's blobs are views
// into b.
func ParseCertificate(b []byte) (*Certificate, error) {
	if len(b) < 3 {
		return nil, ErrMalformed
	}
	total := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
	if len(b) < 3+total {
		return nil, ErrMalformed
	}
	inner := b[3 : 3+total]
	c := &Certificate{}
	for len(inner) > 0 {
		if len(inner) < 3 {
			return nil, ErrMalformed
		}
		n := int(inner[0])<<16 | int(inner[1])<<8 | int(inner[2])
		if len(inner) < 3+n {
			return nil, ErrMalformed
		}
		c.Chain = append(c.Chain, inner[3:3+n])
		inner = inner[3+n:]
	}
	return c, nil
}

// AppendServerHelloDone appends the (empty) ServerHelloDone message.
func AppendServerHelloDone(dst []byte) []byte {
	dst, _ = appendHandshakeHeader(dst, TypeServerHelloDone, 0) // 4 bytes: never too big
	return dst
}

// AppendAlert appends a two-byte alert record (level, description).
func AppendAlert(dst []byte, level, desc uint8) []byte {
	dst, _ = appendRecordHeader(dst, RecordAlert, 2) // 2 bytes: never too big
	return append(dst, level, desc)
}
