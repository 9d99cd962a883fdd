// Package sshwire implements the SSH transport-layer wire format from
// RFC 4253 as far as the study's grab needs it: the identification-string
// exchange ("SSH-2.0-..."), the binary packet protocol (pre-encryption), and
// the SSH_MSG_KEXINIT message. The paper's SSH grab completes the protocol
// version exchange and terminates, so no key exchange or crypto is
// performed, but the bytes on the wire are genuine SSH.
//
// Encoders append to a caller-owned buffer; ReadID and ReadPacket return
// views into the wirebuf.Reader's arena (valid until that Reader is
// reset), so the exchange allocates nothing.
package sshwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"

	"repro/internal/rng"
	"repro/internal/wirebuf"
)

// RFC 4253 message numbers used here.
const (
	MsgDisconnect = 1
	MsgKexInit    = 20
)

// Limits on untrusted input.
const (
	MaxIDLen       = 255   // RFC 4253 §4.2: max identification line incl. CRLF
	MaxBannerLines = 64    // lines a server may send before its ID string
	MaxPacketLen   = 35000 // RFC 4253 §6.1 minimum required supported size
)

// Errors.
var (
	ErrIDTooLong    = errors.New("sshwire: identification string too long")
	ErrNotSSH       = errors.New("sshwire: peer did not send an SSH identification")
	ErrPacketTooBig = errors.New("sshwire: packet exceeds maximum length")
	ErrMalformed    = errors.New("sshwire: malformed packet")
)

// ID is a parsed identification string: views into the arena.
type ID struct {
	ProtoVersion    []byte // "2.0"
	SoftwareVersion []byte // e.g. "OpenSSH_7.4"
	Comments        []byte
}

// AppendID appends an identification string terminated by CRLF.
func AppendID(dst []byte, protoVersion, softwareVersion, comments string) ([]byte, error) {
	n := len("SSH-") + len(protoVersion) + 1 + len(softwareVersion) + len("\r\n")
	if comments != "" {
		n += 1 + len(comments)
	}
	if n > MaxIDLen {
		return dst, ErrIDTooLong
	}
	dst = append(dst, "SSH-"...)
	dst = append(dst, protoVersion...)
	dst = append(dst, '-')
	dst = append(dst, softwareVersion...)
	if comments != "" {
		dst = append(dst, ' ')
		dst = append(dst, comments...)
	}
	return append(dst, "\r\n"...), nil
}

// ReadID reads the peer's identification string, skipping any pre-ID banner
// lines a server is allowed to send (RFC 4253 §4.2).
func ReadID(rd *wirebuf.Reader) (ID, error) {
	for i := 0; i < MaxBannerLines; i++ {
		line, err := readLine(rd)
		if err != nil {
			return ID{}, err
		}
		if bytes.HasPrefix(line, sshDash) {
			return parseID(line)
		}
	}
	return ID{}, ErrNotSSH
}

var sshDash = []byte("SSH-")

// readLine returns the next LF-terminated line without its LF or CRLF. A
// line may hold MaxIDLen bytes before the LF; unlike HTTP, a stream that
// ends mid-line is an error.
func readLine(rd *wirebuf.Reader) ([]byte, error) {
	for {
		u := rd.Unread()
		i := bytes.IndexByte(u, '\n')
		if i > MaxIDLen || (i < 0 && len(u) > MaxIDLen) {
			return nil, ErrIDTooLong
		}
		if i >= 0 {
			rd.Advance(i + 1)
			return bytes.TrimSuffix(u[:i], cr), nil
		}
		if err := rd.Fill(); err != nil {
			return nil, err
		}
	}
}

var cr = []byte("\r")

func parseID(line []byte) (ID, error) {
	// SSH-protoversion-softwareversion [SP comments]
	rest := bytes.TrimPrefix(line, sshDash)
	proto, swAndComments, ok := bytes.Cut(rest, dash)
	if !ok {
		return ID{}, ErrNotSSH
	}
	id := ID{ProtoVersion: proto}
	id.SoftwareVersion, id.Comments, _ = bytes.Cut(swAndComments, space)
	if len(id.ProtoVersion) == 0 || len(id.SoftwareVersion) == 0 {
		return ID{}, ErrNotSSH
	}
	return id, nil
}

var (
	dash  = []byte("-")
	space = []byte(" ")
)

// AppendPacket appends one unencrypted SSH binary packet (RFC 4253 §6):
// uint32 packet_length, byte padding_length, payload, random padding.
// Block size 8 applies before encryption; padding is at least 4 bytes.
func AppendPacket(dst, payload []byte) ([]byte, error) {
	const block = 8
	// packet_length covers padding_length byte + payload + padding.
	padLen := block - (5+len(payload))%block
	if padLen < 4 {
		padLen += block
	}
	total := 1 + len(payload) + padLen
	if total+4 > MaxPacketLen {
		return dst, ErrPacketTooBig
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	dst = append(dst, byte(padLen))
	dst = append(dst, payload...)
	// Padding bytes: arbitrary; deterministic here.
	for i := 0; i < padLen; i++ {
		dst = append(dst, byte(i*37))
	}
	return dst, nil
}

// ReadPacket reads one unencrypted SSH binary packet and returns its
// payload (a view into rd's arena).
func ReadPacket(rd *wirebuf.Reader) ([]byte, error) {
	if err := rd.Need(4); err != nil {
		return nil, err
	}
	pktLen := binary.BigEndian.Uint32(rd.Unread())
	if pktLen < 5 || pktLen > MaxPacketLen {
		return nil, ErrPacketTooBig
	}
	rd.Advance(4)
	if err := rd.Need(int(pktLen)); err != nil {
		return nil, err
	}
	body := rd.Unread()[:pktLen]
	rd.Advance(int(pktLen))
	padLen := int(body[0])
	if padLen < 4 || 1+padLen > int(pktLen) {
		return nil, ErrMalformed
	}
	return body[1 : int(pktLen)-padLen], nil
}

// KexInit is the SSH_MSG_KEXINIT message (RFC 4253 §7.1).
type KexInit struct {
	Cookie                  [16]byte
	KexAlgorithms           []string
	HostKeyAlgorithms       []string
	CiphersClientServer     []string
	CiphersServerClient     []string
	MACsClientServer        []string
	MACsServerClient        []string
	CompressionClientServer []string
	CompressionServerClient []string
	LanguagesClientServer   []string
	LanguagesServerClient   []string
	FirstKexPacketFollows   bool
}

// The OpenSSH-flavoured algorithm preferences every DefaultKexInit shares.
var (
	defaultKex      = []string{"curve25519-sha256", "diffie-hellman-group14-sha256"}
	defaultHostKeys = []string{"ssh-ed25519", "rsa-sha2-256"}
	defaultCiphers  = []string{"chacha20-poly1305@openssh.com", "aes128-ctr"}
	defaultMACs     = []string{"hmac-sha2-256"}
	defaultNone     = []string{"none"}
)

// DefaultKexInit returns a realistic OpenSSH-flavoured KEXINIT with a cookie
// derived from key. The name-lists are shared between all callers:
// read-only.
func DefaultKexInit(key rng.Key) KexInit {
	k := KexInit{
		KexAlgorithms:           defaultKex,
		HostKeyAlgorithms:       defaultHostKeys,
		CiphersClientServer:     defaultCiphers,
		CiphersServerClient:     defaultCiphers,
		MACsClientServer:        defaultMACs,
		MACsServerClient:        defaultMACs,
		CompressionClientServer: defaultNone,
		CompressionServerClient: defaultNone,
	}
	s := key.Stream(0x6b6578) // "kex"
	for i := 0; i < 16; i += 8 {
		binary.BigEndian.PutUint64(k.Cookie[i:], s.Uint64())
	}
	return k
}

// AppendKexInit appends the KEXINIT payload, including the leading message
// byte.
func AppendKexInit(dst []byte, k *KexInit) []byte {
	dst = append(dst, MsgKexInit)
	dst = append(dst, k.Cookie[:]...)
	for _, list := range k.nameLists() {
		dst = appendNameList(dst, *list)
	}
	if k.FirstKexPacketFollows {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return append(dst, 0, 0, 0, 0) // reserved uint32
}

// ParseKexInit decodes a KEXINIT payload (starting at the message byte).
func ParseKexInit(payload []byte) (*KexInit, error) {
	if len(payload) < 1+16 || payload[0] != MsgKexInit {
		return nil, ErrMalformed
	}
	k := &KexInit{}
	copy(k.Cookie[:], payload[1:17])
	rest := payload[17:]
	var err error
	for _, list := range k.nameLists() {
		*list, rest, err = readNameList(rest)
		if err != nil {
			return nil, err
		}
	}
	if len(rest) < 5 {
		return nil, ErrMalformed
	}
	k.FirstKexPacketFollows = rest[0] != 0
	return k, nil
}

// nameLists returns pointers to the ten name-list fields in wire order.
func (k *KexInit) nameLists() [10]*[]string {
	return [10]*[]string{
		&k.KexAlgorithms, &k.HostKeyAlgorithms,
		&k.CiphersClientServer, &k.CiphersServerClient,
		&k.MACsClientServer, &k.MACsServerClient,
		&k.CompressionClientServer, &k.CompressionServerClient,
		&k.LanguagesClientServer, &k.LanguagesServerClient,
	}
}

func appendNameList(dst []byte, names []string) []byte {
	n := len(names) - 1 // separators
	if n < 0 {
		n = 0
	}
	for _, name := range names {
		n += len(name)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, name...)
	}
	return dst
}

func readNameList(b []byte) ([]string, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrMalformed
	}
	n := binary.BigEndian.Uint32(b)
	if uint32(len(b)-4) < n {
		return nil, nil, ErrMalformed
	}
	s := string(b[4 : 4+n])
	rest := b[4+n:]
	if s == "" {
		return nil, rest, nil
	}
	return strings.Split(s, ","), rest, nil
}
