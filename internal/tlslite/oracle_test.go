package tlslite

// The record reader and hot-path parsers this package shipped before the
// append-style rewrite — io.ReadFull into a fresh payload per record, copied
// session IDs, a string SNI — kept verbatim as the oracle the differential
// and fuzz tests hold the new ones to: same accept/reject, same error, same
// parsed fields.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// oracleClientHello is the old parsed ClientHello (copies, string SNI).
type oracleClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	ServerName   string
}

// oracleServerHello is the old parsed ServerHello.
type oracleServerHello struct {
	Version     uint16
	Random      [32]byte
	SessionID   []byte
	CipherSuite uint16
	Compression uint8
}

// oracleReadRecord reads one TLS record, returning its content type and payload.
func oracleReadRecord(r io.Reader) (uint8, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint16(hdr[3:])
	if int(n) > MaxRecordLen {
		return 0, nil, ErrRecordTooBig
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// oracleHandshakeReader assembles handshake messages across records.
type oracleHandshakeReader struct {
	r   io.Reader
	buf []byte
}

// newOracleHandshakeReader returns a reader over r.
func newOracleHandshakeReader(r io.Reader) *oracleHandshakeReader {
	return &oracleHandshakeReader{r: r}
}

// Next returns the next handshake message (type and body). A fatal alert
// record yields ErrAlert.
func (h *oracleHandshakeReader) Next() (uint8, []byte, error) {
	for len(h.buf) < 4 {
		if err := h.fill(); err != nil {
			return 0, nil, err
		}
	}
	msgType := h.buf[0]
	msgLen := int(h.buf[1])<<16 | int(h.buf[2])<<8 | int(h.buf[3])
	if msgLen > MaxHandshakeLen {
		return 0, nil, ErrMalformed
	}
	for len(h.buf) < 4+msgLen {
		if err := h.fill(); err != nil {
			return 0, nil, err
		}
	}
	body := h.buf[4 : 4+msgLen]
	h.buf = h.buf[4+msgLen:]
	return msgType, body, nil
}

func (h *oracleHandshakeReader) fill() error {
	ct, payload, err := oracleReadRecord(h.r)
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

// oracleParseClientHello decodes a oracleClientHello body.
func oracleParseClientHello(b []byte) (*oracleClientHello, error) {
	ch := &oracleClientHello{}
	if len(b) < 2+32+1 {
		return nil, ErrMalformed
	}
	ch.Version = binary.BigEndian.Uint16(b)
	copy(ch.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+2 {
		return nil, ErrMalformed
	}
	ch.SessionID = append([]byte(nil), b[1:1+sidLen]...)
	b = b[1+sidLen:]
	csLen := int(binary.BigEndian.Uint16(b))
	if csLen%2 != 0 || len(b) < 2+csLen+1 {
		return nil, ErrMalformed
	}
	for i := 0; i < csLen; i += 2 {
		ch.CipherSuites = append(ch.CipherSuites, binary.BigEndian.Uint16(b[2+i:]))
	}
	b = b[2+csLen:]
	compLen := int(b[0])
	if len(b) < 1+compLen {
		return nil, ErrMalformed
	}
	b = b[1+compLen:]
	// Extensions (optional).
	if len(b) >= 2 {
		extLen := int(binary.BigEndian.Uint16(b))
		if len(b) < 2+extLen {
			return nil, ErrMalformed
		}
		ext := b[2 : 2+extLen]
		for len(ext) >= 4 {
			typ := binary.BigEndian.Uint16(ext)
			l := int(binary.BigEndian.Uint16(ext[2:]))
			if len(ext) < 4+l {
				return nil, ErrMalformed
			}
			if typ == 0 { // server_name
				if name, err := oracleParseSNI(ext[4 : 4+l]); err == nil {
					ch.ServerName = name
				}
			}
			ext = ext[4+l:]
		}
	}
	return ch, nil
}

func oracleParseSNI(b []byte) (string, error) {
	if len(b) < 2 {
		return "", ErrMalformed
	}
	listLen := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+listLen || listLen < 3 {
		return "", ErrMalformed
	}
	entry := b[2 : 2+listLen]
	if entry[0] != 0 {
		return "", ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(entry[1:]))
	if len(entry) < 3+n {
		return "", ErrMalformed
	}
	return string(entry[3 : 3+n]), nil
}

// oracleParseServerHello decodes a oracleServerHello body.
func oracleParseServerHello(b []byte) (*oracleServerHello, error) {
	sh := &oracleServerHello{}
	if len(b) < 2+32+1 {
		return nil, ErrMalformed
	}
	sh.Version = binary.BigEndian.Uint16(b)
	copy(sh.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+3 {
		return nil, ErrMalformed
	}
	sh.SessionID = append([]byte(nil), b[1:1+sidLen]...)
	b = b[1+sidLen:]
	sh.CipherSuite = binary.BigEndian.Uint16(b)
	sh.Compression = b[2]
	return sh, nil
}
