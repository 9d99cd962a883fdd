package sshwire

// The identification and packet readers this package shipped before the
// append-style rewrite — a byte-at-a-time bufio loop into a strings.Builder,
// string fields, a fresh body per packet — kept verbatim as the oracle the
// differential and fuzz tests hold the new ones to: same accept/reject, same
// sentinel error, same parsed fields.

import (
	"bufio"
	"encoding/binary"
	"io"
	"strings"
)

// oracleID is the old parsed identification string.
type oracleID struct {
	ProtoVersion    string
	SoftwareVersion string
	Comments        string
}

// oracleReadID reads the peer's identification string, skipping any pre-oracleID banner
// lines a server is allowed to send (RFC 4253 §4.2).
func oracleReadID(br *bufio.Reader) (oracleID, error) {
	for i := 0; i < MaxBannerLines; i++ {
		line, err := oracleReadLine(br)
		if err != nil {
			return oracleID{}, err
		}
		if strings.HasPrefix(line, "SSH-") {
			return oracleParseID(line)
		}
	}
	return oracleID{}, ErrNotSSH
}

func oracleReadLine(br *bufio.Reader) (string, error) {
	var b strings.Builder
	for {
		c, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if c == '\n' {
			return strings.TrimSuffix(b.String(), "\r"), nil
		}
		if b.Len() >= MaxIDLen {
			return "", ErrIDTooLong
		}
		b.WriteByte(c)
	}
}

func oracleParseID(line string) (oracleID, error) {
	// SSH-protoversion-softwareversion [SP comments]
	rest := strings.TrimPrefix(line, "SSH-")
	dash := strings.IndexByte(rest, '-')
	if dash < 0 {
		return oracleID{}, ErrNotSSH
	}
	id := oracleID{ProtoVersion: rest[:dash]}
	swAndComments := rest[dash+1:]
	if sp := strings.IndexByte(swAndComments, ' '); sp >= 0 {
		id.SoftwareVersion = swAndComments[:sp]
		id.Comments = swAndComments[sp+1:]
	} else {
		id.SoftwareVersion = swAndComments
	}
	if id.ProtoVersion == "" || id.SoftwareVersion == "" {
		return oracleID{}, ErrNotSSH
	}
	return id, nil
}

// oracleReadPacket reads one unencrypted SSH binary packet and returns its payload.
func oracleReadPacket(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	pktLen := binary.BigEndian.Uint32(lenBuf[:])
	if pktLen < 5 || pktLen > MaxPacketLen {
		return nil, ErrPacketTooBig
	}
	body := make([]byte, pktLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	padLen := int(body[0])
	if padLen < 4 || 1+padLen > int(pktLen) {
		return nil, ErrMalformed
	}
	return body[1 : int(pktLen)-padLen], nil
}
