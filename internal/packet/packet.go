// Package packet implements IPv4 and TCP header wire formats with real
// checksums, plus a gopacket-style layered serializer/decoder. The ZMap
// scanner core builds genuine SYN probes through this package and validates
// genuine SYN-ACK bytes coming back; the simulation fabric is just the
// transport that carries them.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ip"
)

// Protocol numbers used by the study.
const (
	ProtoTCP = 6
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// IPv4Header is a decoded IPv4 header (no options support needed by the
// scanner; options presence is tolerated on decode).
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16 // filled by serialization; verified on decode
	Src, Dst ip.Addr
	HdrLen   int // bytes, >= 20
}

// TCPHeader is a decoded TCP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          int // header length in bytes, >= 20
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte
}

// HasFlag reports whether the header has all the given flag bits set.
func (t *TCPHeader) HasFlag(f uint8) bool { return t.Flags&f == f }

// Errors returned by decoding.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: not IPv4")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrNotTCP      = errors.New("packet: not TCP")
)

// Checksum computes the Internet checksum (RFC 1071) over data with an
// initial partial sum.
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	i := 0
	for ; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		sum += uint32(data[i]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum4 computes the IPv4 TCP pseudo-header partial sum over
// host-order address words.
func pseudoHeaderSum4(src, dst uint32, tcpLen int) uint32 {
	var sum uint32
	sum += src >> 16
	sum += src & 0xffff
	sum += dst >> 16
	sum += dst & 0xffff
	sum += ProtoTCP
	sum += uint32(tcpLen)
	return sum
}

// pseudoHeaderSum6 computes the IPv6 TCP pseudo-header partial sum
// (RFC 8200 §8.1): both 128-bit addresses, the upper-layer length, and the
// next-header value, as 16-bit words.
func pseudoHeaderSum6(src, dst ip.Addr, tcpLen int) uint32 {
	var sum uint32
	for _, w := range [...]uint64{src.Hi(), src.Lo(), dst.Hi(), dst.Lo()} {
		sum += uint32(w>>48) + uint32(w>>32&0xffff) + uint32(w>>16&0xffff) + uint32(w&0xffff)
	}
	sum += ProtoTCP
	sum += uint32(tcpLen)
	return sum
}

// SerializeTCP4 builds a complete IPv4+TCP packet with correct checksums.
// It is the single-call layered serializer (the analog of gopacket's
// SerializeLayers for the one stack this scanner sends).
func SerializeTCP4(iph *IPv4Header, tcph *TCPHeader, payload []byte) []byte {
	return SerializeTCP4Into(nil, iph, tcph, payload)
}

// SerializeTCP4Into is SerializeTCP4 writing into buf's storage when it has
// the capacity, allocating only when it doesn't. A scanner sending millions
// of probes reuses one buffer instead of allocating per probe; the returned
// slice aliases buf and is valid until the next reuse.
func SerializeTCP4Into(buf []byte, iph *IPv4Header, tcph *TCPHeader, payload []byte) []byte {
	tcpLen := 20 + len(tcph.Options) + len(payload)
	if len(tcph.Options)%4 != 0 {
		panic("packet: TCP options must be padded to 4 bytes")
	}
	totalLen := 20 + tcpLen
	if cap(buf) >= totalLen {
		buf = buf[:totalLen]
	} else {
		buf = make([]byte, totalLen)
	}

	// IPv4 header.
	buf[0] = 0x45 // version 4, IHL 5
	buf[1] = iph.TOS
	binary.BigEndian.PutUint16(buf[2:], uint16(totalLen))
	binary.BigEndian.PutUint16(buf[4:], iph.ID)
	binary.BigEndian.PutUint16(buf[6:], uint16(iph.Flags)<<13|iph.FragOff&0x1fff)
	ttl := iph.TTL
	if ttl == 0 {
		ttl = 64
	}
	buf[8] = ttl
	buf[9] = ProtoTCP
	binary.BigEndian.PutUint32(buf[12:], iph.Src.V4())
	binary.BigEndian.PutUint32(buf[16:], iph.Dst.V4())
	buf[10], buf[11] = 0, 0 // checksum field must be zero while summing
	binary.BigEndian.PutUint16(buf[10:], Checksum(buf[:20], 0))

	// TCP header.
	t := buf[20:]
	binary.BigEndian.PutUint16(t[0:], tcph.SrcPort)
	binary.BigEndian.PutUint16(t[2:], tcph.DstPort)
	binary.BigEndian.PutUint32(t[4:], tcph.Seq)
	binary.BigEndian.PutUint32(t[8:], tcph.Ack)
	dataOff := (20 + len(tcph.Options)) / 4
	t[12] = byte(dataOff << 4)
	t[13] = tcph.Flags
	win := tcph.Window
	if win == 0 {
		win = 65535
	}
	binary.BigEndian.PutUint16(t[14:], win)
	binary.BigEndian.PutUint16(t[18:], tcph.Urgent)
	copy(t[20:], tcph.Options)
	copy(t[20+len(tcph.Options):], payload)
	t[16], t[17] = 0, 0 // checksum field must be zero while summing
	binary.BigEndian.PutUint16(t[16:], Checksum(t[:tcpLen], pseudoHeaderSum4(iph.Src.V4(), iph.Dst.V4(), tcpLen)))

	return buf
}

// DecodeTCP4 parses and validates an IPv4+TCP packet, returning both
// headers and the payload. Checksums are verified; a packet that fails
// verification is rejected exactly as a kernel or ZMap would drop it.
func DecodeTCP4(data []byte) (*IPv4Header, *TCPHeader, []byte, error) {
	iph, tcph := new(IPv4Header), new(TCPHeader)
	payload, err := DecodeTCP4Into(iph, tcph, data)
	if err != nil {
		if iph.HdrLen == 0 {
			return nil, nil, nil, err
		}
		return iph, nil, nil, err
	}
	return iph, tcph, payload, nil
}

// DecodeTCP4Into is DecodeTCP4 decoding into caller-provided headers, so a
// hot loop evaluating millions of probes keeps both on the stack instead of
// allocating per packet. Both structs are reset first; iph is filled as far
// as parsing got (its HdrLen stays 0 until the IPv4 header verified), tcph
// only on full success. The payload and tcph.Options alias data.
func DecodeTCP4Into(iph *IPv4Header, tcph *TCPHeader, data []byte) ([]byte, error) {
	*iph = IPv4Header{}
	*tcph = TCPHeader{}
	if len(data) < 20 {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, ErrTruncated
	}
	if Checksum(data[:ihl], 0) != 0 {
		return nil, ErrBadChecksum
	}
	*iph = IPv4Header{
		TOS:      data[1],
		TotalLen: binary.BigEndian.Uint16(data[2:]),
		ID:       binary.BigEndian.Uint16(data[4:]),
		Flags:    data[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(data[6:]) & 0x1fff,
		TTL:      data[8],
		Protocol: data[9],
		Checksum: binary.BigEndian.Uint16(data[10:]),
		Src:      ip.AddrFrom4(binary.BigEndian.Uint32(data[12:])),
		Dst:      ip.AddrFrom4(binary.BigEndian.Uint32(data[16:])),
		HdrLen:   ihl,
	}
	if iph.Protocol != ProtoTCP {
		return nil, ErrNotTCP
	}
	if int(iph.TotalLen) > len(data) || int(iph.TotalLen) < ihl+20 {
		return nil, ErrTruncated
	}
	seg := data[ihl:iph.TotalLen]
	if len(seg) < 20 {
		return nil, ErrTruncated
	}
	dataOff := int(seg[12]>>4) * 4
	if dataOff < 20 || dataOff > len(seg) {
		return nil, ErrTruncated
	}
	if Checksum(seg, pseudoHeaderSum4(iph.Src.V4(), iph.Dst.V4(), len(seg))) != 0 {
		return nil, ErrBadChecksum
	}
	*tcph = TCPHeader{
		SrcPort:  binary.BigEndian.Uint16(seg[0:]),
		DstPort:  binary.BigEndian.Uint16(seg[2:]),
		Seq:      binary.BigEndian.Uint32(seg[4:]),
		Ack:      binary.BigEndian.Uint32(seg[8:]),
		DataOff:  dataOff,
		Flags:    seg[13],
		Window:   binary.BigEndian.Uint16(seg[14:]),
		Checksum: binary.BigEndian.Uint16(seg[16:]),
		Urgent:   binary.BigEndian.Uint16(seg[18:]),
	}
	if dataOff > 20 {
		tcph.Options = seg[20:dataOff]
	}
	return seg[dataOff:], nil
}

// MakeSYN builds a SYN probe packet (the ZMap probe): MSS option included,
// as real ZMap sends. The IP layer follows the address family; mixed
// families panic (via V4) rather than emit a corrupt probe.
func MakeSYN(src, dst ip.Addr, srcPort, dstPort uint16, seq uint32, ipID uint16) []byte {
	return MakeSYNInto(nil, src, dst, srcPort, dstPort, seq, ipID)
}

// MakeSYNInto is MakeSYN reusing buf's storage (see SerializeTCP4Into).
func MakeSYNInto(buf []byte, src, dst ip.Addr, srcPort, dstPort uint16, seq uint32, ipID uint16) []byte {
	tcph := TCPHeader{
		SrcPort: srcPort, DstPort: dstPort,
		Seq: seq, Flags: FlagSYN,
		Options: mssOption[:],
	}
	if dst.Is4() {
		return SerializeTCP4Into(buf,
			&IPv4Header{Src: src, Dst: dst, ID: ipID, TTL: 64}, &tcph, nil)
	}
	// IPv6 has no IP-level ID field; the probe index rides in FlowLabel so
	// captures can still distinguish retransmissions.
	return SerializeTCP6Into(buf,
		&IPv6Header{Src: src, Dst: dst, FlowLabel: uint32(ipID), HopLimit: 64}, &tcph, nil)
}

// mssOption is the MSS 1460 TCP option every SYN carries; a package-level
// array keeps MakeSYNInto allocation-free.
var mssOption = [4]byte{2, 4, 0x05, 0xb4}

// MakeSYNACK builds the SYN-ACK a listening host answers with, in the
// family of the addresses.
func MakeSYNACK(src, dst ip.Addr, srcPort, dstPort uint16, seq, ack uint32) []byte {
	return MakeSYNACKInto(nil, src, dst, srcPort, dstPort, seq, ack)
}

// MakeSYNACKInto is MakeSYNACK reusing buf's storage (see
// SerializeTCP4Into).
func MakeSYNACKInto(buf []byte, src, dst ip.Addr, srcPort, dstPort uint16, seq, ack uint32) []byte {
	return serializeReply(buf, src, dst, &TCPHeader{
		SrcPort: srcPort, DstPort: dstPort,
		Seq: seq, Ack: ack, Flags: FlagSYN | FlagACK,
		Options: mssOption[:],
	})
}

// MakeRST builds the RST a closed port answers with, in the family of the
// addresses.
func MakeRST(src, dst ip.Addr, srcPort, dstPort uint16, seq, ack uint32) []byte {
	return MakeRSTInto(nil, src, dst, srcPort, dstPort, seq, ack)
}

// MakeRSTInto is MakeRST reusing buf's storage (see SerializeTCP4Into).
func MakeRSTInto(buf []byte, src, dst ip.Addr, srcPort, dstPort uint16, seq, ack uint32) []byte {
	return serializeReply(buf, src, dst, &TCPHeader{
		SrcPort: srcPort, DstPort: dstPort,
		Seq: seq, Ack: ack, Flags: FlagRST | FlagACK,
	})
}

// ReplyCap is the largest packet MakeSYNACKInto or MakeRSTInto writes (an
// IPv6 SYN-ACK with the MSS option): a probe buffer with this much spare
// capacity after the SYN lets the sink answer without allocating.
const ReplyCap = 40 + 20 + len(mssOption)

// serializeReply serializes a host's payload-free answer in the family of
// the addresses.
func serializeReply(buf []byte, src, dst ip.Addr, tcph *TCPHeader) []byte {
	if dst.Is4() {
		return SerializeTCP4Into(buf, &IPv4Header{Src: src, Dst: dst, TTL: 64}, tcph, nil)
	}
	return SerializeTCP6Into(buf, &IPv6Header{Src: src, Dst: dst, HopLimit: 64}, tcph, nil)
}

// Summary formats a one-line description for diagnostics, sniffing the IP
// version to pick the decoder.
func Summary(data []byte) string {
	var src, dst ip.Addr
	var tcph *TCPHeader
	var payload []byte
	var err error
	if Version(data) == 6 {
		var ip6 *IPv6Header
		ip6, tcph, payload, err = DecodeTCP6(data)
		if err == nil {
			src, dst = ip6.Src, ip6.Dst
		}
	} else {
		var iph *IPv4Header
		iph, tcph, payload, err = DecodeTCP4(data)
		if err == nil {
			src, dst = iph.Src, iph.Dst
		}
	}
	if err != nil {
		return fmt.Sprintf("invalid packet: %v", err)
	}
	flags := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{FlagSYN, "S"}, {FlagACK, "A"}, {FlagRST, "R"}, {FlagFIN, "F"}, {FlagPSH, "P"}} {
		if tcph.HasFlag(f.bit) {
			flags += f.name
		}
	}
	return fmt.Sprintf("%v:%d > %v:%d [%s] seq=%d ack=%d len=%d",
		src, tcph.SrcPort, dst, tcph.DstPort, flags, tcph.Seq, tcph.Ack, len(payload))
}
