package packet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ip"
)

// refChecksumOK is an independent Internet-checksum verifier: the 16-bit
// one's-complement sum of the pseudo-header words and the data, carries
// folded once at the end in a wide accumulator, must be all ones.
func refChecksumOK(pseudo []uint16, data []byte) bool {
	var sum uint64
	for _, w := range pseudo {
		sum += uint64(w)
	}
	for i := 0; i < len(data); i += 2 {
		w := uint64(data[i]) << 8
		if i+1 < len(data) {
			w |= uint64(data[i+1])
		}
		sum += w
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return sum == 0xffff
}

// addrWords returns an address's pseudo-header words: two for v4, eight for
// v6.
func addrWords(a ip.Addr) []uint16 {
	if a.Is4() {
		return []uint16{uint16(a.V4() >> 16), uint16(a.V4())}
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:], a.Hi())
	binary.BigEndian.PutUint64(b[8:], a.Lo())
	w := make([]uint16, 8)
	for i := range w {
		w[i] = binary.BigEndian.Uint16(b[2*i:])
	}
	return w
}

// within reports whether sub is exactly data[off:off+len(sub)] — the same
// bytes in the same memory, not a copy.
func within(data, sub []byte, off int) bool {
	if off < 0 || off+len(sub) > len(data) {
		return false
	}
	return len(sub) == 0 || &sub[0] == &data[off]
}

func sameTCP(a, b *TCPHeader) bool {
	return a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && a.Seq == b.Seq && a.Ack == b.Ack &&
		a.DataOff == b.DataOff && a.Flags == b.Flags && a.Window == b.Window &&
		a.Checksum == b.Checksum && a.Urgent == b.Urgent && bytes.Equal(a.Options, b.Options)
}

// checkTCPAccept checks what both families promise about an accepted
// segment: Options and payload alias the input where the header says they
// are, and the TCP checksum verifies over seg under the pseudo-header.
func checkTCPAccept(t *testing.T, data []byte, segOff, segLen int, src, dst ip.Addr, tcph *TCPHeader, payload []byte) {
	t.Helper()
	if segOff+segLen > len(data) || tcph.DataOff < 20 || tcph.DataOff > segLen {
		t.Fatalf("accepted segment [%d:+%d) with data offset %d outside the %d-byte input", segOff, segLen, tcph.DataOff, len(data))
	}
	if len(tcph.Options) != tcph.DataOff-20 || !within(data, tcph.Options, segOff+20) {
		t.Errorf("Options (%d bytes) are not data[%d:%d]", len(tcph.Options), segOff+20, segOff+tcph.DataOff)
	}
	if len(payload) != segLen-tcph.DataOff || !within(data, payload, segOff+tcph.DataOff) {
		t.Errorf("payload (%d bytes) is not data[%d:%d]", len(payload), segOff+tcph.DataOff, segOff+segLen)
	}
	pseudo := append(append(addrWords(src), addrWords(dst)...), ProtoTCP, uint16(segLen))
	if !refChecksumOK(pseudo, data[segOff:segOff+segLen]) {
		t.Error("accepted a segment whose TCP checksum does not verify")
	}
}

// checkDecode4 runs both v4 decoders over arbitrary bytes.
func checkDecode4(t *testing.T, data []byte) {
	t.Helper()
	var iph IPv4Header
	var tcph TCPHeader
	payload, err := DecodeTCP4Into(&iph, &tcph, data)
	iph2, tcph2, payload2, err2 := DecodeTCP4(data)
	if err != err2 {
		t.Fatalf("DecodeTCP4Into err %v, DecodeTCP4 err %v", err, err2)
	}
	if err != nil {
		if payload != nil || payload2 != nil || tcph2 != nil || !sameTCP(&tcph, &TCPHeader{}) || tcph.Options != nil {
			t.Errorf("rejected packet (%v) left TCP state behind", err)
		}
		if (iph2 == nil) != (iph.HdrLen == 0) || iph2 != nil && *iph2 != iph {
			t.Errorf("rejected packet (%v): DecodeTCP4 header %+v, DecodeTCP4Into %+v", err, iph2, iph)
		}
		return
	}
	if *iph2 != iph || !sameTCP(tcph2, &tcph) || !bytes.Equal(payload, payload2) {
		t.Errorf("decoders disagree on an accepted packet:\n%+v %+v\n%+v %+v", *iph2, *tcph2, iph, tcph)
	}
	if iph.HdrLen < 20 || iph.HdrLen > len(data) || !refChecksumOK(nil, data[:iph.HdrLen]) {
		t.Fatalf("accepted an IPv4 header (%d bytes) that does not verify", iph.HdrLen)
	}
	checkTCPAccept(t, data, iph.HdrLen, int(iph.TotalLen)-iph.HdrLen, iph.Src, iph.Dst, &tcph, payload)
}

// checkDecode6 runs both v6 decoders over arbitrary bytes.
func checkDecode6(t *testing.T, data []byte) {
	t.Helper()
	var ip6 IPv6Header
	var tcph TCPHeader
	payload, err := DecodeTCP6Into(&ip6, &tcph, data)
	ip62, tcph2, payload2, err2 := DecodeTCP6(data)
	if err != err2 {
		t.Fatalf("DecodeTCP6Into err %v, DecodeTCP6 err %v", err, err2)
	}
	if err != nil {
		if payload != nil || payload2 != nil || tcph2 != nil || !sameTCP(&tcph, &TCPHeader{}) || tcph.Options != nil {
			t.Errorf("rejected packet (%v) left TCP state behind", err)
		}
		if ip62 != nil && *ip62 != ip6 {
			t.Errorf("rejected packet (%v): DecodeTCP6 header %+v, DecodeTCP6Into %+v", err, ip62, ip6)
		}
		return
	}
	if *ip62 != ip6 || !sameTCP(tcph2, &tcph) || !bytes.Equal(payload, payload2) {
		t.Errorf("decoders disagree on an accepted packet:\n%+v %+v\n%+v %+v", *ip62, *tcph2, ip6, tcph)
	}
	checkTCPAccept(t, data, 40, int(ip6.PayloadLen), ip6.Src, ip6.Dst, &tcph, payload)
}

// built is one packet a Make*Into builder emitted and the fields it was
// asked to carry.
type built struct {
	pkt              []byte
	src, dst         ip.Addr
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	options          []byte
	id               uint16 // SYN only: the probe index, in ID (v4) or FlowLabel (v6)
}

// buildAll runs the three builders the sweep and the fabric use, each into a
// buffer with spare capacity, as the probe path hands them one.
func buildAll(src, dst ip.Addr, srcPort, dstPort uint16, seq, ack uint32, id uint16) []built {
	buf := func() []byte { return make([]byte, 0, 2*ReplyCap) }
	return []built{
		{MakeSYNInto(buf(), src, dst, srcPort, dstPort, seq, id), src, dst, srcPort, dstPort, seq, 0, FlagSYN, mssOption[:], id},
		{MakeSYNACKInto(buf(), src, dst, srcPort, dstPort, seq, ack), src, dst, srcPort, dstPort, seq, ack, FlagSYN | FlagACK, mssOption[:], 0},
		{MakeRSTInto(buf(), src, dst, srcPort, dstPort, seq, ack), src, dst, srcPort, dstPort, seq, ack, FlagRST | FlagACK, nil, 0},
	}
}

// checkBuilt decodes a builder's packet back to the fields it was built
// from.
func checkBuilt(t *testing.T, b built) {
	t.Helper()
	var tcph TCPHeader
	var src, dst ip.Addr
	var id uint16
	var payload []byte
	var err error
	if b.dst.Is4() {
		var iph IPv4Header
		payload, err = DecodeTCP4Into(&iph, &tcph, b.pkt)
		src, dst, id = iph.Src, iph.Dst, iph.ID
	} else {
		var ip6 IPv6Header
		payload, err = DecodeTCP6Into(&ip6, &tcph, b.pkt)
		src, dst, id = ip6.Src, ip6.Dst, uint16(ip6.FlowLabel)
	}
	if err != nil {
		t.Fatalf("builder output does not decode: %v\n% x", err, b.pkt)
	}
	want := TCPHeader{SrcPort: b.srcPort, DstPort: b.dstPort, Seq: b.seq, Ack: b.ack, DataOff: 20 + len(b.options),
		Flags: b.flags, Window: 65535, Checksum: tcph.Checksum, Options: b.options}
	if src != b.src || dst != b.dst || id != b.id || len(payload) != 0 || !sameTCP(&tcph, &want) {
		t.Errorf("built %v→%v id %d %+v\ndecoded %v→%v id %d %+v", b.src, b.dst, b.id, want, src, dst, id, tcph)
	}
}

// FuzzDecodeTCP fuzzes the sweep's one decoder — the bytes a sink returns
// reach DecodeTCP4Into / DecodeTCP6Into through validateResp unchecked.
// Over arbitrary bytes: neither decoder panics; the stack-scratch form
// agrees with the allocating one on the error and on every header field; a
// rejected packet leaves no TCP state behind; an accepted one has its
// Options and payload inside the input and checksums an independent verifier
// accepts. Over arbitrary field values: every packet the Make*Into builders
// emit decodes back to exactly those fields.
func FuzzDecodeTCP(f *testing.F) {
	src4, dst4 := ip.MustParseAddr("10.99.0.1"), ip.MustParseAddr("192.0.2.7")
	src6, dst6 := ip.MustParseAddr("2001:db8:ffff::1"), ip.MustParseAddr("2001:db8::7")
	for _, pair := range [][2]ip.Addr{{src4, dst4}, {src6, dst6}} {
		for _, b := range buildAll(pair[0], pair[1], 40001, 443, 0xdeadbeef, 0x01020304, 1) {
			for n := 0; n <= len(b.pkt); n++ {
				f.Add(b.pkt[:n], !pair[0].Is4(), uint64(n), uint64(7), uint32(40001<<16|443), uint32(n), uint32(1))
			}
			for _, i := range []int{0, 9, 10, len(b.pkt) - 4, len(b.pkt) - 1} {
				bad := append([]byte(nil), b.pkt...)
				bad[i] ^= 0x40
				f.Add(bad, pair[0].Is4(), ^uint64(0), uint64(0), uint32(0), ^uint32(0), uint32(0))
			}
			// Trailing bytes past the declared length are tolerated.
			f.Add(append(append([]byte(nil), b.pkt...), 0xaa, 0xbb), false, uint64(1), uint64(2), uint32(3), uint32(4), uint32(5))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, v6 bool, a, b uint64, ports, seq, ack uint32) {
		checkDecode4(t, data)
		checkDecode6(t, data)

		src, dst := ip.AddrFrom4(uint32(a)), ip.AddrFrom4(uint32(b))
		if v6 {
			// Keep both out of the IPv4-mapped range: the builders follow
			// the destination's family and panic on a mixed pair by design.
			src, dst = ip.AddrFrom128(a|1<<61, b), ip.AddrFrom128(b|1<<61, a)
		}
		for _, bt := range buildAll(src, dst, uint16(ports>>16), uint16(ports), seq, ack, uint16(seq>>16)) {
			checkBuilt(t, bt)
			checkDecode4(t, bt.pkt)
			checkDecode6(t, bt.pkt)
		}
	})
}
