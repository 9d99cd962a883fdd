package pcap

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/packet"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeRaw)
	if err != nil {
		t.Fatal(err)
	}
	pkts := [][]byte{
		packet.MakeSYN(ip.AddrFrom4(1), ip.AddrFrom4(2), 40000, 80, 7, 0),
		packet.MakeSYNACK(ip.AddrFrom4(2), ip.AddrFrom4(1), 80, 40000, 9, 8),
		packet.MakeRST(ip.AddrFrom4(2), ip.AddrFrom4(1), 80, 40000, 0, 8),
	}
	for i, p := range pkts {
		ts := time.Duration(i)*time.Hour + 123456*time.Microsecond
		if err := w.WritePacket(ts, p); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType != LinkTypeRaw {
		t.Errorf("link type = %d", r.LinkType)
	}
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Errorf("packet %d data mismatch", i)
		}
		wantTS := time.Duration(i)*time.Hour + 123456*time.Microsecond
		if got.TS != wantTS {
			t.Errorf("packet %d ts = %v, want %v", i, got.TS, wantTS)
		}
		// Captured bytes decode as valid IPv4/TCP.
		if _, _, _, err := packet.DecodeTCP4(got.Data); err != nil {
			t.Errorf("packet %d does not decode: %v", i, err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last packet err = %v, want EOF", err)
	}
}

func TestGlobalHeaderShape(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, LinkTypeRaw); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("header length %d", len(hdr))
	}
	// Little-endian magic 0xa1b2c3d4 → d4 c3 b2 a1 on the wire.
	if hdr[0] != 0xd4 || hdr[1] != 0xc3 || hdr[2] != 0xb2 || hdr[3] != 0xa1 {
		t.Errorf("magic bytes = % x", hdr[:4])
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("hello world, not a pcap!"))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestReaderRejectsTruncatedPacket(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeRaw)
	w.WritePacket(0, []byte{1, 2, 3, 4, 5})
	data := buf.Bytes()[:buf.Len()-2] // chop the packet body
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

// echoSink answers every probe with a RST for testing the tee.
type echoSink struct{ sent int }

func (e *echoSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	e.sent++
	iph, tcph, _, err := packet.DecodeTCP4(pkt)
	if err != nil {
		return nil
	}
	return packet.MakeRST(iph.Dst, iph.Src, tcph.DstPort, tcph.SrcPort, 0, tcph.Seq+1)
}

func TestSinkTee(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeRaw)
	inner := &echoSink{}
	sink := NewSink(inner, w)

	probe := packet.MakeSYN(ip.AddrFrom4(1), ip.AddrFrom4(2), 40000, 80, 5, 0)
	resp := sink.Send(ip.AddrFrom4(1), probe, time.Minute)
	if resp == nil {
		t.Fatal("tee swallowed the response")
	}
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	if w.Count() != 2 {
		t.Fatalf("captured %d packets, want probe+response", w.Count())
	}
	r, _ := NewReader(&buf)
	p1, _ := r.Next()
	p2, _ := r.Next()
	if !bytes.Equal(p1.Data, probe) || !bytes.Equal(p2.Data, resp) {
		t.Error("captured bytes differ from wire bytes")
	}
}

// FuzzPcapReader feeds NewReader and Next hostile captures: whatever the
// bytes, the reader returns packets and then io.EOF or an error, never
// panics, never yields a packet longer than MaxSnapLen or more bytes than
// the input held, and what it did read survives a trip back through the
// Writer unchanged. The seeds are the package's own writer output, whole
// and cut short.
func FuzzPcapReader(f *testing.F) {
	for _, n := range []int{0, 1, 3} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, LinkTypeRaw)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < n; i++ {
			syn := packet.MakeSYN(ip.AddrFrom4(uint32(i)), ip.AddrFrom4(2), 40000, 80, uint32(i), 0)
			if err := w.WritePacket(time.Duration(i)*time.Hour+time.Microsecond, syn); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}
	f.Add([]byte("hello world, not a pcap!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var pkts []Packet
		read := 24
		for {
			p, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			if len(p.Data) > MaxSnapLen {
				t.Fatalf("packet of %d bytes, over MaxSnapLen", len(p.Data))
			}
			read += 16 + len(p.Data)
			pkts = append(pkts, p)
		}
		if read != len(data) {
			t.Fatalf("read %d bytes of packets and headers from %d bytes to io.EOF", read, len(data))
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, r.LinkType)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if err := w.WritePacket(p.TS, p.Data); err != nil {
				t.Fatal(err)
			}
		}
		again, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range pkts {
			got, err := again.Next()
			if err != nil {
				t.Fatalf("packet %d of the rewritten capture: %v", i, err)
			}
			// The writer stores whole seconds in 32 bits; a hostile
			// microsecond field can carry a timestamp past that.
			if !bytes.Equal(got.Data, want.Data) || got.TS != want.TS && want.TS/time.Second <= math.MaxUint32 {
				t.Fatalf("packet %d rewritten as %+v, read as %+v", i, got, want)
			}
		}
	})
}
