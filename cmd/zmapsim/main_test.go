package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/pcap"
)

// stat reads the count zmapsim printed after label.
func stat(t *testing.T, out, label string) int {
	t.Helper()
	_, after, ok := strings.Cut(out, label)
	if !ok {
		t.Fatalf("output has no %q line:\n%s", label, out)
	}
	var n int
	if _, err := fmt.Sscan(after, &n); err != nil {
		t.Fatalf("%q line: %v", label, err)
	}
	return n
}

// TestRunCapturesEveryPacket drives the command end to end through the
// packet-capture seam: the capture must hold every probe the scan reports
// having sent and every valid response it reports having received.
func TestRunCapturesEveryPacket(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.pcap")
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.00002", "-pcap", path, "-banners"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	sent := stat(t, text, "probes sent:")
	answers := stat(t, text, "SYN-ACKs (valid):") + stat(t, text, "RSTs (valid):")
	if sent == 0 || answers == 0 || stat(t, text, "handshakes OK:") == 0 {
		t.Fatalf("scan found nothing:\n%s", text)
	}
	if !strings.Contains(text, "top banners:") {
		t.Error("-banners printed no banner table")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	syns, replies := 0, 0
	for {
		pkt, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		_, tcph, _, err := packet.DecodeTCP4(pkt.Data)
		if err != nil {
			t.Fatalf("captured packet does not decode: %v", err)
		}
		if tcph.Flags == packet.FlagSYN {
			syns++
		} else {
			replies++
		}
	}
	if syns != sent || replies != answers {
		t.Errorf("capture holds %d SYNs and %d replies, scan reported %d probes sent and %d valid answers",
			syns, replies, sent, answers)
	}
}
