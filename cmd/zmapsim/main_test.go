package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/pipeline"
	"repro/internal/zgrab"
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

// TestRunStdoutDeterministic: the same scan prints the same bytes every
// run. The grab-failure lines come in FailMode order and banners with equal
// counts in name order, not in map order.
func TestRunStdoutDeterministic(t *testing.T) {
	args := []string{"-proto", "ssh", "-origin", "CEN", "-banners", "-scale", "0.00002"}
	var first string
	for i := 0; i < 8; i++ {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, out.String(), first)
		}
	}

	modes, lastMode := 0, -1
	var lastBanner string
	lastCount := -1
	inBanners := false
	for _, line := range strings.Split(first, "\n") {
		if _, rest, ok := strings.Cut(line, "grab failed ("); ok {
			name, _, _ := strings.Cut(rest, ")")
			mode := -1
			for m := zgrab.FailNone; m <= zgrab.FailProto; m++ {
				if m.String() == name {
					mode = int(m)
				}
			}
			if mode <= lastMode {
				t.Errorf("fail mode %q printed after a later one:\n%s", name, first)
			}
			lastMode = mode
			modes++
			continue
		}
		if line == "top banners:" {
			inBanners = true
			continue
		}
		if fields := strings.Fields(line); inBanners && len(fields) == 2 {
			var n int
			fmt.Sscan(fields[1], &n)
			if lastCount >= 0 && (n > lastCount || n == lastCount && fields[0] < lastBanner) {
				t.Errorf("banner %s (%d) printed after %s (%d)", fields[0], n, lastBanner, lastCount)
			}
			lastBanner, lastCount = fields[0], n
		}
	}
	if modes < 2 || lastCount < 0 {
		t.Fatalf("scan shows %d fail modes and no banner table, nothing to order:\n%s", modes, first)
	}
}

// TestRunRejectsNonsenseFlags: a negative retry budget and a negative trial
// fail the command with the study's bad-configuration error instead of
// printing a scan of nonsense rows.
func TestRunRejectsNonsenseFlags(t *testing.T) {
	for _, flag := range []string{"-retries", "-trial"} {
		t.Run(flag, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-scale", "0.00002", flag, "-1"}, &out)
			if !errors.Is(err, pipeline.ErrBadConfig) {
				t.Errorf("%s -1: err = %v, want ErrBadConfig; printed\n%s", flag, err, out.String())
			}
		})
	}
}
