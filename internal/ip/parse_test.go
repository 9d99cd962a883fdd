package ip

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"testing"
)

// parseAddrOracle is the parser ParseAddr was before it and ParseAddrBytes
// became one hand-written implementation: netip.ParseAddr for anything
// holding a colon (zones refused), strconv.ParseUint per octet otherwise.
// It is the reference the differential test and fuzzer hold both forms to.
func parseAddrOracle(s string) (Addr, error) {
	if strings.IndexByte(s, ':') >= 0 {
		na, err := netip.ParseAddr(s)
		if err != nil || !na.Is6() || na.Zone() != "" {
			return Addr{}, fmt.Errorf("ip: invalid address %q", s)
		}
		b := na.As16()
		var a Addr
		for i := 0; i < 8; i++ {
			a.hi = a.hi<<8 | uint64(b[i])
			a.lo = a.lo<<8 | uint64(b[i+8])
		}
		return a, nil
	}
	var parts [4]uint64
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return Addr{}, fmt.Errorf("ip: invalid address %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 8)
		if err != nil {
			return Addr{}, fmt.Errorf("ip: invalid address %q", s)
		}
		parts[i] = v
	}
	return AddrFrom4(uint32(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3])), nil
}

// parseAddrSeeds covers every branch of the v4 and v6 grammars: each "::"
// position, embedded dotted quads in and out of place, group and octet
// overflow, leading zeros (legal in a bare dotted quad, illegal embedded),
// zones, and the stray bytes a JSON token can carry.
var parseAddrSeeds = []string{
	"", "0.0.0.0", "1.2.3.4", "255.255.255.255", "256.0.0.1", "1.2.3", "1.2.3.4.5",
	"1..2.3", ".1.2.3", "1.2.3.", "01.002.0003.00000000004", "1.2.3.x", "-1.2.3.4",
	"+1.2.3.4", "1.2.3.4 ", " 1.2.3.4", "1_0.2.3.4", "99999999999999999999.1.1.1",
	"::", "::1", "1::", ":::", ":", ":1", "1:", "::1:", ":1::", "1::2::3", "2001:db8",
	"2001:db8::1", "2001:DB8::A", "fe80::1%eth0", "fe80::1%", "::%eth0", "%eth0::1",
	"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8",
	"1:2:3:4:5:6:7:8::", "::1:2:3:4:5:6:7:8", "1:2:3:4::5:6:7:8", "12345::", "g::1",
	"::ffff:1.2.3.4", "::ffff:01.2.3.4", "::ffff:1.2.3", "::ffff:1.2.3.4.5", "::ffff:256.2.3.4",
	"::1.2.3.4:5", "1:2:3:4:5:6:1.2.3.4", "1:2:3:4:5:1.2.3.4", "1:2:3:4:5:6:7:1.2.3.4",
	"::1:2:3:4:5:6:1.2.3.4", "::1:2:3:4:5:1.2.3.4", "1.2.3.4::", "1.2.3.4:80", "::ab.1.1.1",
	"::0255.1.1.1", "::1234.1.1.1", "::1.2.3.4.", "::.1.2.3", "2a00:1:0:0:0:0:0:2b",
	"2001:db8::\x00", "2001:db8::1\n", "\xff::1", "2001:db8:1234:5678:9abc:def0:1234:5678",
}

// checkParseAddr holds one input to the contract: string form ≡ bytes form
// ≡ oracle (netip for IPv6), an accepted address survives AppendTo → parse
// in both forms, and an accepted IPv6 address formats as netip's text.
func checkParseAddr(t *testing.T, s string) {
	t.Helper()
	want, wantErr := parseAddrOracle(s)
	got, err := ParseAddr(s)
	gotB, errB := ParseAddrBytes([]byte(s))
	if (err == nil) != (wantErr == nil) || got != want {
		t.Fatalf("ParseAddr(%q) = %v, %v; oracle %v, %v", s, got, err, want, wantErr)
	}
	if (errB == nil) != (wantErr == nil) || gotB != want {
		t.Fatalf("ParseAddrBytes(%q) = %v, %v; oracle %v, %v", s, gotB, errB, want, wantErr)
	}
	if err != nil {
		if errB.Error() != err.Error() {
			t.Fatalf("error text differs: %q vs %q", err, errB)
		}
		return
	}
	text := got.AppendTo(nil)
	if string(text) != got.String() {
		t.Fatalf("AppendTo %q != String %q", text, got.String())
	}
	back, err := ParseAddrBytes(text)
	if err != nil || back != got {
		t.Fatalf("%q → %q → %v, %v: AppendTo does not round-trip", s, text, back, err)
	}
	if got.Is6() {
		checkFormat6(t, got)
	}
}

// checkFormat6 holds AppendTo's IPv6 text to netip's RFC 5952 form.
func checkFormat6(t *testing.T, a Addr) {
	t.Helper()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(a.hi >> (56 - 8*i))
		b[i+8] = byte(a.lo >> (56 - 8*i))
	}
	if got, want := string(a.AppendTo(nil)), netip.AddrFrom16(b).String(); got != want {
		t.Fatalf("AppendTo(%#x:%#x) = %q, netip says %q", a.hi, a.lo, got, want)
	}
}

// TestFormat6ZeroRuns walks all 256 zero/non-zero patterns of the eight
// groups: the longest zero run becomes "::", the first of two equal runs
// wins, and a single zero group is never compressed. The non-zero groups
// cycle through every digit count, so leading-zero trimming is covered too.
func TestFormat6ZeroRuns(t *testing.T) {
	vals := []uint64{0x2a00, 0x1, 0xabc, 0xf0, 0xffff, 0x10}
	for mask := 0; mask < 256; mask++ {
		var a Addr
		for g := 0; g < 8; g++ {
			a.hi, a.lo = a.hi<<16|a.lo>>48, a.lo<<16
			if mask&(1<<g) != 0 {
				a.lo |= vals[(mask+g)%len(vals)]
			}
		}
		checkFormat6(t, a)
	}
	for a, want := range map[Addr]string{
		MustParseAddr("1:0:0:2:0:0:3:4"): "1::2:0:0:3:4",
		MustParseAddr("1:0:2:0:0:0:3:0"): "1:0:2::3:0",
		MustParseAddr("1:2:3:4:5:6:0:7"): "1:2:3:4:5:6:0:7",
		MustParseAddr("0:0:0:0:0:0:0:1"): "::1",
		MustParseAddr("1:0:0:0:0:0:0:0"): "1::",
		{}:                               "::",
	} {
		if got := a.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestParseAddrMatchesOracle(t *testing.T) {
	for _, s := range parseAddrSeeds {
		checkParseAddr(t, s)
	}
}

func FuzzParseAddr(f *testing.F) {
	for _, s := range parseAddrSeeds {
		f.Add(s)
	}
	f.Fuzz(checkParseAddr)
}

// TestParseAddrBytesDoesNotAllocate is what lets the dataset decoder parse
// an IPv6 row straight out of its read window.
func TestParseAddrBytesDoesNotAllocate(t *testing.T) {
	inputs := [][]byte{
		[]byte("2a00:1:0:0:0:0:0:2b"), []byte("2001:db8:1234:5678:9abc:def0:1234:5678"),
		[]byte("::ffff:1.2.3.4"), []byte("192.0.2.1"),
	}
	n := testing.AllocsPerRun(100, func() {
		for _, b := range inputs {
			if _, err := ParseAddrBytes(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 0 {
		t.Errorf("%.1f allocations per %d parses, want 0", n, len(inputs))
	}
}
