package results

// Dual-stack spill coverage: the segment format carries 128-bit
// addresses, refuses the retired ORSEG001 and ORSEG002 formats loudly, and
// round-trips IPv6 records bit-exactly through spill → merge → seal and
// through the JSON encoding (v4 rows keep the historical bare-integer
// form; v6 rows are canonical-text strings).

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
)

// TestOpenSegmentRejectsOldMagic pins the upgrade story for spill
// directories: a segment written by a retired format — ORSEG001 (32-bit
// addresses) or ORSEG002 (banner text in the frame) — must fail with an
// explicit version error — never decode (the row layout changed, so
// decoding would corrupt every row) and never report a generic bad-magic
// (the file WAS one of ours).
func TestOpenSegmentRejectsOldMagic(t *testing.T) {
	dir := t.TempDir()
	for _, old := range []string{"ORSEG001", "ORSEG002"} {
		path := filepath.Join(dir, old+".seg")
		if err := os.WriteFile(path, []byte(old+"\x10\x00\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := openSegment(path, 0)
		if err == nil {
			t.Fatalf("openSegment accepted an %s segment", old)
		}
		if !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "no longer readable") {
			t.Errorf("old-magic error %q does not name the retired version", err)
		}
	}

	// A genuinely foreign file still gets the generic bad-magic error.
	alien := filepath.Join(dir, "alien.seg")
	if err := os.WriteFile(alien, []byte("NOTASEGM"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(alien, 0); err == nil || !strings.Contains(err.Error(), "bad segment magic") {
		t.Errorf("foreign magic error = %v, want bad segment magic", err)
	}
}

// TestOpenSegmentRejectsWrongWidth checks the explicit address-width field:
// a current-magic segment claiming a different width is refused before any
// frame is decoded.
func TestOpenSegmentRejectsWrongWidth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w4.seg")
	if err := os.WriteFile(path, append([]byte(segMagic), 4), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openSegment(path, 0)
	if err == nil || !strings.Contains(err.Error(), "address width") {
		t.Errorf("wrong-width error = %v, want address-width mismatch", err)
	}
}

// v6RandRecord draws records from a mixed v4/v6 pool so segment frames
// interleave both families and the merge path orders across them.
func v6RandRecord(rng *rand.Rand) HostRecord {
	r := randRecord(rng)
	if rng.Intn(2) == 0 {
		r.Addr = ip.AddrFrom128(0x2a00_0000_0000_0000|uint64(rng.Intn(32)), uint64(1+rng.Intn(512)))
	} else {
		r.Addr = ip.AddrFrom4(uint32(rng.Intn(2048)))
	}
	if r.L7 && rng.Intn(8) == 0 {
		r.Banner = strings.Repeat("v6banner-", 1+rng.Intn(20))
	}
	return r
}

// TestSpillDifferentialDualStack replays one mixed-family record stream
// into the in-memory store and spill stores at adversarial budgets: rows
// must match exactly and the sealed JSON bytes must be identical, proving
// the 128-bit segment encode/decode and the k-way merge order v6 keys the
// same way the in-memory sort does.
func TestSpillDifferentialDualStack(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var script [][]HostRecord
		for i := 0; i < 40; i++ {
			n := 1 + rng.Intn(60)
			batch := make([]HostRecord, n)
			for j := range batch {
				batch[j] = v6RandRecord(rng)
			}
			script = append(script, batch)
		}

		mem := NewScanResult(origin.AU, proto.HTTP, 0)
		for _, b := range script {
			mem.AddBatch(b)
		}
		memJSON := sealedJSON(t, mem)

		for _, budget := range []int64{1, 4 * rowBytes, 64 << 10} {
			dir := t.TempDir()
			sp, err := NewSpilledScanResult(origin.AU, proto.HTTP, 0, 0, SpillConfig{Dir: dir, Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range script {
				sp.AddBatch(b)
			}
			if d := mem.DiffAgainst(sp); d != "" {
				t.Fatalf("seed %d budget %d: %s", seed, budget, d)
			}
			if got := sealedJSON(t, sp); !bytes.Equal(got, memJSON) {
				t.Fatalf("seed %d budget %d: sealed JSON bytes differ", seed, budget)
			}
		}
	}
}

// TestJSONRoundTripIPv6 pins the dual-form record encoding: v6 addresses
// come back from ReadJSON exactly, and the emitted text really is a quoted
// canonical string (not a number), so external consumers can tell the
// families apart.
func TestJSONRoundTripIPv6(t *testing.T) {
	s := NewScanResult(origin.AU, proto.HTTP, 0)
	v6 := ip.AddrFrom128(0x2a00_0001_0000_0000, 0x2b)
	s.Add(HostRecord{Addr: ip.AddrFrom4(10), ProbeMask: 0b01, L7: true})
	s.Add(HostRecord{Addr: v6, ProbeMask: 0b11, Attempts: 2})
	raw := sealedJSON(t, s)
	if !bytes.Contains(raw, []byte(`["`+v6.String()+`",`)) {
		t.Fatalf("JSON %s does not contain quoted v6 address %q", raw, v6.String())
	}
	ds, err := ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := ds.MustScan(origin.AU, proto.HTTP, 0)
	r, ok := got.Get(v6)
	if !ok || r.ProbeMask != 0b11 || r.Attempts != 2 {
		t.Fatalf("v6 record after round trip = %+v, %v", r, ok)
	}
	if _, ok := got.Get(ip.AddrFrom4(10)); !ok {
		t.Fatal("v4 record lost in round trip")
	}
}
