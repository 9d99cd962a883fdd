package results_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
)

// TestSealedRowBytes pins what a sealed row costs: 500 k rows, 84 % of
// them carrying one of seven shared banners, sealed in memory and through a
// 4 MiB spill budget. An IPv4 scan's rows must each leave at most 28 B of
// live heap after GC (its columns are 24: 4-byte addresses), an IPv6
// scan's at most 40 B (36: 16-byte addresses), and the spill path must
// make at most 0.01 allocations per row — no string per banner per segment
// read.
func TestSealedRowBytes(t *testing.T) {
	if raceBuild() {
		t.Skip("heap and allocation bounds under the race detector")
	}
	for _, in := range []struct {
		name  string
		addr  func(i int) ip.Addr
		bound float64 // live B/row after seal
	}{
		{"v4", func(i int) ip.Addr { return ip.AddrFrom4(uint32(i) * 2654435761) }, 28},
		{"v6", func(i int) ip.Addr {
			return ip.AddrFrom128(0x2a00_0000_0000_0000|uint64(i%64)<<32, uint64(i)*0x9e3779b97f4a7c15)
		}, 40},
	} {
		t.Run(in.name, func(t *testing.T) { checkSealedRowBytes(t, in.addr, in.bound) })
	}
}

func checkSealedRowBytes(t *testing.T, addr func(i int) ip.Addr, bound float64) {
	const n = 500_000
	banners := [7]string{"nginx/1.18.0", "Apache/2.4.41", "Microsoft-IIS/10.0", "lighttpd/1.4.55",
		"openresty", "cloudflare", "AkamaiGHost"}
	rec := func(i int) results.HostRecord {
		r := results.HostRecord{Addr: addr(i), ProbeMask: 1, Attempts: 1, T: time.Duration(i)}
		if i%100 < 84 {
			r.L7, r.Banner = true, banners[i%7]
		}
		return r
	}
	measure := func(build func() *results.ScanResult) (bytesPerRow, mallocsPerRow float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := build()
		// Two cycles: the first moves the seal's pooled sort index to the
		// pool's victim cache, the second frees it.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if s.Len() != n {
			t.Fatalf("sealed %d rows, want %d", s.Len(), n)
		}
		runtime.KeepAlive(s)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n, float64(after.Mallocs-before.Mallocs) / n
	}
	memB, memM := measure(func() *results.ScanResult {
		s := results.NewScanResultSized(origin.US1, proto.HTTP, 0, n)
		for i := 0; i < n; i++ {
			s.Add(rec(i))
		}
		s.Seal()
		return s
	})
	dir := t.TempDir()
	spB, spM := measure(func() *results.ScanResult {
		s, err := results.NewSpilledScanResult(origin.US1, proto.HTTP, 0, n, results.SpillConfig{Dir: dir, Budget: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s.Add(rec(i))
		}
		if err := s.SealErr(); err != nil {
			t.Fatal(err)
		}
		if s.SpillStats().Segments == 0 {
			t.Fatal("the 4 MiB budget never spilled")
		}
		return s
	})
	t.Logf("in memory: %.1f B/row, %.4f mallocs/row; spilled: %.1f B/row, %.4f mallocs/row", memB, memM, spB, spM)
	if memB > bound {
		t.Errorf("in memory: %.1f B/row live after seal, want ≤ %.0f", memB, bound)
	}
	if spB > bound {
		t.Errorf("spilled: %.1f B/row live after seal, want ≤ %.0f", spB, bound)
	}
	if spM > 0.01 {
		t.Errorf("spilled: %.4f mallocs/row, want ≤ 0.01", spM)
	}
}
