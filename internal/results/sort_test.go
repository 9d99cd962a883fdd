package results

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/zgrab"
)

// byAddr sorts all columns together by the address column: the in-place
// stable sort sortByAddr replaced, kept as its oracle. The sort must be
// stable so that, of several Adds for one host, the latest stays last and
// dedup can keep it (map-replacement semantics).
type byAddr ScanResult

func (s *byAddr) Len() int           { return s.addrs.len() }
func (s *byAddr) Less(i, j int) bool { return s.addrs.at(i).Less(s.addrs.at(j)) }
func (s *byAddr) Swap(i, j int) {
	ai, aj := s.addrs.at(i), s.addrs.at(j)
	s.addrs.set(i, aj)
	s.addrs.set(j, ai)
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.banner[i], s.banner[j] = s.banner[j], s.banner[i]
}

// sortByAddrOracle is what every seal and flush site ran before sortByAddr.
func (s *ScanResult) sortByAddrOracle() {
	if !s.addrs.isSorted() {
		sort.Stable((*byAddr)(s))
		s.dedup()
	}
}

// sortFixture appends n rows whose addresses come from addr(i); every other
// column is a function of the arrival index i, so a row that ends up in the
// wrong place, or a duplicate resolved to the wrong Add, shows in every
// column.
func sortFixture(n int, addr func(i int) ip.Addr) *ScanResult {
	s := NewScanResult(origin.US1, proto.HTTP, 1)
	for i := 0; i < n; i++ {
		s.Add(HostRecord{
			Addr:      addr(i),
			ProbeMask: uint8(i % 4),
			RST:       i%3 == 0,
			L7:        i%2 == 0,
			Fail:      zgrab.FailMode(i % 5),
			Attempts:  i,
			T:         time.Duration(i) * time.Millisecond,
			Banner:    fmt.Sprintf("row-%d", i),
		})
	}
	return s
}

func columnsOf(s *ScanResult) []any {
	return []any{s.addrs.slice(), s.rows, s.banner, s.banners, s.dedupDropped}
}

// clone is an independent copy of the column, at its width.
func (c *addrCol) clone() addrCol {
	return addrCol{narrow: slices.Clone(c.narrow), wide: slices.Clone(c.wide), isWide: c.isWide}
}

// copyFrom overwrites the column's rows with src's: both are one width and
// one length.
func (c *addrCol) copyFrom(src *addrCol) {
	copy(c.narrow, src.narrow)
	copy(c.wide, src.wide)
}

// copyColumns is an unsorted copy of s's columns, sharing its dictionary:
// the input the stable-sort oracle sorts beside sortByAddr.
func copyColumns(s *ScanResult) *ScanResult {
	return &ScanResult{
		addrs:   s.addrs.clone(),
		rows:    append([]row(nil), s.rows...),
		banner:  append([]uint32(nil), s.banner...),
		banners: s.banners,
	}
}

// TestSortByAddrMatchesStableOracle pins sortByAddr — index sort by
// (address, arrival), in-place cycle application, keep-last dedup — to the
// sort.Stable + dedup it replaced: identical columns and an identical
// dedupDropped count, over both families, duplicate-heavy and duplicate-free
// inputs, and the shapes where the permutation is the identity, one long
// cycle, or many short ones.
func TestSortByAddrMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	v4 := func(pool int) func(int) ip.Addr {
		return func(int) ip.Addr { return ip.AddrFrom4(uint32(rng.Intn(pool))) }
	}
	v6 := func(pool int) func(int) ip.Addr {
		return func(int) ip.Addr {
			return ip.AddrFrom128(0x20010db8<<32|uint64(rng.Intn(4)), uint64(rng.Intn(pool)))
		}
	}
	cases := []struct {
		name string
		n    int
		addr func(int) ip.Addr
	}{
		{"empty", 0, v4(1)},
		{"single", 1, v4(1)},
		{"sorted", 500, func(i int) ip.Addr { return ip.AddrFrom4(uint32(2 * i)) }},
		{"reversed", 500, func(i int) ip.Addr { return ip.AddrFrom4(uint32(1000 - i)) }},
		{"rotated", 500, func(i int) ip.Addr { return ip.AddrFrom4(uint32((i + 1) % 500)) }},
		{"sorted-with-duplicates", 500, func(i int) ip.Addr { return ip.AddrFrom4(uint32(i / 3)) }},
		{"all-one-address", 100, v4(1)},
		{"v4-duplicate-heavy", 2000, v4(64)},
		{"v4-sparse", 2000, v4(1 << 30)},
		{"v6-duplicate-heavy", 2000, v6(16)},
		{"v6-sparse", 2000, v6(1 << 40)},
		{"mixed-families", 2000, func(i int) ip.Addr {
			if rng.Intn(2) == 0 {
				return ip.AddrFrom4(uint32(rng.Intn(200)))
			}
			return ip.AddrFrom128(0x20010db8<<32, uint64(rng.Intn(200)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := sortFixture(tc.n, tc.addr)
			want := copyColumns(got)
			got.sortByAddr()
			want.sortByAddrOracle()
			if !got.addrs.isSorted() {
				t.Fatal("columns not strictly ascending after sortByAddr")
			}
			g, w := columnsOf(got), columnsOf(want)
			for i := range g {
				if !reflect.DeepEqual(g[i], w[i]) {
					t.Errorf("column %d differs from the stable-sort oracle:\n got %v\nwant %v", i, g[i], w[i])
				}
			}
		})
	}
}

// BenchmarkSealSort prices sealing one scan's columns in arrival order — the
// grab hand-off's reply order, which is the permutation's: scattered, with
// no duplicates. 10k-v6 is a hitlist scan's size with keys that vary in every
// byte, 12k-hitlist the same size shaped as a hitlist scan's replies are (64
// provider /32s, 8 /64 islands each, interface IDs ≤ 192, in a scattered
// order), and 100k-v4 a spill-store study's live run.
func BenchmarkSealSort(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		addr func(i int) ip.Addr
	}{
		{"10k-v6", 10_000, func(i int) ip.Addr { return ip.AddrFrom128(0x20010db8<<32|uint64(i%64), uint64(i)*0x9e3779b97f4a7c15) }},
		{"12k-hitlist", 64 * 8 * 24, func(i int) ip.Addr {
			k := i * 7919 % (64 * 8 * 24) // a scattered visit of every (provider, island, host)
			prov, island, host := k/(8*24), k/24%8, k%24
			subnet := uint64(uint32(prov*8+island) * 2654435761)
			return ip.AddrFrom128(uint64(0x2a00_0000|prov<<8)<<32|subnet, uint64(1+8*host))
		}},
		{"100k-v4", 100_000, func(i int) ip.Addr { return ip.AddrFrom4(uint32(i) * 2654435761) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src := sortFixture(bc.n, bc.addr)
			s := &ScanResult{addrs: src.addrs.clone(), rows: make([]row, bc.n), banner: make([]uint32, bc.n)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.addrs.copyFrom(&src.addrs)
				copy(s.rows, src.rows)
				copy(s.banner, src.banner)
				b.StartTimer()
				s.sortByAddr()
			}
		})
	}
}

// FuzzSortByAddr holds sortByAddr to the stable-sort oracle on fuzzed
// address columns: identical columns and dedupDropped. mode picks how data
// becomes addresses — raw 16-byte addresses, a handful of addresses
// repeated (dedup, and runs with no byte left to sort on), IPv4-mapped and
// IPv6 mixed, or keys that differ only in the top byte of the high word or
// only in byte pos of the low word (one radix digit, everything else equal).
func FuzzSortByAddr(f *testing.F) {
	seq := make([]byte, 600)
	for i := range seq {
		seq[i] = byte(i * 97)
	}
	for mode := uint8(0); mode < 5; mode++ {
		f.Add(mode, uint8(0), seq)
		f.Add(mode, uint8(7), seq[:40])
	}
	f.Add(uint8(1), uint8(3), []byte{2, 2, 2, 1, 1, 0, 3, 2})
	f.Fuzz(func(t *testing.T, mode, pos uint8, data []byte) {
		base := ip.AddrFrom128(0x2a00_1234_5678_9abc, 0xdef0_1234_5678_9abc)
		var addrs []ip.Addr
		switch mode % 5 {
		case 0:
			for ; len(data) >= 16; data = data[16:] {
				addrs = append(addrs, ip.AddrFrom128(binary.BigEndian.Uint64(data), binary.BigEndian.Uint64(data[8:])))
			}
		case 1:
			pool := []ip.Addr{base, base.Add(1), ip.AddrFrom4(uint32(pos)), base.Add(1 << 40)}
			for _, b := range data {
				addrs = append(addrs, pool[b%4])
			}
		case 2:
			for ; len(data) >= 5; data = data[5:] {
				v := binary.BigEndian.Uint32(data[1:])
				if data[0]&1 == 0 {
					addrs = append(addrs, ip.AddrFrom4(v))
				} else {
					addrs = append(addrs, ip.AddrFrom128(base.Hi(), uint64(v)))
				}
			}
		case 3:
			for _, b := range data {
				addrs = append(addrs, ip.AddrFrom128(base.Hi()&^(0xff<<56)|uint64(b)<<56, base.Lo()))
			}
		case 4:
			shift := 8 * uint(pos%8)
			for _, b := range data {
				addrs = append(addrs, ip.AddrFrom128(base.Hi(), base.Lo()&^(0xff<<shift)|uint64(b)<<shift))
			}
		}
		got := sortFixture(len(addrs), func(i int) ip.Addr { return addrs[i] })
		want := copyColumns(got)
		got.sortByAddr()
		want.sortByAddrOracle()
		g, w := columnsOf(got), columnsOf(want)
		for i := range g {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Fatalf("column %d differs from the stable-sort oracle:\n got %v\nwant %v", i, g[i], w[i])
			}
		}
	})
}
