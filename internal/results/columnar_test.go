package results

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/zgrab"
)

// mapModel is the reference the columnar store is checked against: the
// map-of-structs storage the store replaced, with its "Add replaces"
// semantics.
type mapModel struct {
	recs map[ip.Addr]HostRecord
}

func (m *mapModel) Add(r HostRecord) {
	if m.recs == nil {
		m.recs = map[ip.Addr]HostRecord{}
	}
	m.recs[r.Addr] = r
}

func (m *mapModel) sorted() []HostRecord {
	out := make([]HostRecord, 0, len(m.recs))
	for _, r := range m.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

func randRecord(rng *rand.Rand) HostRecord {
	r := HostRecord{
		// A small address pool forces duplicate Adds, exercising the
		// replace-on-seal path.
		Addr:      ip.AddrFrom4(uint32(rng.Intn(64))),
		ProbeMask: uint8(rng.Intn(4)),
		RST:       rng.Intn(4) == 0,
		L7:        rng.Intn(2) == 0,
		Fail:      zgrab.FailMode(rng.Intn(4)),
		Attempts:  rng.Intn(3),
		T:         time.Duration(rng.Intn(1000)) * time.Second,
	}
	if r.L7 && rng.Intn(2) == 0 {
		r.Banner = "srv/" + string(rune('a'+rng.Intn(26)))
	}
	return r
}

// TestColumnarMatchesMapModel drives the columnar store and the map
// reference through random interleavings of Add, Get, Each, Success, and
// Seal, checking every observable after every operation batch.
func TestColumnarMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := NewScanResult(origin.AU, proto.HTTP, 0)
		model := &mapModel{}
		ops := rng.Intn(200)
		for i := 0; i < ops; i++ {
			switch rng.Intn(10) {
			case 0: // explicit mid-stream Seal; Add after re-opens
				s.Seal()
			case 1, 2: // Get on a random address
				a := ip.AddrFrom4(uint32(rng.Intn(64)))
				got, ok := s.Get(a)
				want, wantOK := model.recs[a]
				if ok != wantOK || got != want {
					t.Fatalf("trial %d op %d: Get(%v) = %+v,%v want %+v,%v",
						trial, i, a, got, ok, want, wantOK)
				}
			case 3: // Success under both probe policies
				a := ip.AddrFrom4(uint32(rng.Intn(64)))
				w := model.recs[a]
				if got := s.Success(a, false); got != w.L7 {
					t.Fatalf("trial %d op %d: Success(%v,false)=%v", trial, i, a, got)
				}
				if got := s.Success(a, true); got != (w.L7 && w.ProbeMask&1 != 0) {
					t.Fatalf("trial %d op %d: Success(%v,true)=%v", trial, i, a, got)
				}
			default:
				r := randRecord(rng)
				s.Add(r)
				model.Add(r)
			}
		}
		want := model.sorted()
		if s.Len() != len(want) {
			t.Fatalf("trial %d: Len=%d want %d", trial, s.Len(), len(want))
		}
		var got []HostRecord
		s.Each(func(r HostRecord) { got = append(got, r) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Each[%d]=%+v want %+v", trial, i, got[i], want[i])
			}
		}
		wantL7 := 0
		for _, r := range want {
			if r.L7 {
				wantL7++
			}
		}
		if s.L7Count() != wantL7 {
			t.Fatalf("trial %d: L7Count=%d want %d", trial, s.L7Count(), wantL7)
		}
		if !ip.AddrSlice(s.Addrs()).IsSorted() {
			t.Fatalf("trial %d: sealed address column not strictly sorted", trial)
		}
	}
}

// TestEachSealedDoesNotAllocate asserts the satellite fix: iterating a
// sealed result reads the columns in place, with zero allocations (the map
// store sorted and allocated a fresh address slice on every call).
func TestEachSealedDoesNotAllocate(t *testing.T) {
	s := NewScanResult(origin.AU, proto.HTTP, 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		s.Add(randRecord(rng))
	}
	s.Seal()
	var n int
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		s.Each(func(r HostRecord) { n++ })
	})
	if allocs != 0 {
		t.Errorf("Each on sealed result allocates %.1f times per run, want 0", allocs)
	}
	if n != s.Len() {
		t.Errorf("Each visited %d records, want %d", n, s.Len())
	}
}

// TestSealKeepsLastDuplicate pins the map-replacement semantics: of several
// Adds for one address, the latest wins.
func TestSealKeepsLastDuplicate(t *testing.T) {
	s := NewScanResult(origin.AU, proto.HTTP, 0)
	s.Add(HostRecord{Addr: ip.AddrFrom4(9), Attempts: 1})
	s.Add(HostRecord{Addr: ip.AddrFrom4(5), Attempts: 1})
	s.Add(HostRecord{Addr: ip.AddrFrom4(9), Attempts: 2, L7: true})
	s.Add(HostRecord{Addr: ip.AddrFrom4(9), Attempts: 3})
	s.Seal()
	if s.Len() != 2 {
		t.Fatalf("Len=%d want 2", s.Len())
	}
	r, ok := s.Get(ip.AddrFrom4(9))
	if !ok || r.Attempts != 3 || r.L7 {
		t.Fatalf("Get(9) = %+v, %v; want the last Add", r, ok)
	}
}

// TestJoinRowsMatchPointLookups holds the join to per-host point lookups:
// for every (protocol, trial), GT is exactly the hosts some origin's scan
// succeeded with, and every origin's row column names Find's row for each
// GT host (-1 when the scan has none). It runs on v4 with Carinet scanning
// one trial of two (its column is nil in the other) and on v6.
func TestJoinRowsMatchPointLookups(t *testing.T) {
	for _, tc := range []struct {
		name string
		addr func(rng *rand.Rand) ip.Addr
	}{
		{"v4", func(rng *rand.Rand) ip.Addr { return ip.AddrFrom4(uint32(rng.Intn(96))) }},
		{"v6", func(rng *rand.Rand) ip.Addr {
			return ip.AddrFrom128(0x20010db8<<32|uint64(rng.Intn(3)), uint64(rng.Intn(32)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			origins := origin.Set{origin.AU, origin.BR, origin.CARINET, origin.DE}
			ds := NewDataset(origins, 2)
			pool := map[ip.Addr]bool{}
			for _, o := range origins {
				for trial := 0; trial < ds.Trials; trial++ {
					if o == origin.CARINET && trial > 0 {
						continue
					}
					s := NewScanResult(o, proto.HTTP, trial)
					for i := 0; i < 150; i++ {
						r := randRecord(rng)
						r.Addr = tc.addr(rng)
						pool[r.Addr] = true
						s.Add(r)
					}
					if err := ds.Put(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			for trial := 0; trial < ds.Trials; trial++ {
				j := ds.Join(proto.HTTP, trial)
				var want ip.AddrSlice
				for a := range pool {
					for _, o := range origins {
						if s := ds.Scan(o, proto.HTTP, trial); s != nil && s.Success(a, false) {
							want = append(want, a)
							break
						}
					}
				}
				sort.Slice(want, func(i, k int) bool { return want[i].Less(want[k]) })
				if len(j.GT) != len(want) || !j.GT.IsSorted() {
					t.Fatalf("trial %d: GT has %d hosts (sorted %v), want %d", trial, len(j.GT), j.GT.IsSorted(), len(want))
				}
				for g, a := range want {
					if j.GT[g] != a {
						t.Fatalf("trial %d: GT[%d] = %v, want %v", trial, g, j.GT[g], a)
					}
				}
				inter := 0
				for _, a := range j.GT {
					all := true
					for _, o := range origins {
						if s := ds.Scan(o, proto.HTTP, trial); s != nil && !s.Success(a, false) {
							all = false
						}
					}
					if all {
						inter++
					}
				}
				if got := ds.Intersection(proto.HTTP, trial); got != inter {
					t.Errorf("trial %d: Intersection = %d, want %d", trial, got, inter)
				}
				for _, o := range origins {
					s, c := ds.Scan(o, proto.HTTP, trial), j.Of(o)
					if s == nil {
						if c.Scan != nil || c.Rows != nil {
							t.Errorf("trial %d: %v did not scan, column %+v", trial, o, c)
						}
						continue
					}
					if c.Scan != s || len(c.Rows) != len(j.GT) {
						t.Fatalf("trial %d: %v column has %d rows for %d hosts", trial, o, len(c.Rows), len(j.GT))
					}
					for g, a := range j.GT {
						i, ok := s.Find(a)
						if !ok {
							i = -1
						}
						if int(c.Rows[g]) != i {
							t.Errorf("trial %d: %v row of %v = %d, Find says %d", trial, o, a, c.Rows[g], i)
						}
						for _, single := range []bool{false, true} {
							if got := c.Success(g, single); got != s.Success(a, single) {
								t.Errorf("trial %d: %v Success(%v, single=%v) = %v", trial, o, a, single, got)
							}
						}
					}
				}
			}
		})
	}
}

// TestGetBeforeSealIsSafe pins the lazy-sealing contract for the classic
// misuse — reading before calling Seal. Get (and every other reader) seals
// on first use, so the caller who forgets Seal still observes sorted,
// deduplicated, last-write-wins records; and an Add after a read unseals,
// so the next read re-seals and sees the new write. SealStats counts every
// duplicate dropped across those re-seals.
func TestGetBeforeSealIsSafe(t *testing.T) {
	s := NewScanResult(origin.AU, proto.HTTP, 0)
	s.Add(HostRecord{Addr: ip.AddrFrom4(9), Attempts: 1})
	s.Add(HostRecord{Addr: ip.AddrFrom4(5), Attempts: 1})
	s.Add(HostRecord{Addr: ip.AddrFrom4(9), Attempts: 2})

	// Misuse: no Seal call before reading. The read must behave exactly
	// as if Seal had been called.
	r, ok := s.Get(ip.AddrFrom4(9))
	if !ok || r.Attempts != 2 {
		t.Fatalf("Get(9) before Seal = %+v, %v; want the last Add via lazy seal", r, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (deduplicated)", s.Len())
	}

	// Writing after a read unseals; the next read sees the new record.
	s.Add(HostRecord{Addr: ip.AddrFrom4(9), Attempts: 7})
	r, ok = s.Get(ip.AddrFrom4(9))
	if !ok || r.Attempts != 7 {
		t.Fatalf("Get(9) after post-seal Add = %+v, %v; want the newest record", r, ok)
	}

	rows, deduped := s.SealStats()
	if rows != 2 {
		t.Errorf("SealStats rows = %d, want 2", rows)
	}
	if deduped != 2 {
		t.Errorf("SealStats deduped = %d, want 2 (one per re-sealed duplicate)", deduped)
	}
}
