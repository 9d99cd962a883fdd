// Package results holds the measurement data a study produces: for every
// (origin, protocol, trial), the per-host probe and handshake outcomes, and
// the host-major join the paper's analyses read them through.
//
// Storage is columnar: a ScanResult keeps parallel columns ("struct of
// arrays") sorted by address. Records append during the scan; Seal sorts and
// deduplicates once when the scan commits, after which every read — point
// lookup, in-order iteration — works on the sorted columns with no per-call
// allocation. Every comparison between origins is made host by host over a
// trial's ground truth, so the Dataset builds one Join per (protocol,
// trial): the ground truth, and for each origin its scan's row for every
// ground-truth host. It is one merge over the sealed address columns, made
// once and cached; the analyses then read scan rows by index.
package results

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/zgrab"
)

// HostRecord is one host's outcome in one scan.
type HostRecord struct {
	Addr ip.Addr
	// ProbeMask has bit i set when ZMap probe i elicited a valid SYN-ACK.
	ProbeMask uint8
	// RST is set when the host answered probes with RST.
	RST bool
	// L7 is set when the application-layer handshake succeeded.
	L7 bool
	// Fail records why the L7 grab failed (FailNone when L7).
	Fail zgrab.FailMode
	// Banner is the captured application banner: HTTP Server header,
	// negotiated TLS cipher suite, or SSH software version.
	Banner string
	// Attempts is the number of connection attempts the grab used.
	Attempts int
	// T is the virtual time the host was probed.
	T time.Duration
}

// L4 reports whether the host was L4-responsive (any SYN-ACK).
func (r *HostRecord) L4() bool { return r.ProbeMask != 0 }

// Host flag bits, packed per record (also the JSON wire encoding).
const (
	flagRST = 1 << 0
	flagL7  = 1 << 1
)

// ScanResult is one origin's scan of one protocol in one trial.
//
// The record storage is append-mostly columnar: Add appends to three
// columns, Seal sorts them by address (deduplicating repeated Adds of the
// same host, last write wins, matching the map semantics it replaced) and
// every reader operates on the sealed columns. Readers seal lazily, so the
// zero-cost fast path is Add…Add → Seal → read; a sealed result is safe for
// concurrent reads (the parallel analyses rely on this — Dataset.Put seals).
type ScanResult struct {
	Origin origin.ID
	Proto  proto.Protocol
	Trial  int

	// Scan statistics from the scanner.
	Targets, ProbesSent, SynAcks, Rsts, Invalid uint64

	// The three columns, sorted by addrs once sealed: the address spine
	// (4 bytes a row while every address is IPv4, 16 from the first that
	// is not: see addrCol), the fixed-width rest of each record, and each
	// record's banner as an index into banners (0 is "", k names
	// banners[k-1]). A sealed row is 24 bytes in an IPv4 scan, 36 in one
	// that holds an IPv6 address.
	addrs  addrCol
	rows   []row
	banner []uint32

	// banners is the scan's append-only banner dictionary, in first-Add
	// order, and bannerIdx maps each entry to its index. Entries are never
	// removed: a spill segment's banner indices point here.
	banners   []string
	bannerIdx map[string]uint32

	sealed bool
	// spill, when non-nil, backs the append path with the spill-to-disk
	// store strategy (see spill.go): Add flushes budget-exceeding runs as
	// sorted segment files and Seal externally merges them. nil keeps the
	// all-in-memory fast path.
	spill *spillState
	// dedupDropped counts rows discarded by Seal's keep-last dedup —
	// repeat Adds for one host. Telemetry reads it through SealStats.
	dedupDropped int
}

// row is one record's fixed-width fields (16 bytes).
type row struct {
	t         time.Duration
	attempts  int32
	probeMask uint8
	flags     uint8
	fail      zgrab.FailMode
}

// rowBytes is one record's share of the three columns at the wide
// address width (36 B): exact for a scan holding an IPv6 address, an upper
// bound for an IPv4 scan's 24 B. The spill budget charges it for every row,
// so a narrow scan flushes where a wide one would.
const rowBytes = int64(unsafe.Sizeof(ip.Addr{}) + unsafe.Sizeof(row{}) + unsafe.Sizeof(uint32(0)))

// NewScanResult returns an empty in-memory result set.
func NewScanResult(o origin.ID, p proto.Protocol, trial int) *ScanResult {
	return NewScanResultSized(o, p, trial, 0)
}

// NewScanResultSized returns an empty in-memory result set with column
// storage sized for n hosts, avoiding regrowth when the caller knows the
// reply count. The address column takes the hint at its first Add, once
// its width is known. The hint is trusted as given here — an in-memory
// result has no memory ceiling; NewSpilledScanResult applies the same hint
// but clamps it by the spill budget, so callers sizing from a population
// estimate cannot pre-allocate past the ceiling the budget promises.
func NewScanResultSized(o origin.ID, p proto.Protocol, trial int, n int) *ScanResult {
	s := &ScanResult{Origin: o, Proto: p, Trial: trial}
	if n > 0 {
		s.addrs.setCap(n)
		s.rows = make([]row, 0, n)
		s.banner = make([]uint32, 0, n)
	}
	return s
}

// Add records a host outcome, replacing any existing record for the host
// (the replacement is resolved at Seal time; Add itself only appends).
func (s *ScanResult) Add(r HostRecord) {
	s.sealed = false
	var f uint8
	if r.RST {
		f |= flagRST
	}
	if r.L7 {
		f |= flagL7
	}
	s.appendRow(spillRow{
		addr:   r.Addr,
		row:    row{t: r.T, attempts: int32(r.Attempts), probeMask: r.ProbeMask, flags: f, fail: r.Fail},
		banner: s.intern(r.Banner),
	})
	if s.spill != nil {
		s.spill.liveBytes += rowBytes
		s.maybeSpill()
	}
}

// intern returns b's banner index, adding b to the dictionary on its first
// appearance: a map lookup per row, an allocation per distinct banner.
func (s *ScanResult) intern(b string) uint32 {
	if b == "" {
		return 0
	}
	if k, ok := s.bannerIdx[b]; ok {
		return k
	}
	if s.bannerIdx == nil {
		s.bannerIdx = make(map[string]uint32)
	}
	s.banners = append(s.banners, b)
	k := uint32(len(s.banners))
	s.bannerIdx[b] = k
	if s.spill != nil {
		s.spill.liveBytes += int64(unsafe.Sizeof(b)) + int64(len(b))
	}
	return k
}

// bannerAt is row i's banner text.
func (s *ScanResult) bannerAt(i int) string {
	if k := s.banner[i]; k != 0 {
		return s.banners[k-1]
	}
	return ""
}

// AddBatch appends a block of records — the batched grab hand-off writes
// its per-reply slots straight into the columns in reply order.
func (s *ScanResult) AddBatch(rs []HostRecord) {
	for i := range rs {
		s.Add(rs[i])
	}
}

// Seal sorts the columns by address and resolves duplicate Adds (last
// wins). It is idempotent; readers call it lazily, and Dataset.Put calls it
// eagerly so stored scans are immutable, concurrency-safe views. Scan
// results arriving already sorted (decoded datasets) seal without sorting.
//
// For a spill-backed result Seal runs the external merge and panics if the
// merge itself fails (readers have no error channel); callers that can
// handle I/O failure should prefer SealErr.
func (s *ScanResult) Seal() {
	if s.sealed {
		return
	}
	if s.spill != nil {
		if err := s.SealErr(); err != nil && !s.sealed {
			panic(fmt.Sprintf("results: sealing spilled result: %v", err))
		}
		return
	}
	s.sealMem()
}

// sealMem is the in-memory seal: one stable sort + keep-last dedup over
// the columns (sortByAddr). The spill store's Seal ends here too, after the
// external merge has already left the columns sorted.
func (s *ScanResult) sealMem() {
	if !s.sealed {
		s.sortByAddr()
		s.sealed = true
	}
}

func (s *ScanResult) seal() {
	if !s.sealed {
		s.Seal()
	}
}

// sortByAddr puts the columns in sealed form: sorted by address, repeated
// Adds of one host resolved keep-last (map-replacement semantics). Columns
// already strictly ascending — decoded datasets, merged spill output — are
// left alone.
//
// A radix sort (addrCol.radixSort) orders an int32 row index by (address,
// arrival index): a total order, so the result is the stable one, and of
// several Adds for one host the latest stays last for dedup to keep. The
// permutation is then applied to the three columns in place, cycle by cycle
// — hold the row a cycle starts at, pull each row of the cycle from where
// the index says it comes, drop the held row into the last hole — so every
// row moves once. The index (4 B/row) comes from a pool: a seal that follows
// another allocates nothing.
func (s *ScanResult) sortByAddr() {
	if s.addrs.isSorted() {
		return
	}
	n := s.addrs.len()
	buf := sortScratch.Get().(*[]int32)
	if cap(*buf) < n {
		size := n
		if cap(*buf) > 0 { // outgrown: leave room for the next, slightly larger scan
			size += n / 4
		}
		*buf = make([]int32, size)
	}
	idx := (*buf)[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	s.addrs.radixSort(idx)
	for i := range idx {
		if int(idx[i]) == i {
			continue
		}
		held, hole := s.rowAt(i), i
		for src := int(idx[hole]); src != i; src = int(idx[hole]) {
			s.setRow(hole, s.rowAt(src))
			idx[hole] = int32(hole)
			hole = src
		}
		s.setRow(hole, held)
		idx[hole] = int32(hole)
	}
	sortScratch.Put(buf)
	s.dedup()
}

// sortScratch holds sortByAddr's row index between seals.
var sortScratch = sync.Pool{New: func() any { return new([]int32) }}

// dedup compacts sorted columns, keeping the last row of each address run.
func (s *ScanResult) dedup() {
	before := s.addrs.len()
	out := 0
	for i := 0; i < before; {
		j := i
		for j+1 < before && s.addrs.same(j+1, i) {
			j++
		}
		if out != j {
			s.setRow(out, s.rowAt(j))
		}
		out++
		i = j + 1
	}
	s.truncate(out)
	s.dedupDropped += before - out
}

// Len returns the number of recorded hosts.
func (s *ScanResult) Len() int {
	s.seal()
	return s.addrs.len()
}

// SealStats seals the result and reports the committed row count and the
// number of duplicate rows Seal's keep-last dedup discarded. Telemetry
// records both when a scan commits to the dataset.
func (s *ScanResult) SealStats() (rows, deduped int) {
	s.seal()
	return s.addrs.len(), s.dedupDropped
}

// Addrs returns the sealed, sorted address column. Callers must not modify
// it. For an IPv4 scan, whose column is 4 bytes a row, it is a fresh copy
// at 16 bytes a row on every call: a reader that walks the rows iterates
// Len and AddrAt instead. Analyses do not read it: they find a host's row
// through the trial's Join.
func (s *ScanResult) Addrs() ip.AddrSlice {
	s.seal()
	return s.addrs.slice()
}

// AddrAt returns row i's address in the sealed columns. Indices come from
// Find or from counting up to Len.
func (s *ScanResult) AddrAt(i int) ip.Addr { return s.addrs.at(i) }

// Find returns the row index of addr in the sealed columns.
func (s *ScanResult) Find(addr ip.Addr) (int, bool) {
	s.seal()
	i := s.addrs.search(addr)
	if i < s.addrs.len() && s.addrs.at(i) == addr {
		return i, true
	}
	return i, false
}

// RecordAt materializes row i of the sealed columns. Indices come from
// Find or from counting up to Len.
func (s *ScanResult) RecordAt(i int) HostRecord {
	r := &s.rows[i]
	return HostRecord{
		Addr:      s.addrs.at(i),
		ProbeMask: r.probeMask,
		RST:       r.flags&flagRST != 0,
		L7:        r.flags&flagL7 != 0,
		Fail:      r.fail,
		Banner:    s.bannerAt(i),
		Attempts:  int(r.attempts),
		T:         r.t,
	}
}

// SuccessAt reports whether row i is an L7 success, optionally requiring a
// response to probe 0 (the single-probe simulation). A negative i (no row)
// is not.
func (s *ScanResult) SuccessAt(i int, singleProbe bool) bool {
	if i < 0 || s.rows[i].flags&flagL7 == 0 {
		return false
	}
	if singleProbe && s.rows[i].probeMask&1 == 0 {
		return false
	}
	return true
}

// Get returns the record for addr.
func (s *ScanResult) Get(addr ip.Addr) (HostRecord, bool) {
	if i, ok := s.Find(addr); ok {
		return s.RecordAt(i), true
	}
	return HostRecord{}, false
}

// L7Count returns the number of hosts with successful handshakes.
func (s *ScanResult) L7Count() int {
	s.seal()
	n := 0
	for i := range s.rows {
		if s.rows[i].flags&flagL7 != 0 {
			n++
		}
	}
	return n
}

// Success reports whether the scan completed an L7 handshake with addr,
// optionally requiring a response to probe 0 (the single-probe simulation
// the paper uses: "we simulate scanning with one probe by requiring
// successful responses to both of our ZMap probes" — in our direction,
// requiring probe 0's response).
func (s *ScanResult) Success(addr ip.Addr, singleProbe bool) bool {
	i, ok := s.Find(addr)
	return ok && s.SuccessAt(i, singleProbe)
}

// Each visits every record in ascending address order. Iteration seals the
// result first, so the columns fn observes are sorted and deduplicated; it
// reads them in place and performs no per-call allocation. fn must not
// call Add on the same result mid-iteration — that unseals the columns
// under the running loop.
func (s *ScanResult) Each(fn func(HostRecord)) {
	s.seal()
	for i := range s.addrs.len() {
		fn(s.RecordAt(i))
	}
}

// DiffAgainst compares two scans row-by-row, returning "" when identical or
// a description of the first difference. It is the one record comparator:
// Equal and Dataset.Diff both delegate here.
func (s *ScanResult) DiffAgainst(o *ScanResult) string {
	if s.Origin != o.Origin || s.Proto != o.Proto || s.Trial != o.Trial {
		return fmt.Sprintf("identity %v/%v/trial %d vs %v/%v/trial %d",
			s.Origin, s.Proto, s.Trial, o.Origin, o.Proto, o.Trial)
	}
	s.seal()
	o.seal()
	if s.addrs.len() != o.addrs.len() {
		return fmt.Sprintf("%d vs %d records", s.addrs.len(), o.addrs.len())
	}
	for i := range s.addrs.len() {
		if r, or := s.RecordAt(i), o.RecordAt(i); r != or {
			if r.Addr != or.Addr {
				return fmt.Sprintf("row %d: host %v vs %v", i, r.Addr, or.Addr)
			}
			return fmt.Sprintf("host %v: %+v vs %+v", r.Addr, r, or)
		}
	}
	if s.Targets != o.Targets || s.ProbesSent != o.ProbesSent ||
		s.SynAcks != o.SynAcks || s.Rsts != o.Rsts || s.Invalid != o.Invalid {
		return fmt.Sprintf("stats differ: %+v vs %+v",
			[5]uint64{s.Targets, s.ProbesSent, s.SynAcks, s.Rsts, s.Invalid},
			[5]uint64{o.Targets, o.ProbesSent, o.SynAcks, o.Rsts, o.Invalid})
	}
	return ""
}

// Equal reports whether two scans hold identical records and statistics.
func (s *ScanResult) Equal(o *ScanResult) bool { return s.DiffAgainst(o) == "" }

// Dataset is the full study output: results indexed by origin, protocol,
// and trial.
type Dataset struct {
	Origins origin.Set
	Trials  int
	scans   map[key]*ScanResult

	joinMu sync.Mutex // guards joins (analyses may run concurrently)
	joins  map[joinKey]*Join
}

type key struct {
	o origin.ID
	p proto.Protocol
	t int
}

type joinKey struct {
	p proto.Protocol
	t int
}

// NewDataset returns an empty dataset for the given origins and trials.
func NewDataset(origins origin.Set, trials int) *Dataset {
	return &Dataset{
		Origins: origins,
		Trials:  trials,
		scans:   make(map[key]*ScanResult),
		joins:   make(map[joinKey]*Join),
	}
}

// Put stores a completed scan, sealing it: stored scans are sorted,
// immutable views safe for the concurrent analyses. Putting a scan at an
// occupied (origin, proto, trial) key is an error tagged
// pipeline.ErrSealConflict unless the new scan is identical to the sealed
// one (an idempotent re-put is a no-op); use Replace to overwrite
// deliberately.
func (d *Dataset) Put(s *ScanResult) error {
	s.Seal()
	k := key{s.Origin, s.Proto, s.Trial}
	if old := d.scans[k]; old != nil && old != s {
		if diff := old.DiffAgainst(s); diff != "" {
			return pipeline.Tag(pipeline.ErrSealConflict,
				fmt.Errorf("results: %v/%v/trial %d already sealed (%s)", s.Origin, s.Proto, s.Trial, diff))
		}
		return nil
	}
	d.store(k, s)
	return nil
}

// Replace stores a sealed scan at its key, overwriting any existing scan
// and invalidating the trial's cached Join. It is the explicit-overwrite
// counterpart to Put for callers that recompute a scan on purpose.
func (d *Dataset) Replace(s *ScanResult) {
	s.Seal()
	d.store(key{s.Origin, s.Proto, s.Trial}, s)
}

func (d *Dataset) store(k key, s *ScanResult) {
	d.scans[k] = s
	d.joinMu.Lock()
	delete(d.joins, joinKey{s.Proto, s.Trial})
	d.joinMu.Unlock()
}

// Len returns the number of stored scans.
func (d *Dataset) Len() int { return len(d.scans) }

// Scan returns the result for (origin, proto, trial), or nil when absent.
func (d *Dataset) Scan(o origin.ID, p proto.Protocol, trial int) *ScanResult {
	return d.scans[key{o, p, trial}]
}

// MustScan is Scan that panics on absence (programming error in analyses).
func (d *Dataset) MustScan(o origin.ID, p proto.Protocol, trial int) *ScanResult {
	s := d.Scan(o, p, trial)
	if s == nil {
		panic(fmt.Sprintf("results: no scan for %v/%v/trial %d", o, p, trial))
	}
	return s
}

// Diff compares two datasets scan-by-scan and record-by-record, returning
// "" when they are identical or a description of the first difference. The
// parallel engine's determinism test relies on this to prove a parallel run
// bit-identical to a serial one.
func (d *Dataset) Diff(o *Dataset) string {
	if len(d.scans) != len(o.scans) {
		return fmt.Sprintf("scan count %d vs %d", len(d.scans), len(o.scans))
	}
	for k, s := range d.scans {
		os, ok := o.scans[k]
		if !ok {
			return fmt.Sprintf("scan %v/%v/trial %d missing from other", k.o, k.p, k.t)
		}
		if msg := s.DiffAgainst(os); msg != "" {
			return fmt.Sprintf("scan %v/%v/trial %d: %s", k.o, k.p, k.t, msg)
		}
	}
	return ""
}

// Equal reports whether two datasets are record-for-record identical.
func (d *Dataset) Equal(o *Dataset) bool { return d.Diff(o) == "" }
