// Package results holds the measurement data a study produces: for every
// (origin, protocol, trial), the per-host probe and handshake outcomes, plus
// the set algebra the paper's analyses run on top (ground-truth unions,
// per-origin misses, intersections).
//
// Storage is columnar: a ScanResult keeps parallel columns ("struct of
// arrays") sorted by address. Records append during the scan; Seal sorts and
// deduplicates once when the scan commits, after which every read — point
// lookup, in-order iteration, set algebra — works on the sorted columns with
// no per-call allocation. The Dataset's set operations (ground truth,
// intersection, coverage) are merge-joins over the sealed address columns
// rather than per-call hash sets, which is what lets the analyses scale to
// Censys-sized result sets.
package results

import (
	"fmt"
	"slices"
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

	// The three columns, sorted by addrs once sealed: the address spine,
	// the fixed-width rest of each record, and each record's banner as an
	// index into banners (0 is "", k names banners[k-1]).
	addrs  ip.AddrSlice
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

// rowBytes is one record's exact share of the three columns.
const rowBytes = int64(unsafe.Sizeof(ip.Addr{}) + unsafe.Sizeof(row{}) + unsafe.Sizeof(uint32(0)))

// NewScanResult returns an empty in-memory result set.
func NewScanResult(o origin.ID, p proto.Protocol, trial int) *ScanResult {
	return NewScanResultSized(o, p, trial, 0)
}

// NewScanResultSized returns an empty in-memory result set with column
// storage sized for n hosts, avoiding regrowth when the caller knows the
// reply count. The hint is trusted as given here — an in-memory result has
// no memory ceiling; NewSpilledScanResult applies the same hint but clamps
// it by the spill budget, so callers sizing from a population estimate
// cannot pre-allocate past the ceiling the budget promises.
func NewScanResultSized(o origin.ID, p proto.Protocol, trial int, n int) *ScanResult {
	s := &ScanResult{Origin: o, Proto: p, Trial: trial}
	if n > 0 {
		s.addrs = make(ip.AddrSlice, 0, n)
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
// A radix sort (radixSort) orders an int32 row index by (address, arrival
// index): a total order, so the result is the stable one, and of several
// Adds for one host the latest stays last for dedup to keep. The
// permutation is then applied to the three columns in place, cycle by cycle
// — hold the row a cycle starts at, pull each row of the cycle from where
// the index says it comes, drop the held row into the last hole — so every
// row moves once. The index (4 B/row) comes from a pool: a seal that follows
// another allocates nothing.
func (s *ScanResult) sortByAddr() {
	if s.addrs.IsSorted() {
		return
	}
	addrs := s.addrs
	buf := sortScratch.Get().(*[]int32)
	if n := len(addrs); cap(*buf) < n {
		if cap(*buf) > 0 { // outgrown: leave room for the next, slightly larger scan
			n += n / 4
		}
		*buf = make([]int32, n)
	}
	idx := (*buf)[:len(addrs)]
	var vary [2]uint64 // low word, high word
	for i, a := range addrs {
		idx[i] = int32(i)
		vary[0] |= a.Lo() ^ addrs[0].Lo()
		vary[1] |= a.Hi() ^ addrs[0].Hi()
	}
	radixSort(idx, addrs, 15, vary)
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

// radixSort orders the rows idx names by (address, row). The rows agree in
// every address byte above digit (0 is the low word's least significant
// byte, 15 the high word's most); vary marks the bytes that differ anywhere
// in the scan (the OR of every address XOR the first), and only those get a
// pass: an in-place counting pass (American flag sort: no second buffer)
// on the most significant one, then a recursion into each bucket. Passes
// are not stable, so a bucket of one repeated address is ordered by row and
// a bucket of ≤ 32 rows by insertion on (address, row).
func radixSort(idx []int32, addrs ip.AddrSlice, digit int, vary [2]uint64) {
	for digit >= 0 && vary[digit>>3]>>(8*(digit&7))&0xff == 0 {
		digit--
	}
	if digit < 0 { // one address, repeated
		slices.Sort(idx)
		return
	}
	if len(idx) <= 32 {
		for i := 1; i < len(idx); i++ {
			r, j := idx[i], i
			for ; j > 0 && (addrs[r].Less(addrs[idx[j-1]]) || addrs[r] == addrs[idx[j-1]] && r < idx[j-1]); j-- {
				idx[j] = idx[j-1]
			}
			idx[j] = r
		}
		return
	}
	shift := uint(8 * (digit & 7))
	key := func(r int32) int {
		if digit >= 8 {
			return int(addrs[r].Hi() >> shift & 0xff)
		}
		return int(addrs[r].Lo() >> shift & 0xff)
	}
	var head, tail [256]int32
	for _, r := range idx {
		tail[key(r)]++
	}
	sum := int32(0)
	for b, c := range tail {
		head[b] = sum
		sum += c
		tail[b] = sum
	}
	for b := range head {
		for head[b] < tail[b] {
			r := idx[head[b]]
			for k := key(r); k != b; k = key(r) {
				r, idx[head[k]] = idx[head[k]], r
				head[k]++
			}
			idx[head[b]] = r
			head[b]++
		}
	}
	lo := int32(0)
	for _, hi := range tail {
		if hi-lo > 1 {
			radixSort(idx[lo:hi], addrs, digit-1, vary)
		}
		lo = hi
	}
}

// dedup compacts sorted columns, keeping the last row of each address run.
func (s *ScanResult) dedup() {
	before := len(s.addrs)
	out := 0
	for i := 0; i < len(s.addrs); {
		j := i
		for j+1 < len(s.addrs) && s.addrs[j+1] == s.addrs[i] {
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
	return len(s.addrs)
}

// SealStats seals the result and reports the committed row count and the
// number of duplicate rows Seal's keep-last dedup discarded. Telemetry
// records both when a scan commits to the dataset.
func (s *ScanResult) SealStats() (rows, deduped int) {
	s.seal()
	return len(s.addrs), s.dedupDropped
}

// Addrs returns the sealed, sorted address column. Callers must not modify
// it; it is the merge-join spine the analyses iterate against.
func (s *ScanResult) Addrs() ip.AddrSlice {
	s.seal()
	return s.addrs
}

// Find returns the row index of addr in the sealed columns.
func (s *ScanResult) Find(addr ip.Addr) (int, bool) {
	s.seal()
	i := s.addrs.Search(addr)
	if i < len(s.addrs) && s.addrs[i] == addr {
		return i, true
	}
	return i, false
}

// RecordAt materializes row i of the sealed columns. Indices come from
// Find or from iterating Addrs.
func (s *ScanResult) RecordAt(i int) HostRecord {
	r := &s.rows[i]
	return HostRecord{
		Addr:      s.addrs[i],
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
// response to probe 0 (the single-probe simulation).
func (s *ScanResult) SuccessAt(i int, singleProbe bool) bool {
	if s.rows[i].flags&flagL7 == 0 {
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

// l7Set returns a new sorted slice of the addresses with successful L7
// handshakes: the merge-join input of ground-truth and intersection
// queries.
func (s *ScanResult) l7Set() ip.AddrSlice {
	out := make(ip.AddrSlice, 0, s.L7Count())
	for i := range s.rows {
		if s.rows[i].flags&flagL7 != 0 {
			out = append(out, s.addrs[i])
		}
	}
	return out
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

// CountSuccessIn counts how many of the addresses in gt the scan
// successfully handshaked with — a two-pointer merge-join over the sealed
// address column.
//
// Precondition: gt must be sorted ascending with no duplicates (the shape
// GroundTruth and the ip.Union/Intersect helpers produce). The merge
// cursor only moves forward, so an unsorted gt silently undercounts —
// it is not detected.
func (s *ScanResult) CountSuccessIn(gt []ip.Addr, singleProbe bool) int {
	s.seal()
	n, j := 0, 0
	for _, a := range gt {
		for j < len(s.addrs) && s.addrs[j].Less(a) {
			j++
		}
		if j < len(s.addrs) && s.addrs[j] == a && s.SuccessAt(j, singleProbe) {
			n++
		}
	}
	return n
}

// Each visits every record in ascending address order. Iteration seals the
// result first, so the columns fn observes are sorted and deduplicated; it
// reads them in place and performs no per-call allocation. fn must not
// call Add on the same result mid-iteration — that unseals the columns
// under the running loop.
func (s *ScanResult) Each(fn func(HostRecord)) {
	s.seal()
	for i := range s.addrs {
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
	if len(s.addrs) != len(o.addrs) {
		return fmt.Sprintf("%d vs %d records", len(s.addrs), len(o.addrs))
	}
	for i := range s.addrs {
		if s.addrs[i] != o.addrs[i] {
			return fmt.Sprintf("row %d: host %v vs %v", i, s.addrs[i], o.addrs[i])
		}
		if r, or := s.RecordAt(i), o.RecordAt(i); r != or {
			return fmt.Sprintf("host %v: %+v vs %+v", s.addrs[i], r, or)
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

	gtMu    sync.Mutex // guards gtCache (analyses may run concurrently)
	gtCache map[gtKey][]ip.Addr
}

type key struct {
	o origin.ID
	p proto.Protocol
	t int
}

type gtKey struct {
	p proto.Protocol
	t int
}

// NewDataset returns an empty dataset for the given origins and trials.
func NewDataset(origins origin.Set, trials int) *Dataset {
	return &Dataset{
		Origins: origins,
		Trials:  trials,
		scans:   make(map[key]*ScanResult),
		gtCache: make(map[gtKey][]ip.Addr),
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
// and invalidating the ground-truth cache. It is the explicit-overwrite
// counterpart to Put for callers that recompute a scan on purpose.
func (d *Dataset) Replace(s *ScanResult) {
	s.Seal()
	d.store(key{s.Origin, s.Proto, s.Trial}, s)
}

func (d *Dataset) store(k key, s *ScanResult) {
	d.scans[k] = s
	d.gtMu.Lock()
	delete(d.gtCache, gtKey{s.Proto, s.Trial})
	d.gtMu.Unlock()
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

// GroundTruth returns the sorted set of hosts that completed an L7
// handshake with at least one origin in the trial — the paper's working
// definition of live hosts. It is a k-way merge union of the scans' L7
// addresses (read off the sealed flags), cached per (protocol, trial).
func (d *Dataset) GroundTruth(p proto.Protocol, trial int) []ip.Addr {
	gk := gtKey{p, trial}
	d.gtMu.Lock()
	gt, ok := d.gtCache[gk]
	d.gtMu.Unlock()
	if ok {
		return gt
	}
	lists := make([]ip.AddrSlice, 0, len(d.Origins))
	for _, o := range d.Origins {
		if s := d.Scan(o, p, trial); s != nil {
			lists = append(lists, s.l7Set())
		}
	}
	gt = ip.Union(lists...)
	d.gtMu.Lock()
	d.gtCache[gk] = gt
	d.gtMu.Unlock()
	return gt
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

// Intersection returns the number of ground-truth hosts every origin saw in
// the trial (the ∩ column of Table 4a): a k-way merge intersection of the
// scans' L7 addresses. Origins that did not scan the trial (Carinet outside
// trial 1) are skipped, as in the paper.
func (d *Dataset) Intersection(p proto.Protocol, trial int) int {
	lists := make([]ip.AddrSlice, 0, len(d.Origins))
	for _, o := range d.Origins {
		if s := d.Scan(o, p, trial); s != nil {
			lists = append(lists, s.l7Set())
		}
	}
	return len(ip.IntersectAll(lists...))
}

// Coverage returns the fraction of the trial's ground truth the origin saw.
func (d *Dataset) Coverage(o origin.ID, p proto.Protocol, trial int, singleProbe bool) float64 {
	gt := d.GroundTruth(p, trial)
	if len(gt) == 0 {
		return 0
	}
	s := d.Scan(o, p, trial)
	if s == nil {
		return 0
	}
	return float64(s.CountSuccessIn(gt, singleProbe)) / float64(len(gt))
}

// CoverageOfSet returns the fraction of the trial's ground truth seen by
// any origin in the set — multi-origin coverage (§7, Figure 15) of one
// combination, in one merge pass with a cursor per scan. The
// 2^n-combination analysis.MultiOrigin computes the same number from an
// origin-mask column and is tested against this.
func (d *Dataset) CoverageOfSet(origins origin.Set, p proto.Protocol, trial int, singleProbe bool) float64 {
	gt := d.GroundTruth(p, trial)
	if len(gt) == 0 {
		return 0
	}
	scans := make([]*ScanResult, 0, len(origins))
	for _, o := range origins {
		if s := d.Scan(o, p, trial); s != nil {
			s.seal()
			scans = append(scans, s)
		}
	}
	cursors := make([]int, len(scans))
	n := 0
	for _, a := range gt {
		for si, s := range scans {
			j := cursors[si]
			for j < len(s.addrs) && s.addrs[j].Less(a) {
				j++
			}
			cursors[si] = j
			if j < len(s.addrs) && s.addrs[j] == a && s.SuccessAt(j, singleProbe) {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(gt))
}
