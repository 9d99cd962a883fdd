package results

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/zgrab"
)

// Spill-to-disk store strategy. A ScanResult normally keeps its columns in
// RAM until Seal; at Scale ≥ 0.1 a single (origin, proto, trial) scan is
// hundreds of MiB of columns, and a full study holds many such scans in
// flight. The spill store bounds the append path instead: records buffer in
// the ordinary columns up to a memory budget, then the buffered run is
// stable-sorted, deduplicated keep-last, and flushed to disk as a sorted
// binary columnar segment file. Seal becomes a k-way external merge over
// the on-disk segments plus the live run.
//
// Determinism argument (why the sealed bytes are identical to the
// in-memory path at any threshold): the in-memory Seal is a stable sort
// followed by keep-last dedup, i.e. for every address the record of the
// LAST Add wins. The spill store cuts the same Add sequence into
// consecutive runs. Within a run, flush applies the same stable sort +
// keep-last, so a run keeps its own last Add per address. Across runs, the
// merge resolves an address appearing in several runs by keeping the
// record from the newest run (the highest run sequence number; the live
// run is newest of all). Newest-run-wins composed with last-within-run is
// exactly global last-Add-wins, so the merged columns equal the in-memory
// sealed columns row for row — and the JSON encoder is a pure function of
// the sealed columns and the scan stats.
//
// Segment file layout ("sorted binary segment"): an 8-byte magic, a u8
// address width (bytes per address; 16 since ORSEG002 — addresses are the
// 128-bit dual-stack form), then a sequence of frames until EOF. Each frame
// holds up to spillFrameRows fixed-width little-endian rows:
//
//	magic   "ORSEG003"
//	width   u8 (= 16)
//	frame:  u32 rows,
//	        rows × (u64 addrHi, u64 addrLo, u64 t, u32 attempts,
//	                u32 banner, u8 probeMask, u8 flags, u8 fail)
//
// The banner field is an index into the owning ScanResult's dictionary, not
// text: the dictionary is append-only and outlives every segment the result
// writes (segments are deleted at Seal or Discard), so a frame carries no
// banner bytes and the reader makes no strings.
//
// A frame's declared size is checked against what is left of the file
// before anything is read for it, and every banner index against the
// dictionary's size. A segment that fails either is an error from the
// merge, never a panic or a short result.
//
// A reader refuses other magics — including the retired ORSEG001 (32-bit
// addresses) and ORSEG002 (banner text in the frame) — and other widths
// loudly: a spill directory can survive a binary upgrade, and decoding one
// layout as another would corrupt every row, so a version mismatch must be
// an error, never a guess.
//
// Frames keep both ends streaming: the writer never seeks (a merge's row
// count is unknown until it finishes), and a reader decodes one frame at a
// time into reused buffers, so an open segment costs O(frame) memory
// regardless of its size.

const (
	segMagic = "ORSEG003"
	// segMagicPrefix is what every version's magic starts with; the retired
	// ones are recognized only to fail with a version error instead of a
	// generic bad-magic one.
	segMagicPrefix = "ORSEG00"
	// segAddrWidth is the bytes-per-address the current format encodes.
	segAddrWidth = 16
	// spillFrameRows caps rows per segment frame: the unit of reader
	// memory and writer buffering.
	spillFrameRows = 4096
	// segFrameRowBytes is one encoded row (addrHi, addrLo, t, attempts,
	// banner, probeMask, flags, fail).
	segFrameRowBytes = 8 + 8 + 8 + 4 + 4 + 1 + 1 + 1
	// spillMergeFanIn caps segments merged in one pass (bounds open file
	// handles and reader buffers); more segments merge hierarchically,
	// oldest group first, which preserves run ordering.
	spillMergeFanIn = 64
	// DefaultSpillBudget is the per-result live-run budget when
	// SpillConfig.Budget is unset: large enough that Scale ≤ 0.001
	// studies never spill, small enough that a Scale 0.1 scan stays
	// bounded.
	DefaultSpillBudget = 64 << 20
)

// SpillConfig configures a spill-backed ScanResult.
type SpillConfig struct {
	// Dir is the directory segment files are created under (one
	// temporary subdirectory per result). It must exist.
	Dir string
	// Budget is the live-run memory budget in bytes: once the buffered
	// rows (rowBytes each) plus the banner dictionary entries they added
	// (each counted once) exceed it, the run is flushed to a segment. <= 0 means
	// DefaultSpillBudget. A tiny budget (even 1) is valid and only
	// costs more segments — the sealed bytes do not change.
	Budget int64
}

func (c SpillConfig) budget() int64 {
	if c.Budget <= 0 {
		return DefaultSpillBudget
	}
	return c.Budget
}

// maxRows is the capacity-hint clamp: the largest row count worth
// pre-allocating columns for under the budget (one extra row so the
// threshold check, which runs after the append, has room).
func (c SpillConfig) maxRows() int {
	n := c.budget()/rowBytes + 1
	if n > int64(1)<<31 {
		n = int64(1) << 31
	}
	return int(n)
}

// SpillStats reports a spill-backed result's disk and merge activity.
type SpillStats struct {
	// Segments is the number of segment files flushed over the result's
	// lifetime (they are deleted again as merges consume them).
	Segments int
	// SpilledBytes is the total bytes written to segment files.
	SpilledBytes int64
	// MergeFanIn is the fan-in of the final Seal merge: on-disk segments
	// plus the live run. 0 when the result never spilled.
	MergeFanIn int
	// MergePasses counts merge passes (1 unless hierarchical merging
	// was needed because segments exceeded the fan-in cap).
	MergePasses int
	// MergeDuration is the wall time of the Seal merge.
	MergeDuration time.Duration
	// FlushDuration is the cumulative wall time spent writing segment
	// files (run flushes; merge passes are in MergeDuration). With
	// MergeDuration it attributes spill cost: wide merges vs slow disk.
	FlushDuration time.Duration
}

// spillState is the spill store's bookkeeping hung off a ScanResult.
type spillState struct {
	cfg       SpillConfig
	dir       string // per-result temp dir, created on first flush
	liveBytes int64  // bytes buffered in the live run (see SpillConfig.Budget)
	segments  []spillSegment
	err       error // sticky first I/O failure; disables further spilling
	stats     SpillStats
}

// spillSegment is one on-disk sorted run. Sequence order is the slice
// order: segments[i] is older than segments[i+1], and the live run is
// newer than all of them.
type spillSegment struct {
	path string
	rows int
}

// NewSpilledScanResult returns a result whose append path spills to disk:
// records buffer in the columns until cfg's budget, then flush as sorted
// segment files under cfg.Dir, and Seal externally merges them. The
// capacity hint n is clamped by the budget (see NewScanResultSized), so a
// mis-sized hint cannot pre-allocate past the memory ceiling. The sealed
// result is byte-identical to an in-memory result fed the same records.
//
// Spill-backed results report I/O failures: prefer SealErr over Seal (which
// panics on merge failure), and call Discard to delete segments when the
// scan is abandoned.
func NewSpilledScanResult(o origin.ID, p proto.Protocol, trial int, n int, cfg SpillConfig) (*ScanResult, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("results: spill dir not set")
	}
	if fi, err := os.Stat(cfg.Dir); err != nil {
		return nil, fmt.Errorf("results: spill dir: %w", err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("results: spill dir %s is not a directory", cfg.Dir)
	}
	if max := cfg.maxRows(); n > max {
		n = max
	}
	s := NewScanResultSized(o, p, trial, n)
	s.spill = &spillState{cfg: cfg}
	return s, nil
}

// SpillStats returns the result's spill activity. Zero for in-memory
// results.
func (s *ScanResult) SpillStats() SpillStats {
	if s.spill == nil {
		return SpillStats{}
	}
	return s.spill.stats
}

// SealErr is Seal with an error return: it merges any on-disk segments
// with the live run, deletes the segments, and seals the columns. For a
// spill-backed result this is the preferred form — Seal panics where
// SealErr reports. A sticky I/O failure from an earlier flush is returned
// here even though the columns themselves seal correctly (the failed run
// stayed buffered in RAM), so operators learn the spill device broke.
func (s *ScanResult) SealErr() error {
	if s.spill == nil {
		s.sealMem()
		return nil
	}
	if !s.sealed {
		if len(s.spill.segments) > 0 {
			if err := s.mergeSpilled(); err != nil {
				return err
			}
		}
		s.sealMem()
		// The sealed columns are the live run a later Add extends.
		s.spill.liveBytes = int64(s.addrs.len()) * rowBytes
		s.spill.cleanupDir()
	}
	return s.spill.err
}

// Discard deletes the result's on-disk segments without sealing. The
// result remains usable (the live columns are untouched), but spilled
// records are gone; use it only when abandoning the scan.
func (s *ScanResult) Discard() error {
	if s.spill == nil {
		return nil
	}
	s.spill.segments = nil
	if s.spill.dir == "" {
		return nil
	}
	err := os.RemoveAll(s.spill.dir)
	s.spill.dir = ""
	return err
}

func (sp *spillState) cleanupDir() {
	for _, seg := range sp.segments {
		os.Remove(seg.path)
	}
	sp.segments = nil
	if sp.dir != "" {
		os.Remove(sp.dir) // best-effort: empty after segment removal
		sp.dir = ""
	}
}

// maybeSpill flushes the live run once the budget is exceeded. Called
// from Add; a no-op for in-memory results (s.spill == nil is checked by
// the caller).
func (s *ScanResult) maybeSpill() {
	sp := s.spill
	if sp.err != nil || sp.liveBytes < sp.cfg.budget() || s.addrs.len() == 0 {
		return
	}
	if err := s.flushRun(); err != nil {
		// Sticky degradation: stop spilling, keep buffering in RAM so no
		// record is lost, and surface the failure at SealErr.
		sp.err = err
	}
}

// flushRun sorts + dedups the live columns (the same stable keep-last the
// in-memory Seal applies) and writes them as a new segment, then resets
// the columns for the next run.
func (s *ScanResult) flushRun() error {
	sp := s.spill
	if sp.dir == "" {
		dir, err := os.MkdirTemp(sp.cfg.Dir, fmt.Sprintf("scan-%d-%d-%d-*", uint8(s.Origin), uint8(s.Proto), s.Trial))
		if err != nil {
			return fmt.Errorf("results: creating spill dir: %w", err)
		}
		sp.dir = dir
	}
	s.sortByAddr()
	path := filepath.Join(sp.dir, fmt.Sprintf("run-%06d.seg", sp.stats.Segments))
	flushBegin := time.Now()
	n, bytes, err := writeSegment(path, func(emit func(spillRow)) error {
		for i := range s.addrs.len() {
			emit(s.rowAt(i))
		}
		return nil
	})
	if err != nil {
		os.Remove(path)
		return err
	}
	sp.segments = append(sp.segments, spillSegment{path: path, rows: n})
	sp.stats.Segments++
	sp.stats.SpilledBytes += bytes
	sp.stats.FlushDuration += time.Since(flushBegin)
	// Empty the columns, keeping their capacity (bounded by the budget
	// clamp) for the next run.
	s.truncate(0)
	sp.liveBytes = 0
	return nil
}

// spillRow is one record across the three columns: the unit the sort, the
// merge and the segment codec move.
type spillRow struct {
	addr   ip.Addr
	row    row
	banner uint32
}

func (s *ScanResult) rowAt(i int) spillRow { return spillRow{s.addrs.at(i), s.rows[i], s.banner[i]} }

func (s *ScanResult) setRow(i int, r spillRow) {
	s.addrs.set(i, r.addr)
	s.rows[i], s.banner[i] = r.row, r.banner
}

func (s *ScanResult) appendRow(r spillRow) {
	s.addrs.append(r.addr)
	s.rows = append(s.rows, r.row)
	s.banner = append(s.banner, r.banner)
}

// truncate cuts the three columns to their first n rows, keeping their
// storage (and the address column's width).
func (s *ScanResult) truncate(n int) {
	s.addrs.truncate(n)
	s.rows, s.banner = s.rows[:n], s.banner[:n]
}

// mergeSpilled replaces the columns with the keep-last merge of every
// on-disk segment plus the live run, hierarchically when the segment count
// exceeds the fan-in cap. On success the columns are sorted and duplicate
// free, so the subsequent sealMem skips its sort.
func (s *ScanResult) mergeSpilled() error {
	sp := s.spill
	begin := time.Now()
	// The live run becomes the newest sorted run, in memory.
	s.sortByAddr()
	live := *s // snapshot of the live columns for the memory reader
	s.addrs, s.rows, s.banner = addrCol{}, nil, nil

	// Hierarchical pre-merges: reduce the oldest segments first so run
	// ordering (and therefore keep-last) is preserved; the live run only
	// ever joins the final pass, where it is newest.
	passes := 1
	for len(sp.segments)+1 > spillMergeFanIn {
		group := sp.segments[:spillMergeFanIn]
		merged, err := s.mergeToSegment(group)
		if err != nil {
			return err
		}
		for _, seg := range group {
			os.Remove(seg.path)
		}
		sp.segments = append([]spillSegment{merged}, sp.segments[spillMergeFanIn:]...)
		passes++
	}

	readers := make([]runReader, 0, len(sp.segments)+1)
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	total := live.addrs.len()
	for _, seg := range sp.segments {
		sr, err := openSegment(seg.path, len(s.banners))
		if err != nil {
			return err
		}
		readers = append(readers, sr)
		total += seg.rows
	}
	readers = append(readers, &memRunReader{s: &live, i: -1})

	// The merged rows hold every address any run did: the live run's width,
	// which its flushes kept, is theirs.
	s.addrs = live.addrs.fresh(total)
	s.rows = make([]row, 0, total)
	s.banner = make([]uint32, 0, total)
	dropped, err := mergeRuns(readers, s.appendRow)
	if err != nil {
		return err
	}
	s.dedupDropped += dropped
	sp.stats.MergeFanIn = len(readers)
	sp.stats.MergePasses = passes
	sp.stats.MergeDuration = time.Since(begin)
	return nil
}

// mergeToSegment merges a group of segments into one new segment file (an
// intermediate pass of the hierarchical merge).
func (s *ScanResult) mergeToSegment(group []spillSegment) (spillSegment, error) {
	sp := s.spill
	readers := make([]runReader, 0, len(group))
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	for _, seg := range group {
		sr, err := openSegment(seg.path, len(s.banners))
		if err != nil {
			return spillSegment{}, err
		}
		readers = append(readers, sr)
	}
	path := filepath.Join(sp.dir, fmt.Sprintf("run-%06d.seg", sp.stats.Segments))
	var dropped int
	n, bytes, err := writeSegment(path, func(emit func(spillRow)) error {
		var err error
		dropped, err = mergeRuns(readers, emit)
		return err
	})
	if err != nil {
		os.Remove(path)
		return spillSegment{}, err
	}
	sp.stats.Segments++
	sp.stats.SpilledBytes += bytes
	s.dedupDropped += dropped
	return spillSegment{path: path, rows: n}, nil
}

// mergeRuns streams the keep-last k-way merge: readers are ordered oldest
// to newest; for each distinct address, the newest run holding it wins and
// every older duplicate is dropped. Each run is internally sorted and
// duplicate free, so each reader advances at most once per output address.
func mergeRuns(readers []runReader, emit func(spillRow)) (dropped int, err error) {
	rows := make([]spillRow, len(readers))
	alive := make([]bool, len(readers))
	for i, r := range readers {
		alive[i], err = r.next(&rows[i])
		if err != nil {
			return dropped, err
		}
	}
	for {
		min := -1
		for i := range readers {
			if alive[i] && (min < 0 || rows[i].addr.Less(rows[min].addr)) {
				min = i
			}
		}
		if min < 0 {
			return dropped, nil
		}
		addr := rows[min].addr
		// Newest run with this address wins; advance every run holding it.
		winner := -1
		for i := range readers {
			if alive[i] && rows[i].addr == addr {
				winner = i
			}
		}
		emit(rows[winner])
		for i := range readers {
			if alive[i] && rows[i].addr == addr {
				if i != winner {
					dropped++
				}
				alive[i], err = readers[i].next(&rows[i])
				if err != nil {
					return dropped, err
				}
			}
		}
	}
}

// runReader yields one sorted run's rows in address order.
type runReader interface {
	// next fills *row with the next record, reporting false at end.
	next(row *spillRow) (bool, error)
	close() error
}

// memRunReader serves the live run straight from a column snapshot.
type memRunReader struct {
	s *ScanResult
	i int
}

func (m *memRunReader) next(r *spillRow) (bool, error) {
	m.i++
	if m.i >= m.s.addrs.len() {
		return false, nil
	}
	*r = m.s.rowAt(m.i)
	return true, nil
}

func (m *memRunReader) close() error { return nil }

// Segment file writer.

type segmentWriter struct {
	bw    *bufio.Writer
	frame []byte // the encoded rows of the frame being filled
	n     int    // rows in frame
	rows  int
	err   error
}

// writeSegment streams rows produced by fill into a new segment file at
// path, returning the row count and file size.
func writeSegment(path string, fill func(emit func(spillRow)) error) (rows int, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, fmt.Errorf("results: creating segment: %w", err)
	}
	w := &segmentWriter{
		bw:    bufio.NewWriterSize(f, 1<<16),
		frame: make([]byte, 0, spillFrameRows*segFrameRowBytes),
	}
	w.bw.WriteString(segMagic)
	w.bw.WriteByte(segAddrWidth)
	fillErr := fill(w.emit)
	w.flushFrame()
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	closeErr := f.Close()
	switch {
	case fillErr != nil:
		return 0, 0, fillErr
	case w.err != nil:
		return 0, 0, fmt.Errorf("results: writing segment: %w", w.err)
	case closeErr != nil:
		return 0, 0, fmt.Errorf("results: closing segment: %w", closeErr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, fmt.Errorf("results: sizing segment: %w", err)
	}
	return w.rows, fi.Size(), nil
}

func (w *segmentWriter) emit(r spillRow) {
	le := binary.LittleEndian
	b := le.AppendUint64(w.frame, r.addr.Hi())
	b = le.AppendUint64(b, r.addr.Lo())
	b = le.AppendUint64(b, uint64(r.row.t))
	b = le.AppendUint32(b, uint32(r.row.attempts))
	b = le.AppendUint32(b, r.banner)
	w.frame = append(b, r.row.probeMask, r.row.flags, uint8(r.row.fail))
	w.n++
	w.rows++
	if w.n == spillFrameRows {
		w.flushFrame()
	}
}

// flushFrame writes the buffered rows as one frame.
func (w *segmentWriter) flushFrame() {
	if w.err == nil && w.n > 0 {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(w.n))
		w.bw.Write(hdr[:])
		// bufio.Writer latches its first error; record it once per frame.
		if _, err := w.bw.Write(w.frame); err != nil {
			w.err = err
		}
	}
	w.frame, w.n = w.frame[:0], 0
}

// Segment file reader: decodes one frame at a time into reused buffers, so
// an open segment costs O(spillFrameRows) memory.

type segmentReader struct {
	f   *os.File
	br  *bufio.Reader
	raw []byte // the current frame's encoded rows
	buf []spillRow
	i   int
	// left is how many of the file's bytes no frame has claimed yet: the
	// ceiling on what the next frame may declare.
	left int64
	// dict is the owning result's dictionary size: the largest banner
	// index a row may carry.
	dict uint32
}

// openSegment opens a segment whose banner indices point into a dictionary
// of dict entries.
func openSegment(path string, dict int) (*segmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("results: opening segment: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segMagic {
		f.Close()
		if err == nil && string(magic[:len(segMagicPrefix)]) == segMagicPrefix {
			return nil, fmt.Errorf("results: %s: segment version %s is no longer readable; current format is %s", path, magic, segMagic)
		}
		return nil, fmt.Errorf("results: %s: bad segment magic", path)
	}
	width, err := br.ReadByte()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("results: %s: reading address width: %w", path, err)
	}
	if width != segAddrWidth {
		f.Close()
		return nil, fmt.Errorf("results: %s: segment address width %d, want %d", path, width, segAddrWidth)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("results: %s: sizing segment: %w", path, err)
	}
	return &segmentReader{f: f, br: br, left: fi.Size() - int64(len(segMagic)) - 1, dict: uint32(dict)}, nil
}

func (r *segmentReader) next(row *spillRow) (bool, error) {
	if r.i >= len(r.buf) {
		ok, err := r.readFrame()
		if !ok || err != nil {
			return false, err
		}
	}
	*row = r.buf[r.i]
	r.i++
	return true, nil
}

func (r *segmentReader) readFrame() (bool, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return false, nil // clean end: no more frames
		}
		return false, fmt.Errorf("results: reading segment frame: %w", err)
	}
	rows := int(binary.LittleEndian.Uint32(hdr[:]))
	if rows <= 0 || rows > spillFrameRows {
		return false, fmt.Errorf("results: corrupt segment frame (%d rows)", rows)
	}
	size := int64(rows) * segFrameRowBytes
	if int64(len(hdr))+size > r.left {
		return false, fmt.Errorf("results: corrupt segment frame (%d bytes declared, %d left in the file)", int64(len(hdr))+size, r.left)
	}
	r.left -= int64(len(hdr)) + size
	if r.raw == nil {
		r.raw = make([]byte, spillFrameRows*segFrameRowBytes)
		r.buf = make([]spillRow, spillFrameRows)
	}
	raw := r.raw[:size]
	if _, err := io.ReadFull(r.br, raw); err != nil {
		return false, fmt.Errorf("results: reading segment frame: %w", err)
	}
	le := binary.LittleEndian
	r.buf, r.i = r.buf[:rows], 0
	for i := range r.buf {
		b := raw[i*segFrameRowBytes:]
		k := le.Uint32(b[28:])
		if k > r.dict {
			return false, fmt.Errorf("results: corrupt segment frame (banner index %d, dictionary holds %d)", k, r.dict)
		}
		r.buf[i] = spillRow{
			addr:   ip.AddrFrom128(le.Uint64(b), le.Uint64(b[8:])),
			row:    row{t: time.Duration(le.Uint64(b[16:])), attempts: int32(le.Uint32(b[24:])), probeMask: b[32], flags: b[33], fail: zgrab.FailMode(b[34])},
			banner: k,
		}
	}
	return true, nil
}

func (r *segmentReader) close() error { return r.f.Close() }
