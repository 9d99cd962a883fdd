package results

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/zgrab"
)

// The JSON wire format is compact: one record array per scan, host records
// as fixed-order tuples. It exists so cmd/originscan can persist a study's
// raw results and cmd/report can re-run analyses without re-scanning.
//
// Both directions stream over the columnar store: the encoder walks the
// sealed columns and appends tuples and banners straight to its output
// buffer, and the decoder is a single-pass byte scanner over a read window
// that appends rows straight onto fresh columns — neither side
// materializes per-row structs, an intermediate records slice, a scan's
// banner column or the file (DESIGN.md § 5 "Wire format"). The bytes
// produced are identical to the earlier reflection-based encoder
// (json.Encoder over a dataset struct): field order, null vs [] for empty
// slices, banners omitted when none captured, HTML-escaped strings, and
// the trailing newline are all preserved, which the golden-dataset test
// locks in.
//
// A scan is the unit of work for GOMAXPROCS workers. WriteJSON encodes
// scans into a buffer per scan and hands the buffers to the writer in
// study order; ReadJSON cuts the text ahead of its cursor at the separator
// WriteJSON puts between scans and decodes each piece in place, taking a
// piece only where the in-line decoder would have read that same scan. A
// dataset of one scan, GOMAXPROCS 1, or a scan of more than inlineBound
// bytes of text goes through the one-goroutine streaming path, so the
// codec holds at most a constant times GOMAXPROCS of text, whatever the
// dataset's size, and the bytes, the dataset and every error (with its
// offset) are the same at every GOMAXPROCS.
//
// Wire layout:
//
//	{"origins":"<base64 origin ids>","trials":N,"scans":[
//	  {"origin":O,"proto":P,"trial":T,
//	   "targets":..,"probes":..,"synacks":..,"rsts":..,"invalid":..,
//	   "records":[[addr,probeMask,flags(rst|l7),fail,attempts,tNanos],...],
//	   "banners":[...]}   // omitted when no banner was captured
//	]}

// WriteJSON serializes the dataset. With GOMAXPROCS > 1 and two or more
// scans, the scans are encoded on GOMAXPROCS workers, each into a buffer of
// its own, and the buffers are handed to w in study order; a scan whose
// text could pass inlineBound is streamed in line in its turn instead. The
// bytes are the same either way.
func (d *Dataset) WriteJSON(w io.Writer) error {
	var scans []*ScanResult
	for _, o := range d.Origins {
		for _, p := range proto.All() {
			for t := 0; t < d.Trials; t++ {
				if s := d.Scan(o, p, t); s != nil {
					scans = append(scans, s)
				}
			}
		}
	}
	out := jsonOut{w: w, b: make([]byte, 0, flushAt+maxRowText)}
	out.b = append(out.b, `{"origins":`...)
	if len(d.Origins) == 0 {
		out.b = append(out.b, "null"...)
	} else {
		// The wire type is a byte slice, which JSON encodes as base64.
		ids := make([]byte, len(d.Origins))
		for i, o := range d.Origins {
			ids[i] = uint8(o)
		}
		out.b = append(out.b, '"')
		out.b = base64.StdEncoding.AppendEncode(out.b, ids)
		out.b = append(out.b, '"')
	}
	out.b = append(out.b, `,"trials":`...)
	out.b = strconv.AppendInt(out.b, int64(d.Trials), 10)
	out.b = append(out.b, `,"scans":`...)
	var err error
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(scans) > 1 {
		err = writeScans(&out, scans, workers)
	} else {
		var sc writeScratch
		for i, s := range scans {
			if err = s.writeJSON(&out, scanSep(i), &sc); err != nil || out.err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	if len(scans) == 0 {
		out.b = append(out.b, "null"...)
	} else {
		out.b = append(out.b, ']')
	}
	out.b = append(out.b, "}\n"...)
	out.flush()
	return out.err
}

// inlineBound is the most text a scan may have to be encoded, or decoded,
// on a worker: past it the scan is streamed in line, so the codec never
// holds a large scan as text.
const inlineBound = 2 << 20

// flushAt is the size at which a streaming jsonOut hands its text to the
// writer: the serial encoder's window.
const flushAt = 64 << 10

// maxRowText is the longest text a record can have, separator included:
// an IPv6 address of 39 characters and every column at its maximum.
const maxRowText = len(`,["ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",255,3,255,2147483647,9223372036854775807]`)

// scanSep is what goes before scan i in the "scans" array.
func scanSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// jsonOut is the encoder's output. With w set it streams: text is appended
// to b and handed to w each time b passes flushAt bytes. With w nil it
// holds a whole scan's text for a worker.
type jsonOut struct {
	b   []byte
	w   io.Writer
	err error // the writer's first error; what follows it is dropped
}

// flush hands b to the writer and empties it.
func (o *jsonOut) flush() {
	o.write(o.b)
	o.b = o.b[:0]
}

// write hands p to the writer, keeping its first error as bufio.Writer
// does (a short write without one is io.ErrShortWrite).
func (o *jsonOut) write(p []byte) {
	if o.err != nil || len(p) == 0 {
		return
	}
	n, err := o.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	o.err = err
}

// encodeSlot is a worker's buffer: one scan's text, separator first, on
// its way to the writer. A slot and its scratch serve many scans of a call.
type encodeSlot struct {
	s    *ScanResult
	sep  byte
	out  jsonOut
	sc   writeScratch
	err  error
	done chan struct{}
}

// writeScans encodes scans on workers and writes them to out in order,
// encoding ahead of the writer by at most two buffers per worker. A scan
// textBound puts over inlineBound is not handed to a worker: out streams it
// when its turn comes, while the workers go on encoding the scans after it.
func writeScans(out *jsonOut, scans []*ScanResult, workers int) error {
	inline := make([]bool, len(scans))
	for i, s := range scans {
		s.seal()
		inline[i] = s.textBound() > inlineBound
	}
	slots := make([]encodeSlot, 2*workers)
	free := make([]*encodeSlot, len(slots))
	for i := range slots {
		slots[i].done = make(chan struct{}, 1)
		free[i] = &slots[i]
	}
	todo := make(chan *encodeSlot, len(slots)) // never more sends pending than slots
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sl := range todo {
				if need := sl.s.textBound(); cap(sl.out.b) < need {
					sl.out.b = make([]byte, 0, need)
				}
				sl.out.b = sl.out.b[:0]
				sl.err = sl.s.writeJSON(&sl.out, sl.sep, &sl.sc)
				sl.done <- struct{}{}
			}
		}()
	}
	defer func() {
		close(todo)
		wg.Wait()
	}()
	var (
		queue []*encodeSlot // handed out, in study order
		sc    writeScratch  // the in-line scans'
		next  int           // the next scan to hand out
	)
	for i, s := range scans {
		for ; next < len(scans) && len(free) > 0; next++ {
			if inline[next] {
				continue
			}
			sl := free[len(free)-1]
			free = free[:len(free)-1]
			sl.s, sl.sep = scans[next], scanSep(next)
			todo <- sl
			queue = append(queue, sl)
		}
		if inline[i] {
			if err := s.writeJSON(out, scanSep(i), &sc); err != nil {
				return err
			}
		} else {
			sl := queue[0]
			queue = queue[1:]
			<-sl.done
			if sl.err != nil {
				return sl.err
			}
			// The scan's text goes to the writer as it is, after whatever
			// out holds.
			out.flush()
			out.write(sl.out.b)
			free = append(free, sl)
		}
		if out.err != nil {
			return out.err
		}
	}
	return nil
}

// textBound is an upper bound on the length of s's text, separator
// included: each row at maxRowText, plus a separator and the longest
// dictionary entry's text when the scan has banners.
func (s *ScanResult) textBound() int {
	perRow := maxRowText
	if len(s.banners) > 0 {
		longest := 0
		for _, b := range s.banners {
			n := len(b) + 2
			if !rawBanner(b) {
				n = 6*len(b) + 2 // every byte as a \u escape
			}
			longest = max(longest, n)
		}
		perRow += 1 + longest
	}
	return 256 + s.addrs.len()*perRow
}

// writeScratch is the encoder's scratch, reused across scans.
type writeScratch struct {
	// banners is the current scan's banner dictionary as JSON text, each
	// entry encoded once: dictionary index k (0 is "") is written as
	// banners[ends[k]:ends[k+1]].
	banners []byte
	ends    []int
}

// writeJSON appends sep and one scan object, taken from the sealed
// columns, to out, which hands its text to the writer row by row when it
// streams.
func (s *ScanResult) writeJSON(out *jsonOut, sep byte, sc *writeScratch) error {
	s.seal()
	limit := math.MaxInt
	if out.w != nil {
		limit = flushAt
	}
	b := append(out.b, sep, '{')
	field := func(name string, v uint64) {
		b = append(b, name...)
		b = strconv.AppendUint(b, v, 10)
	}
	field(`"origin":`, uint64(uint8(s.Origin)))
	field(`,"proto":`, uint64(uint8(s.Proto)))
	b = append(b, `,"trial":`...)
	b = strconv.AppendInt(b, int64(s.Trial), 10)
	field(`,"targets":`, s.Targets)
	field(`,"probes":`, s.ProbesSent)
	field(`,"synacks":`, s.SynAcks)
	field(`,"rsts":`, s.Rsts)
	field(`,"invalid":`, s.Invalid)
	b = append(b, `,"records":`...)
	if s.addrs.len() == 0 {
		b = append(b, "null"...)
	} else {
		open := byte('[')
		for i := range s.addrs.len() {
			b = append(b, open, '[')
			open = ','
			// IPv4 addresses keep the historical bare-integer encoding
			// (byte-identity with every pre-dual-stack file); IPv6 is a
			// JSON string in canonical text form.
			if a := s.addrs.at(i); a.Is4() {
				b = strconv.AppendUint(b, uint64(a.V4()), 10)
			} else {
				b = append(b, '"')
				b = a.AppendTo(b)
				b = append(b, '"')
			}
			r := &s.rows[i]
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(r.probeMask), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(r.flags), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(r.fail), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(r.attempts), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(r.t), 10)
			b = append(b, ']')
			if len(b) >= limit {
				out.b = b
				out.flush()
				b = out.b
			}
		}
		b = append(b, ']')
	}
	// Banners are written as text, never as dictionary indices, and only
	// when a surviving row carries one.
	if slices.ContainsFunc(s.banner, func(k uint32) bool { return k != 0 }) {
		if err := sc.encodeBanners(s.banners); err != nil {
			out.b = b
			return err
		}
		b = append(b, `,"banners":`...)
		open := byte('[')
		for _, k := range s.banner {
			b = append(b, open)
			open = ','
			b = append(b, sc.banners[sc.ends[k]:sc.ends[k+1]]...)
			if len(b) >= limit {
				out.b = b
				out.flush()
				b = out.b
			}
		}
		b = append(b, ']')
	}
	out.b = append(b, '}')
	return nil
}

// encodeBanners fills the scratch's banner table from a scan's dictionary.
// Each entry is written raw between quotes when json.Marshal would not
// change it, and as json.Marshal of that one string otherwise — which
// keeps the default HTML escaping the old struct-based encoder applied.
// Entries no surviving row names (Seal's keep-last dedup can orphan one)
// are encoded too and never written.
func (sc *writeScratch) encodeBanners(dict []string) error {
	sc.banners = append(sc.banners[:0], `""`...)
	sc.ends = append(sc.ends[:0], 0, len(sc.banners))
	for _, b := range dict {
		if rawBanner(b) {
			sc.banners = append(sc.banners, '"')
			sc.banners = append(sc.banners, b...)
			sc.banners = append(sc.banners, '"')
		} else {
			enc, err := json.Marshal(b)
			if err != nil {
				return err
			}
			sc.banners = append(sc.banners, enc...)
		}
		sc.ends = append(sc.ends, len(sc.banners))
	}
	return nil
}

// rawBanner reports whether json.Marshal would write s between quotes as
// it stands: printable ASCII with nothing JSON or HTML escaping touches.
func rawBanner(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// ReadJSON deserializes a dataset written by WriteJSON in one pass over r,
// appending rows straight onto columnar scans. Unknown fields are skipped
// (with full syntax validation), records may arrive unsorted (Seal at Put
// time sorts them), short tuples zero-fill and extra tuple elements are
// ignored. What it will not do is load a value it cannot represent: a tuple
// field wider than its column, or a scan the dataset's origins × protocols ×
// trials grid would never show, is an error. Every error names the byte
// offset it was found at.
//
// With GOMAXPROCS > 1, the scans after the first are decoded ahead on
// GOMAXPROCS workers (lookahead): the same dataset and the same errors, at
// the same offsets, as the one-goroutine decoder gives.
func ReadJSON(r io.Reader) (*Dataset, error) {
	d := &decoder{r: r, buf: make([]byte, readWindow), mark: -1}
	if workers := runtime.GOMAXPROCS(0); workers > 1 {
		d.la = &lookahead{workers: workers}
	}
	ds, err := d.dataset()
	if err != nil {
		return nil, fmt.Errorf("results: decoding dataset: %w", err)
	}
	return ds, nil
}

// readWindow is the decoder's refill unit. The window grows past it only
// while a single token longer than the window — a string, or an unknown
// field's number — is being scanned, or for the look-ahead's batches.
const readWindow = 64 << 10

// maxSkipDepth is encoding/json's nesting limit, applied to skipped values.
const maxSkipDepth = 10000

// decoder is a single-pass JSON scanner specialised to the dataset layout.
// It reads r through a sliding window — buf[pos:end] is unread input, base
// the stream offset of buf[0] — and never holds more of the file than that.
type decoder struct {
	r    io.Reader
	buf  []byte
	pos  int
	end  int
	base int64
	// mark, when >= 0, is the start of a token still being scanned that
	// must stay contiguous: fill keeps buf[mark:] instead of buf[pos:].
	mark int
	// err is the reader's terminal error (io.EOF at a clean end).
	err error

	// key and unq are scratch reused across tokens: the current object key
	// and the last escaped string's decoded bytes.
	key []byte
	unq []byte

	// la decodes scans ahead of the cursor on workers; nil decodes every
	// scan in line.
	la *lookahead
}

// fill slides the unread input (or the marked token) to the front of the
// window and reads more, reporting whether any bytes arrived.
func (d *decoder) fill() bool {
	if d.err != nil {
		return false
	}
	keep := d.pos
	if d.mark >= 0 {
		keep = d.mark
	}
	if keep > 0 {
		d.end = copy(d.buf, d.buf[keep:d.end])
		d.pos -= keep
		d.base += int64(keep)
		if d.mark >= 0 {
			d.mark = 0
		}
	}
	if d.end == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	return d.read(len(d.buf))
}

// read reads once into buf[end:upto], reporting whether any bytes arrived.
// Like bufio, it gives a reader that returns (0, nil) a bounded number of
// chances before calling it stuck.
func (d *decoder) read(upto int) bool {
	for tries := 0; tries < 100; tries++ {
		n, err := d.r.Read(d.buf[d.end:upto])
		d.end += n
		if err != nil {
			d.err = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	d.err = io.ErrNoProgress
	return false
}

// errAt reports a syntax error at the cursor: what the decoder wanted and
// the byte it found, or the reader's error when the input ended there.
func (d *decoder) errAt(want string) error {
	off := d.base + int64(d.pos)
	if d.pos < d.end {
		return fmt.Errorf("byte %d: expected %s, found %q", off, want, d.buf[d.pos])
	}
	err := d.err
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("byte %d: expected %s: %w", off, want, err)
}

// next skips whitespace and returns the byte at the cursor without
// consuming it; 0 when the input has ended (errAt then says why).
func (d *decoder) next() byte {
	for d.pos < d.end || d.fill() {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// null consumes the literal null at the cursor.
func (d *decoder) null() error {
	for _, c := range []byte("null") {
		if !(d.pos < d.end || d.fill()) || d.buf[d.pos] != c {
			return d.errAt("null")
		}
		d.pos++
	}
	return nil
}

// uint consumes an unsigned integer of at most the given width. JSON's
// other number forms are errors, as they were when strconv.ParseUint read
// the token: a sign or a leading zero here, a fraction or an exponent at
// the caller's check of what follows the digits.
func (d *decoder) uint(bits uint) (uint64, error) {
	c := d.next()
	if c-'0' > 9 {
		return 0, d.errAt("unsigned integer")
	}
	d.pos++
	v := uint64(c - '0')
	for d.pos < d.end || d.fill() {
		c := d.buf[d.pos] - '0'
		if c > 9 {
			break
		}
		if v == 0 {
			return 0, d.errAt("no digit after a leading zero")
		}
		if v >= math.MaxUint64/10 && (v > math.MaxUint64/10 || c > math.MaxUint64%10) {
			return 0, d.errAt("integer below 2^64")
		}
		v = v*10 + uint64(c)
		d.pos++
	}
	if v>>bits != 0 {
		return 0, fmt.Errorf("byte %d: %d does not fit %d bits", d.base+int64(d.pos), v, bits)
	}
	return v, nil
}

// plainByte marks the bytes a string token carries verbatim: ASCII other
// than the control bytes, the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes the string token at the cursor (an opening quote) and
// returns its contents. A token of plain bytes is returned as a view of
// the window; one with an escape or a non-ASCII byte is decoded by
// encoding/json, so escape handling, surrogate pairs and U+FFFD
// replacement are its by construction. The result is valid until the next
// decoder call.
func (d *decoder) str() ([]byte, error) {
	d.mark = d.pos
	d.pos++
	plain := true
	for {
		for d.pos < d.end && plainByte[d.buf[d.pos]] {
			d.pos++
		}
		if d.pos == d.end {
			if !d.fill() {
				return nil, d.errAt("closing quote")
			}
			continue
		}
		switch c := d.buf[d.pos]; {
		case c == '"':
			d.pos++
			tok := d.buf[d.mark:d.pos]
			d.mark = -1
			if plain {
				return tok[1 : len(tok)-1], nil
			}
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				return nil, fmt.Errorf("byte %d: %w", d.base+int64(d.pos-len(tok)), err)
			}
			d.unq = append(d.unq[:0], s...)
			return d.unq, nil
		case c < 0x20:
			return nil, d.errAt("no control byte in string")
		case c == '\\':
			// Skip the escaped byte so an escaped quote does not end the
			// token; encoding/json judges the escape itself.
			d.pos++
			if d.pos == d.end && !d.fill() {
				return nil, d.errAt("closing quote")
			}
		}
		plain = false
		d.pos++
	}
}

// tokenEnd marks the bytes that end a number or literal token.
var tokenEnd = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, ',': true, ']': true, '}': true}

// skip consumes one value of any type — an unknown field — holding it to
// the full JSON grammar and to encoding/json's nesting limit.
func (d *decoder) skip(depth int) error {
	switch c := d.next(); c {
	case '"':
		_, err := d.str()
		return err
	case '{', '[':
		if depth == maxSkipDepth {
			return d.errAt("at most 10000 nested values")
		}
		if c == '{' {
			return d.object(func([]byte) error { return d.skip(depth + 1) })
		}
		return d.array(func() error { return d.skip(depth + 1) })
	}
	// A number or a literal runs to the next delimiter, and encoding/json
	// says whether the token is one.
	d.mark = d.pos
	for (d.pos < d.end || d.fill()) && !tokenEnd[d.buf[d.pos]] {
		d.pos++
	}
	tok := d.buf[d.mark:d.pos]
	d.mark = -1
	if !json.Valid(tok) {
		d.pos -= len(tok)
		return d.errAt("value")
	}
	return nil
}

// seq consumes a comma-separated sequence between open and shut, calling
// elem with the cursor on each element: the one place that knows where
// commas and brackets go.
func (d *decoder) seq(open, shut byte, elem func() error) error {
	if d.next() != open {
		return d.errAt(strconv.QuoteRune(rune(open)))
	}
	d.pos++
	if d.next() == shut {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case shut:
			d.pos++
			return nil
		default:
			return d.errAt(`"," or ` + strconv.QuoteRune(rune(shut)))
		}
	}
}

// array consumes null or an array, calling elem on each element.
func (d *decoder) array(elem func() error) error {
	if d.next() == 'n' {
		return d.null()
	}
	return d.seq('[', ']', elem)
}

// object consumes an object, calling field with each key (valid until
// field's first decoder call) and the cursor past the colon.
func (d *decoder) object(field func(key []byte) error) error {
	return d.seq('{', '}', func() error {
		if d.next() != '"' {
			return d.errAt("object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		// The key may be a view of the window, which finding the colon
		// can slide.
		d.key = append(d.key[:0], key...)
		if d.next() != ':' {
			return d.errAt(`":" after object key`)
		}
		d.pos++
		return field(d.key)
	})
}

// dataset consumes the whole document.
func (d *decoder) dataset() (*Dataset, error) {
	var (
		origins origin.Set
		trials  int
		scans   []*ScanResult
		offsets []int64 // offsets[i] is where scans[i]'s object starts
		trialAt int64   // where the trial count is
	)
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "origins":
			// Byte slice on the wire: base64 string (or null).
			if d.next() == 'n' {
				return d.null()
			}
			if d.next() != '"' {
				return d.errAt("base64 origins or null")
			}
			off := d.base + int64(d.pos)
			b, err := d.str()
			if err != nil {
				return err
			}
			ids, err := base64.StdEncoding.AppendDecode(nil, b)
			if err != nil {
				return fmt.Errorf("byte %d: origins: %w", off, err)
			}
			for _, id := range ids {
				origins = append(origins, origin.ID(id))
			}
		case "trials":
			d.next()
			trialAt = d.base + int64(d.pos)
			u, err := d.uint(32)
			trials = int(u)
			return err
		case "scans":
			return d.array(func() error {
				d.next()
				off := d.base + int64(d.pos)
				var s *ScanResult
				if len(scans) > 0 {
					// A dataset of one scan never looks ahead. The scan
					// before sizes the batch.
					s = d.takeAhead(off - offsets[len(offsets)-1])
				}
				if s == nil {
					var err error
					if s, err = d.scan(); err != nil {
						return fmt.Errorf("scan %d: %w", len(scans), err)
					}
				}
				scans = append(scans, s)
				offsets = append(offsets, off)
				return nil
			})
		default:
			return d.skip(0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if d.next() != 0 || d.pos < d.end || d.err != io.EOF {
		return nil, d.errAt("end of input after the dataset object")
	}
	if trials <= 0 || trials > 64 {
		return nil, fmt.Errorf("byte %d: implausible trial count %d", trialAt, trials)
	}
	ds := NewDataset(origins, trials)
	for i, s := range scans {
		// A scan outside origins × proto.All() × trials would load and
		// then never be seen: WriteJSON and every analysis walk that grid.
		var why string
		switch {
		case !origins.Contains(s.Origin):
			why = "origin is not in the dataset's origins"
		case !slices.Contains(proto.All(), s.Proto):
			why = "unknown protocol"
		case s.Trial >= trials:
			why = fmt.Sprintf("dataset has %d trials", trials)
		}
		if why != "" {
			return nil, fmt.Errorf("scan %d at byte %d (origin %d, proto %d, trial %d): %s",
				i, offsets[i], s.Origin, s.Proto, s.Trial, why)
		}
		if err := ds.Put(s); err != nil {
			return nil, fmt.Errorf("scan %d at byte %d: %w", i, offsets[i], err)
		}
	}
	return ds, nil
}

// lookahead decodes scans ahead of the cursor, each whole candidate on a
// worker, in place in the window. A candidate is the text from the cursor,
// or from the end of the candidate before it, to the next `},{"origin":`
// (or, once the input has ended, to the `}]` after the last scan):
// WriteJSON puts that between scans, and finding it needs no parse. It
// may be no scan at all (the pattern can sit inside a string or an unknown
// field), so the cursor takes a candidate only if it decoded whole, with
// no error and its closing brace as its last byte, and starts exactly
// where the cursor stands: where the scan before it ended, as decoded
// ahead or in line. Every other scan is decoded in line, so each error is
// the in-line decoder's, at its offset, whatever the workers saw.
type lookahead struct {
	workers int
	// ahead is the current batch in file order; next is the first of it
	// the cursor has neither taken nor passed.
	ahead []candidate
	next  int
	// quiet is where the last cut that found too little to share stopped
	// searching: the cursor cuts no batch before it.
	quiet int64
	// subs are the workers' decoders, kept for their scratch.
	subs []decoder
	// taken counts the scans the cursor took decoded ahead.
	taken int
}

// candidate is one scan decoded ahead: its text, until a worker has
// decoded it, the text's stream offsets, and the scan, or nil when the
// text is not one whole scan object.
type candidate struct {
	text       []byte
	start, end int64
	s          *ScanResult
}

// scanSeparator is what WriteJSON writes between two scans, and
// lastScanEnd what it writes after the last.
var (
	scanSeparator = []byte(`},{"origin":`)
	lastScanEnd   = []byte(`}]`)
)

// A batch holds batchPerWorker candidates for each worker, or as many as
// fit in aheadPerWorker bytes per worker past the cursor: the window's
// bound, room for two candidates of inlineBound. The look-ahead reads
// readStep at a time, so the workers start on a batch before it is cut.
const (
	batchPerWorker = 8
	aheadPerWorker = 2 * inlineBound
	readStep       = 1 << 20
)

// takeAhead returns the scan starting at the cursor, decoded ahead,
// and moves the cursor past it; or nil, and the scan is to be decoded in
// line. When the cursor has passed the whole batch it cuts the next one,
// expecting scans of about span bytes.
func (d *decoder) takeAhead(span int64) *ScanResult {
	la := d.la
	if la == nil {
		return nil
	}
	off := d.base + int64(d.pos)
	for la.next < len(la.ahead) && la.ahead[la.next].start < off {
		la.next++
	}
	if la.next == len(la.ahead) {
		if off < la.quiet {
			return nil
		}
		d.cutBatch(int(min(span, inlineBound)))
		off = d.base + int64(d.pos)
	}
	if la.next == len(la.ahead) {
		return nil
	}
	c := &la.ahead[la.next]
	if c.start != off || c.s == nil {
		return nil
	}
	la.next++
	la.taken++
	d.pos = int(c.end - d.base)
	s := c.s
	c.s = nil
	return s
}

// cutBatch cuts a batch at the cursor and decodes it. It splits off the
// run of candidates that starts at the cursor, each at most inlineBound
// long, reading ahead readStep at a time, until it has batchPerWorker of
// them per worker, the window holds aheadPerWorker bytes per worker past
// the cursor, or the input ends. The first time the window fills it is
// widened to hold a batch of scans of span bytes, and after that only for
// longer ones. GOMAXPROCS workers start once the batch has two candidates
// and take each one as it is found, so reading ahead overlaps decoding. A
// candidate's text does not move while it is decoded: the window slides
// only before the cut, and widening it copies the text into a new array,
// leaving the old one to the workers. A batch of fewer than two is not
// decoded: the cursor's scan goes in line.
func (d *decoder) cutBatch(span int) {
	la := d.la
	want, limit := la.workers*batchPerWorker, la.workers*aheadPerWorker
	if cap(la.ahead) < want {
		// The workers hold pointers into it: it must not grow.
		la.ahead = make([]candidate, 0, want)
	}
	la.ahead, la.next = la.ahead[:0], 0
	if len(la.subs) < la.workers {
		la.subs = make([]decoder, la.workers)
	}
	room := min(limit, (want+1)*span)
	d.makeRoom(0, 0)
	var (
		todo chan *candidate
		wg   sync.WaitGroup
	)
	add := func(start, end int) {
		la.ahead = append(la.ahead, candidate{start: d.base + int64(start), end: d.base + int64(end), text: d.buf[start:end:end]})
		switch n := len(la.ahead); {
		case n == 2:
			todo = make(chan *candidate, want) // never more sends than a batch holds
			for w := range la.workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for c := range todo {
						c.s = la.subs[w].whole(c.text, c.start)
						c.text = nil
					}
				}()
			}
			todo <- &la.ahead[0]
			todo <- &la.ahead[1]
		case n > 2:
			todo <- &la.ahead[n-1]
		}
	}
	// Offsets are from the cursor, at the window's start from here on:
	// start is where the next candidate begins, from is where the search
	// for its end goes on, stop is where that search ends.
	start, from, stop := 0, 0, 0
	for len(la.ahead) < want {
		text := d.buf[:d.end]
		stop = min(len(text), start+inlineBound-1+len(scanSeparator))
		if i := bytes.Index(text[from:stop], scanSeparator); i >= 0 {
			end := from + i + 1
			add(start, end)
			start, from = end+1, end+1
			continue
		}
		if stop < len(text) || len(text) >= limit || d.err != nil {
			if stop == len(text) && d.err != nil {
				// The input ends with no separator after start: the scan
				// there is the array's last if it ends where the array does.
				if j := bytes.Index(text[start:], lastScanEnd); j >= 0 && j < inlineBound {
					add(start, start+j+1)
				}
			}
			break
		}
		from = max(start, stop-len(scanSeparator)+1)
		d.readAhead(min(limit, len(text)+readStep, start+inlineBound+len(scanSeparator)), room, limit)
	}
	if len(la.ahead) < 2 {
		// Nothing to share out before the cursor passes where the search
		// gave up.
		clear(la.ahead)
		la.ahead = la.ahead[:0]
		la.quiet = d.base + int64(stop)
		return
	}
	close(todo)
	wg.Wait()
}

// makeRoom slides the unread input to the start of the window, first
// moving the window into a new array of max(n, size) bytes if it is
// narrower than n.
func (d *decoder) makeRoom(n, size int) {
	buf := d.buf
	if len(buf) < n {
		buf = make([]byte, max(n, size))
	}
	d.end = copy(buf, d.buf[d.pos:d.end])
	d.buf, d.base, d.pos = buf, d.base+int64(d.pos), 0
}

// readAhead reads until the window holds n bytes past the cursor, which
// makeRoom has put at its start, or the input has ended, asking the reader
// for no more than that. A full window is widened, never slid: to room
// the first time, then by doubling up to limit, so a cut that keeps
// meeting longer scans widens it a few times, not once per read, and a
// short input never widens it.
func (d *decoder) readAhead(n, room, limit int) {
	for d.end < n && d.err == nil {
		if d.end == len(d.buf) {
			d.makeRoom(n, max(room, min(limit, 2*len(d.buf))))
		}
		d.read(min(len(d.buf), n))
	}
}

// whole decodes text, which starts at stream offset base, as exactly one
// scan object and nothing after it, or returns nil. d keeps only its
// scratch from an earlier call: it reads text in place and nothing more.
func (d *decoder) whole(text []byte, base int64) *ScanResult {
	*d = decoder{buf: text, end: len(text), base: base, mark: -1, err: io.EOF, key: d.key[:0], unq: d.unq[:0]}
	s, err := d.scan()
	if err != nil || d.pos != len(text) {
		return nil
	}
	return s
}

// scan consumes one scan object, appending records directly onto the
// columns of a fresh ScanResult.
func (d *decoder) scan() (*ScanResult, error) {
	s := &ScanResult{}
	err := d.object(func(key []byte) (err error) {
		var u uint64
		switch string(key) {
		case "origin":
			u, err = d.uint(8)
			s.Origin = origin.ID(u)
		case "proto":
			u, err = d.uint(8)
			s.Proto = proto.Protocol(u)
		case "trial":
			u, err = d.uint(32)
			s.Trial = int(u)
		case "targets":
			s.Targets, err = d.uint(64)
		case "probes":
			s.ProbesSent, err = d.uint(64)
		case "synacks":
			s.SynAcks, err = d.uint(64)
		case "rsts":
			s.Rsts, err = d.uint(64)
		case "invalid":
			s.Invalid, err = d.uint(64)
		case "records":
			err = d.array(func() error {
				if d.fastRecords(s) {
					return nil
				}
				return d.record(s)
			})
		case "banners":
			// Banners go straight onto their column, as indices into the
			// scan's dictionary (built in file order); the records —
			// normally already read — have sized the column.
			s.banner = slices.Grow(s.banner, max(0, s.addrs.len()-len(s.banner)))
			err = d.array(func() error {
				if d.next() != '"' {
					return d.errAt("banner string")
				}
				b, err := d.str()
				if err != nil {
					return err
				}
				// The lookup reads b in place; only a new banner is
				// copied out of the window.
				k, ok := s.bannerIdx[string(b)]
				if !ok {
					k = s.intern(string(b))
				}
				s.banner = append(s.banner, k)
				return nil
			})
		default:
			err = d.skip(0)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Banners pair with rows by position and either list may be the
	// longer; the column ends with one entry per row, and the row columns
	// with no spare capacity.
	n := s.addrs.len()
	if len(s.banner) > n {
		s.banner = s.banner[:n]
	}
	s.banner = append(s.banner, make([]uint32, n-len(s.banner))...)
	s.resizeRows(n)
	return s, nil
}

// resizeRows moves the two columns a decoded record appends to into arrays
// of exactly n rows' capacity: doubled while a scan of unknown length is
// read (so a scan costs a handful of allocations, not one per
// append-doubling), then cut to size. The address column keeps its width:
// IPv4 records go on as 4-byte values, and the first IPv6 one widens it.
func (s *ScanResult) resizeRows(n int) {
	if n == s.addrs.cap() {
		return
	}
	s.addrs.setCap(n)
	s.rows = append(make([]row, 0, n), s.rows...)
}

// recordFields names each tuple element after the address and gives its
// column's width. Flags is read at full width because unknown flag bits
// are masked off, not refused.
var recordFields = [...]struct {
	name string
	bits uint
}{1: {"probeMask", 8}, 2: {"flags", 64}, 3: {"fail", 8}, 4: {"attempts", 31}, 5: {"tNanos", 63}}

// record consumes one [addr, probeMask, flags, fail, attempts, tNanos]
// tuple into the scan's columns. Short tuples zero-fill; elements past the
// sixth must be unsigned integers and are dropped.
func (d *decoder) record(s *ScanResult) error {
	var addr ip.Addr
	var rec [len(recordFields)]uint64
	n := 0
	err := d.seq('[', ']', func() (err error) {
		switch {
		case n == 0 && d.next() == '"':
			// IPv6: canonical text on the wire, any RFC 4291 text read.
			var b []byte
			if b, err = d.str(); err == nil {
				if addr, err = ip.ParseAddrBytes(b); err != nil {
					err = fmt.Errorf("byte %d: %w", d.base+int64(d.pos), err)
				}
			}
		case n == 0:
			// IPv4 keeps the historical bare-integer encoding.
			var u uint64
			u, err = d.uint(32)
			addr = ip.AddrFrom4(uint32(u))
		case n < len(rec):
			if rec[n], err = d.uint(recordFields[n].bits); err != nil {
				err = fmt.Errorf("%s: %w", recordFields[n].name, err)
			}
		default:
			_, err = d.uint(64)
		}
		n++
		return err
	})
	if err != nil {
		return fmt.Errorf("record %d: %w", s.addrs.len(), err)
	}
	s.appendRecord(addr, &rec)
	return nil
}

// appendRecord appends one decoded tuple to the scan's columns.
func (s *ScanResult) appendRecord(addr ip.Addr, rec *[len(recordFields)]uint64) {
	if n := s.addrs.len(); n == s.addrs.cap() {
		s.resizeRows(max(1024, 2*n))
	}
	s.addrs.append(addr)
	s.rows = append(s.rows, row{
		t:         time.Duration(rec[5]),
		attempts:  int32(rec[4]),
		probeMask: uint8(rec[1]),
		flags:     uint8(rec[2] & (flagRST | flagL7)),
		fail:      zgrab.FailMode(rec[3]),
	})
}

// fastRecords consumes, from the cursor, the longest run of records that
// sit whole in the window in the form WriteJSON gives them — six elements,
// no whitespace, plain-text IPv6 addresses, numbers in their columns'
// ranges — joined by bare commas, and leaves the cursor after the last.
// It reports whether it consumed any. Everything else is record's: a
// short or long tuple, whitespace, an escape, a record the window's end
// splits, and every error; so a record is either taken whole here or
// read by record as though this routine did not exist.
func (d *decoder) fastRecords(s *ScanResult) bool {
	b := d.buf[:d.end]
	start := d.pos
	var rec [len(recordFields)]uint64
	for i := d.pos; ; {
		addr, end, ok := fastRecord(b, i, &rec)
		if !ok {
			break
		}
		s.appendRecord(addr, &rec)
		d.pos = end
		if end == len(b) || b[end] != ',' {
			break
		}
		i = end + 1
	}
	return d.pos != start
}

// fastRecord parses the record at b[i] for fastRecords into rec, and
// returns its address and the index after its closing bracket.
func fastRecord(b []byte, i int, rec *[len(recordFields)]uint64) (ip.Addr, int, bool) {
	if i == len(b) || b[i] != '[' {
		return ip.Addr{}, 0, false
	}
	i++
	var addr ip.Addr
	if i < len(b) && b[i] == '"' {
		j := i + 1
		for j < len(b) && plainByte[b[j]] {
			j++
		}
		if j == len(b) || b[j] != '"' {
			return ip.Addr{}, 0, false
		}
		a, err := ip.ParseAddrBytes(b[i+1 : j])
		if err != nil {
			return ip.Addr{}, 0, false
		}
		addr, i = a, j+1
	} else {
		v, j, ok := fastUint(b, i, 32)
		if !ok {
			return ip.Addr{}, 0, false
		}
		addr, i = ip.AddrFrom4(uint32(v)), j
	}
	for n := 1; n < len(rec); n++ {
		if i == len(b) || b[i] != ',' {
			return ip.Addr{}, 0, false
		}
		v, j, ok := fastUint(b, i+1, recordFields[n].bits)
		if !ok {
			return ip.Addr{}, 0, false
		}
		rec[n], i = v, j
	}
	if i == len(b) || b[i] != ']' {
		return ip.Addr{}, 0, false
	}
	return addr, i + 1, true
}

// fastUint parses the unsigned integer at b[i] for fastRecord: one to 19
// digits (so no overflow is possible), no leading zero, and a value that
// fits the given width. It returns the index after the last digit.
func fastUint(b []byte, i int, bits uint) (uint64, int, bool) {
	j := i
	var v uint64
	for j < len(b) && b[j]-'0' <= 9 {
		v = v*10 + uint64(b[j]-'0')
		j++
	}
	if j == i || j-i > 19 || (b[i] == '0' && j-i > 1) || v>>bits != 0 {
		return 0, 0, false
	}
	return v, j, true
}
