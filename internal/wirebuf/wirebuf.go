// Package wirebuf is the read side of an L7 exchange: one append-only byte
// arena that the wire parsers (httpwire, tlslite, sshwire) fill from a
// connection and consume in place. Parsed messages are views into the
// arena — header names, banner strings, handshake bodies — so parsing a
// peer's flight allocates nothing once the arena has grown to the size of
// a typical flight.
//
// Ownership rule: the arena only ever appends between two Resets (growth
// copies to a new array and leaves the old one intact), so every view a
// parser hands out stays valid until the Reader is reset for the next
// exchange. Whoever keeps bytes past that point copies them.
package wirebuf

import "io"

// Reader buffers one peer's flight. The zero value is ready for Reset.
type Reader struct {
	src io.Reader // nil: buf already holds every byte there will be
	err error     // sticky source error, reported once buf is drained
	own []byte    // the reusable arena behind Reset
	buf []byte    // buf[:w] is everything received, buf[r:w] is unread
	r   int
	w   int
}

const (
	initialSize = 1 << 10
	// maxRetained bounds the arena a pooled Reader keeps between
	// exchanges: one hostile multi-hundred-KiB flight must not pin its
	// buffer for the rest of the study.
	maxRetained = 64 << 10
	// maxEmptyReads mirrors bufio: a source that keeps returning (0, nil)
	// is broken, not slow.
	maxEmptyReads = 100
)

// Reset starts a new exchange reading from src, reusing the arena. Views
// into the previous exchange are invalid from here on.
func (b *Reader) Reset(src io.Reader) {
	if cap(b.own) > maxRetained {
		b.own = nil
	}
	b.src, b.err = src, nil
	b.buf = b.own[:cap(b.own)]
	b.r, b.w = 0, 0
}

// ResetBytes starts a new exchange over a flight that is already complete:
// p is parsed in place, and reading past it reports io.EOF — what a server
// sees once the client has stopped writing.
func (b *Reader) ResetBytes(p []byte) {
	b.src, b.err = nil, nil
	b.buf = p
	b.r, b.w = 0, len(p)
}

// Unread returns the received bytes not yet consumed.
func (b *Reader) Unread() []byte { return b.buf[b.r:b.w] }

// Advance consumes n unread bytes.
func (b *Reader) Advance(n int) { b.r += n }

// Received reports how many bytes the peer has sent so far.
func (b *Reader) Received() int { return b.w }

// Fill reads more bytes from the source, growing the arena when it is
// full. It returns nil once at least one new byte is unread, and the
// source's error (io.EOF for an orderly close) once nothing more will come.
// An error delivered together with data is held back until that data has
// been offered, as bufio does.
func (b *Reader) Fill() error {
	if b.err != nil {
		return b.err
	}
	if b.src == nil {
		b.err = io.EOF
		return b.err
	}
	if b.w == len(b.buf) {
		size := 2 * len(b.buf)
		if size < initialSize {
			size = initialSize
		}
		grown := make([]byte, size)
		copy(grown, b.buf[:b.w])
		b.buf, b.own = grown, grown
	}
	for i := 0; i < maxEmptyReads; i++ {
		n, err := b.src.Read(b.buf[b.w:])
		b.w += n
		if err != nil {
			b.err = err
			if n > 0 {
				return nil
			}
			return err
		}
		if n > 0 {
			return nil
		}
	}
	b.err = io.ErrNoProgress
	return b.err
}

// Need blocks until n bytes are unread, with io.ReadFull's error contract:
// io.EOF if the stream ended with none of them, io.ErrUnexpectedEOF if it
// ended part-way, any other source error as is.
func (b *Reader) Need(n int) error {
	for b.w-b.r < n {
		if err := b.Fill(); err != nil {
			if err == io.EOF && b.w > b.r {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
