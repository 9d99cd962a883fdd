package wirebuf

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// chunked delivers p in reads of at most n bytes.
type chunked struct {
	p []byte
	n int
}

func (c *chunked) Read(b []byte) (int, error) {
	if len(c.p) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.p[:min(c.n, len(c.p))])
	c.p = c.p[n:]
	return n, nil
}

func TestFillGrowsAndKeepsViews(t *testing.T) {
	src := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB: several doublings
	var rd Reader
	rd.Reset(&chunked{p: src, n: 700})
	if err := rd.Fill(); err != nil {
		t.Fatal(err)
	}
	early := rd.Unread()[:16] // a view taken before the arena grows
	rd.Advance(16)
	for rd.Fill() == nil {
	}
	if rd.Received() != len(src) || !bytes.Equal(rd.Unread(), src[16:]) {
		t.Fatalf("received %d bytes, %d unread", rd.Received(), len(rd.Unread()))
	}
	if !bytes.Equal(early, src[:16]) {
		t.Errorf("view taken before growth now reads %q", early)
	}
	if err := rd.Fill(); err != io.EOF {
		t.Errorf("Fill after EOF = %v, want the sticky io.EOF", err)
	}
}

func TestResetBytesParsesInPlace(t *testing.T) {
	flight := []byte("a complete flight")
	var rd Reader
	rd.ResetBytes(flight)
	if &rd.Unread()[0] != &flight[0] {
		t.Error("ResetBytes copied the flight")
	}
	if err := rd.Need(len(flight)); err != nil {
		t.Fatal(err)
	}
	if err := rd.Need(len(flight) + 1); err != io.ErrUnexpectedEOF {
		t.Errorf("Need past the flight = %v, want io.ErrUnexpectedEOF", err)
	}
	rd.Advance(len(flight))
	if err := rd.Need(1); err != io.EOF {
		t.Errorf("Need on a drained flight = %v, want io.EOF", err)
	}
}

func TestNeedHasReadFullErrors(t *testing.T) {
	boom := errors.New("boom")
	for name, tc := range map[string]struct {
		src  io.Reader
		need int
		want error
	}{
		"enough":           {bytes.NewReader([]byte("abcdef")), 4, nil},
		"nothing needed":   {bytes.NewReader(nil), 0, nil},
		"closed":           {bytes.NewReader(nil), 4, io.EOF},
		"closed part-way":  {bytes.NewReader([]byte("ab")), 4, io.ErrUnexpectedEOF},
		"byte at a time":   {iotest.OneByteReader(bytes.NewReader([]byte("abcdef"))), 6, nil},
		"data with EOF":    {iotest.DataErrReader(bytes.NewReader([]byte("abcd"))), 4, nil},
		"error after data": {io.MultiReader(bytes.NewReader([]byte("ab")), iotest.ErrReader(boom)), 4, boom},
		"stalled source":   {stalled{}, 1, io.ErrNoProgress},
	} {
		var rd Reader
		rd.Reset(tc.src)
		if err := rd.Need(tc.need); err != tc.want {
			t.Errorf("%s: Need(%d) = %v, want %v", name, tc.need, err, tc.want)
		}
	}
}

type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, nil }

// TestErrorHeldBackUntilDataOffered: bytes that arrive together with an
// error are offered first, the error on the next Fill — as bufio does.
func TestErrorHeldBackUntilDataOffered(t *testing.T) {
	boom := errors.New("boom")
	var rd Reader
	rd.Reset(iotest.DataErrReader(io.MultiReader(bytes.NewReader([]byte("tail")), iotest.ErrReader(boom))))
	if err := rd.Fill(); err != nil || string(rd.Unread()) != "tail" {
		t.Fatalf("first Fill: %q, %v", rd.Unread(), err)
	}
	if err := rd.Fill(); err != boom {
		t.Errorf("second Fill = %v, want boom", err)
	}
}

func TestResetReusesArenaUpToCap(t *testing.T) {
	var rd Reader
	rd.Reset(bytes.NewReader(make([]byte, 3000)))
	for rd.Fill() == nil {
	}
	src := bytes.NewReader(make([]byte, 3000))
	if n := testing.AllocsPerRun(50, func() {
		src.Seek(0, io.SeekStart)
		rd.Reset(src)
		for rd.Fill() == nil {
		}
	}); n != 0 {
		t.Errorf("refilling a grown arena allocates %v times", n)
	}
	kept := cap(rd.own)
	if kept < 3000 {
		t.Fatalf("arena not kept across Reset: cap %d", kept)
	}

	// A hostile flight's arena is not kept.
	rd.Reset(bytes.NewReader(make([]byte, 3*maxRetained)))
	for rd.Fill() == nil {
	}
	rd.Reset(nil)
	if cap(rd.own) > maxRetained {
		t.Errorf("Reset kept a %d-byte arena", cap(rd.own))
	}
}
