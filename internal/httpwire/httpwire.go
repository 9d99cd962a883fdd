// Package httpwire implements the minimal HTTP/1.1 client and server wire
// exchange used by the study's HTTP grabs: the client sends GET / and reads
// the status line, headers, and a bounded body; the server parses a request
// and writes a response. It deliberately implements the wire format directly
// (rather than net/http) so the grab works over any net.Conn — including the
// simulation fabric's virtual connections — with strict bounds on what is
// read from untrusted peers.
//
// Encoders append to a caller-owned buffer; parsers fill a caller-owned,
// reusable message whose fields are views into the wirebuf.Reader's arena
// (valid until that Reader is reset), so an exchange allocates nothing.
package httpwire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"

	"repro/internal/wirebuf"
)

// Limits on untrusted input.
const (
	MaxLineLen     = 8 << 10  // max request/status/header line
	MaxHeaderLen   = 32 << 10 // max total header block
	MaxHeaders     = 100
	DefaultMaxBody = 64 << 10
)

// Errors.
var (
	ErrLineTooLong    = errors.New("httpwire: line too long")
	ErrTooManyHeaders = errors.New("httpwire: too many headers")
	ErrMalformed      = errors.New("httpwire: malformed message")
)

// Header is one header field to send.
type Header struct {
	Name, Value string
}

// Field is one parsed header field: views into the arena.
type Field struct {
	Name, Value []byte
}

// Request is a parsed HTTP request (server side). Reuse one across
// exchanges: ReadRequest overwrites every field and recycles Fields.
type Request struct {
	Method []byte
	Target []byte
	Proto  []byte
	Fields []Field
}

// Response is a parsed HTTP response (client side). Reuse one across
// exchanges: ReadResponse overwrites every field and recycles Fields.
type Response struct {
	Proto      []byte
	StatusCode int
	Status     []byte
	Fields     []Field
	Body       []byte // bounded; may be truncated at the configured cap
}

// getField returns the first field with the given name, case-insensitively.
func getField(fs []Field, name string) ([]byte, bool) {
	want := []byte(name) // does not escape: short names convert on the stack
	for _, f := range fs {
		if bytes.EqualFold(f.Name, want) {
			return f.Value, true
		}
	}
	return nil, false
}

// Get returns the first value of a response header.
func (r *Response) Get(name string) ([]byte, bool) { return getField(r.Fields, name) }

// Get returns the first value of a request header.
func (r *Request) Get(name string) ([]byte, bool) { return getField(r.Fields, name) }

// AppendRequest appends a GET-style request to dst. host appears in the
// Host header, as ZGrab sends the target IP.
func AppendRequest(dst []byte, method, target string, host []byte, userAgent string) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, target...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\n"...)
	if userAgent != "" {
		dst = append(dst, "User-Agent: "...)
		dst = append(dst, userAgent...)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "Accept: */*\r\nConnection: close\r\n\r\n"...)
}

// ReadRequest parses a request head from rd into req (server side).
func ReadRequest(rd *wirebuf.Reader, req *Request) error {
	line, err := readLine(rd)
	if err != nil {
		return err
	}
	method, rest, ok := bytes.Cut(line, space)
	target, proto, ok2 := bytes.Cut(rest, space)
	if !ok || !ok2 || !bytes.HasPrefix(proto, httpSlash) {
		return ErrMalformed
	}
	req.Method, req.Target, req.Proto = method, target, proto
	req.Fields, err = readFields(rd, req.Fields[:0])
	return err
}

// AppendResponse appends a complete response with the given headers and
// body to dst. Content-Length is supplied unless headers carries one.
func AppendResponse(dst []byte, statusCode int, status string, headers []Header, body []byte) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(statusCode), 10)
	dst = append(dst, ' ')
	dst = append(dst, status...)
	dst = append(dst, "\r\n"...)
	hasLen := false
	for _, h := range headers {
		if strings.EqualFold(h.Name, "Content-Length") {
			hasLen = true
		}
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	if !hasLen {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "Connection: close\r\n\r\n"...)
	return append(dst, body...)
}

// ReadResponse parses a response from rd into resp, reading at most
// maxBody bytes of body (0 means DefaultMaxBody).
func ReadResponse(rd *wirebuf.Reader, resp *Response, maxBody int) error {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	line, err := readLine(rd)
	if err != nil {
		return err
	}
	proto, rest, ok := bytes.Cut(line, space)
	if !ok || !bytes.HasPrefix(proto, httpSlash) {
		return ErrMalformed
	}
	codeText, status, _ := bytes.Cut(rest, space)
	code, err := strconv.Atoi(string(codeText))
	if err != nil || code < 100 || code > 999 {
		return ErrMalformed
	}
	resp.Proto, resp.StatusCode, resp.Status = proto, code, status
	resp.Body = nil
	resp.Fields, err = readFields(rd, resp.Fields[:0])
	if err != nil {
		return err
	}

	// Body: honor Content-Length if present and sane, else read to EOF,
	// always bounded by maxBody.
	limit := maxBody
	if v, ok := resp.Get("Content-Length"); ok {
		if n, err := strconv.Atoi(string(bytes.TrimSpace(v))); err == nil && n >= 0 && n < limit {
			limit = n
		}
	}
	for len(rd.Unread()) < limit {
		if err := rd.Fill(); err != nil {
			// Connection errors after the head still yield the head: a
			// grab that got the status line succeeded.
			if err == io.EOF || isConnError(err) {
				break
			}
			return err
		}
	}
	body := rd.Unread()
	if len(body) > limit {
		body = body[:limit]
	}
	rd.Advance(len(body))
	resp.Body = body
	return nil
}

var (
	space     = []byte(" ")
	httpSlash = []byte("HTTP/")
)

func isConnError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.ErrUnexpectedEOF)
}

// readLine returns the next line without its LF or CRLF terminator. A
// stream that ends (for any reason) after an unterminated, non-empty line
// yields that line; the error surfaces on the next call, once nothing is
// left to parse.
func readLine(rd *wirebuf.Reader) ([]byte, error) {
	scanned := 0
	for {
		u := rd.Unread()
		if i := bytes.IndexByte(u[scanned:], '\n'); i >= 0 {
			i += scanned
			line := u[:i]
			if i > 0 && line[i-1] == '\r' {
				line = line[:i-1]
			}
			if len(line) > MaxLineLen {
				return nil, ErrLineTooLong
			}
			rd.Advance(i + 1)
			return line, nil
		}
		scanned = len(u)
		// No terminator yet: stop buffering as soon as no continuation
		// could fit (a trailing CR may still turn out to be half of the
		// terminator).
		if len(u) > MaxLineLen+1 || (len(u) == MaxLineLen+1 && u[len(u)-1] != '\r') {
			return nil, ErrLineTooLong
		}
		if err := rd.Fill(); err != nil {
			if len(u) == 0 {
				return nil, err
			}
			if len(u) > MaxLineLen {
				return nil, ErrLineTooLong
			}
			rd.Advance(len(u))
			return u, nil
		}
	}
}

// readFields parses header lines up to the blank line into fs.
func readFields(rd *wirebuf.Reader, fs []Field) ([]Field, error) {
	total := 0
	for {
		line, err := readLine(rd)
		if err != nil {
			return fs, err
		}
		if len(line) == 0 {
			return fs, nil
		}
		total += len(line)
		if total > MaxHeaderLen {
			return fs, ErrTooManyHeaders
		}
		if len(fs) >= MaxHeaders {
			return fs, ErrTooManyHeaders
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return fs, ErrMalformed
		}
		fs = append(fs, Field{
			Name:  bytes.TrimSpace(line[:colon]),
			Value: bytes.TrimSpace(line[colon+1:]),
		})
	}
}
