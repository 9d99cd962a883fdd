package httpwire

// The parser this package shipped before the append-style rewrite — bufio,
// strings.Builder and strings.SplitN, allocating per line — kept verbatim as
// the oracle the differential and fuzz tests hold the new parser to: same
// accept/reject, same sentinel error, same parsed fields.

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// oracleRequest is a parsed HTTP request (server side).
type oracleRequest struct {
	Method  string
	Target  string
	Proto   string
	Headers []Header
}

// oracleResponse is a parsed HTTP response (client side).
type oracleResponse struct {
	Proto      string
	StatusCode int
	Status     string
	Headers    []Header
	Body       []byte // bounded; may be truncated at the configured cap
}

// Get returns the first header with the given name, case-insensitively.
func oracleGetHeader(hs []Header, name string) (string, bool) {
	for _, h := range hs {
		if strings.EqualFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// Get returns the first value of a response header.
func (r *oracleResponse) Get(name string) (string, bool) { return oracleGetHeader(r.Headers, name) }

// Get returns the first value of a request header.
func (r *oracleRequest) Get(name string) (string, bool) { return oracleGetHeader(r.Headers, name) }

// oracleReadRequest parses a request head from r (server side).
func oracleReadRequest(br *bufio.Reader) (*oracleRequest, error) {
	line, err := oracleReadLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, ErrMalformed
	}
	req := &oracleRequest{Method: parts[0], Target: parts[1], Proto: parts[2]}
	req.Headers, err = oracleReadHeaders(br)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// oracleReadResponse parses a response from r, reading at most maxBody bytes of
// body (0 means DefaultMaxBody).
func oracleReadResponse(br *bufio.Reader, maxBody int) (*oracleResponse, error) {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	line, err := oracleReadLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, ErrMalformed
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 999 {
		return nil, ErrMalformed
	}
	resp := &oracleResponse{Proto: parts[0], StatusCode: code}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	resp.Headers, err = oracleReadHeaders(br)
	if err != nil {
		return nil, err
	}

	// Body: honor Content-Length if present and sane, else read to EOF,
	// always bounded by maxBody.
	limit := maxBody
	if v, ok := resp.Get("Content-Length"); ok {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= 0 && n < limit {
			limit = n
		}
	}
	body := make([]byte, 0, min(limit, 4096))
	buf := make([]byte, 4096)
	for len(body) < limit {
		n, err := br.Read(buf[:min(len(buf), limit-len(body))])
		body = append(body, buf[:n]...)
		if err != nil {
			if err == io.EOF {
				break
			}
			// Connection errors after the head still yield the
			// head: a grab that got the status line succeeded.
			if isConnError(err) {
				break
			}
			return nil, err
		}
	}
	resp.Body = body
	return resp, nil
}

func oracleReadLine(br *bufio.Reader) (string, error) {
	var b strings.Builder
	for {
		chunk, isPrefix, err := br.ReadLine()
		if err != nil {
			return "", err
		}
		if b.Len()+len(chunk) > MaxLineLen {
			return "", ErrLineTooLong
		}
		b.Write(chunk)
		if !isPrefix {
			return b.String(), nil
		}
	}
}

func oracleReadHeaders(br *bufio.Reader) ([]Header, error) {
	var hs []Header
	total := 0
	for {
		line, err := oracleReadLine(br)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return hs, nil
		}
		total += len(line)
		if total > MaxHeaderLen {
			return nil, ErrTooManyHeaders
		}
		if len(hs) >= MaxHeaders {
			return nil, ErrTooManyHeaders
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, ErrMalformed
		}
		hs = append(hs, Header{
			Name:  strings.TrimSpace(line[:colon]),
			Value: strings.TrimSpace(line[colon+1:]),
		})
	}
}
