// Package zgrab implements the application-layer handshake grabbers the
// study runs against every L4-responsive host: an HTTP GET /, a TLS 1.2
// handshake with Chrome's cipher suites, and an SSH handshake that
// terminates after the protocol version exchange — the same three grabs the
// paper performs with ZGrab. Exchange speaks real protocol bytes over any
// net.Conn and classifies failures the way the paper's analysis needs them
// (timeout vs refused vs reset vs closed-before-banner). GrabFast runs a
// grab's retry loop against a Dialer, whose Handshake answers an accepted
// connection with the Result such an exchange ends in.
package zgrab

import (
	"context"
	"errors"
	"io"
	"net"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sshwire"
	"repro/internal/telemetry"
	"repro/internal/tlslite"
	"repro/internal/vconn"
	"repro/internal/wirebuf"
)

// FailMode classifies why a grab failed; §6 of the paper distinguishes
// hosts that drop connections from hosts that explicitly close or reset.
type FailMode uint8

const (
	FailNone    FailMode = iota
	FailTimeout          // connection or read timed out / silently dropped
	FailRefused          // TCP connection refused (RST to SYN)
	FailReset            // connection reset after establishment
	FailClosed           // closed (FIN) before the protocol banner
	FailProto            // peer spoke, but not the protocol
)

var failNames = [...]string{"none", "timeout", "refused", "reset", "closed", "proto"}

// String returns the failure-mode name.
func (f FailMode) String() string {
	if int(f) < len(failNames) {
		return failNames[f]
	}
	return "fail(?)"
}

// Result is the outcome of one grab.
type Result struct {
	Proto    proto.Protocol
	Success  bool
	Fail     FailMode
	Banner   string // server software: HTTP Server header, SSH version, TLS suite
	Attempts int    // connection attempts GrabFast used (≥1; Exchange leaves 0)
}

// DialVerdict is a dial decision computed without opening a connection:
// the grab stage evaluates a whole window's routing, churn, policy/IDS,
// path, and handshake-loss checks up front, so the ~80% of attempts that
// die at L4 never touch connection setup.
type DialVerdict uint8

const (
	// DialTimeout: the connection would hang (unrouted, offline, silent
	// policy, IDS block, path down, or handshake loss).
	DialTimeout DialVerdict = iota
	// DialRefused: the SYN would draw an RST (refusing policy or closed
	// port on a live host).
	DialRefused
	// DialReset: accepted, then reset before the application speaks
	// (policy.ResetAfterAccept — the Alibaba SSH signature).
	DialReset
	// DialHalfClose: accepted, then FIN before the application speaks
	// (policy.CloseAfterAccept — the MaxStartups signature).
	DialHalfClose
	// DialConnect: accepted and served.
	DialConnect
)

// Dialer is the transport a Grabber grabs through; the simulation fabric
// implements it. Verdicts are precomputed per window (PredialBatch) or per
// retry attempt (Predial), and Handshake answers an accepting verdict with
// the application handshake's outcome: the Result an Exchange over that
// connection ends in, with no connection opened.
type Dialer interface {
	// Predial evaluates one dial without connecting — a grab's retry
	// attempts, one call each. Safe for concurrent use.
	Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) DialVerdict
	// PredialBatch evaluates attempt 0 for a whole window of
	// destinations into out (len(out) == len(dsts) == len(ts)). Batching
	// lets the implementation resolve routing in bulk. NOT safe for
	// concurrent use with itself — one caller owns the window.
	PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []DialVerdict)
	// Handshake is the grab's outcome for an accepting verdict (DialReset,
	// DialHalfClose, or DialConnect): FailNone and the banner Exchange
	// would record, or the failure mode the exchange would end in.
	Handshake(dst ip.Addr, p proto.Protocol, v DialVerdict) (FailMode, string)
}

// Grabber runs grabs through a Dialer with a retry budget.
type Grabber struct {
	Dialer Dialer
	// Retries is the number of additional connection attempts after a
	// failed handshake (0 = single attempt). The paper's §6 experiment
	// retries SSH up to 8 times.
	Retries int
	// Key derives Exchange's TLS client randoms. GrabFast opens no
	// connection and ignores it.
	Key rng.Key
	// IOTimeout bounds each Exchange on its connection (default 10s when
	// zero or negative; virtual connections complete instantly so it
	// rarely matters). GrabFast ignores it.
	IOTimeout time.Duration
	// Metrics, when set, counts dials, handshakes, retries, and failure
	// modes for this grabber's scan. The grab path is per-host, so each
	// attempt updates the (atomic, nil-safe) counters directly; it never
	// reads the clock.
	Metrics *telemetry.GrabMetrics
}

// count records one attempt's outcome into the grabber's metric bundle.
// All instrument methods are nil-safe, so a disabled bundle costs one nil
// check here.
func (g *Grabber) count(res *Result, attempt int) {
	m := g.Metrics
	if m == nil {
		return
	}
	m.Dials.Inc()
	if attempt > 0 {
		m.Retries.Inc()
	}
	if res.Success {
		m.Handshakes.Inc()
		return
	}
	switch res.Fail {
	case FailRefused:
		m.Refused.Inc()
	case FailReset:
		m.Resets.Inc()
	case FailTimeout:
		m.Timeouts.Inc()
	case FailClosed:
		m.Closed.Inc()
	case FailProto:
		m.ProtoErrs.Inc()
	}
}

// defaultIOTimeout is IOTimeout's documented default.
const defaultIOTimeout = 10 * time.Second

// scratch is what one exchange runs on: the client flight is built in out,
// the server flight accumulates in rd's arena, and the parsed messages are
// views into that arena, valid until the exchange returns; a Result's
// Banner is a copy.
type scratch struct {
	out  []byte
	rd   wirebuf.Reader
	addr [48]byte // the destination's address text, formatted once
	resp httpwire.Response
	hr   tlslite.HandshakeReader
	ch   tlslite.ClientHello
}

// Exchange runs p's application-layer handshake with dst on an established
// connection, bounded by IOTimeout, and returns what it ends in: FailNone
// and the server's software, or the failure mode. The caller closes conn.
// Attempts is left zero: counting attempts is GrabFast's.
func (g *Grabber) Exchange(conn net.Conn, p proto.Protocol, dst ip.Addr) Result {
	timeout := g.IOTimeout
	if timeout <= 0 {
		timeout = defaultIOTimeout
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	res := Result{Proto: p}
	var sc scratch
	sc.rd.Reset(conn)
	switch p {
	case proto.HTTP:
		grabHTTP(&sc, conn, dst, &res)
	case proto.HTTPS:
		grabTLS(&sc, conn, dst, g.Key, &res)
	case proto.SSH:
		grabSSH(&sc, conn, &res)
	}
	return res
}

// GrabFast performs the grab for p against dst at virtual time t, retrying
// per the grabber's budget. v is attempt 0's verdict, precomputed by
// PredialBatch over the grab window; retry attempts re-evaluate through
// Predial (verdicts depend on the attempt number — MaxStartups hosts admit
// immediate retries), and an accepted attempt's outcome is the dialer's
// Handshake. A canceled context stops the retry loop after the in-flight
// attempt; the last attempt's (failed) result is returned so the caller,
// which is being torn down anyway, still sees a well-formed value.
func (g *Grabber) GrabFast(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration, v DialVerdict) Result {
	var last Result
	for attempt := 0; attempt <= g.Retries; attempt++ {
		last = g.try(ctx, p, dst, t, attempt, v)
		last.Attempts = attempt + 1
		g.count(&last, attempt)
		// Refused and timed-out connections are retried like any other
		// failure: §6 shows immediate retries recover MaxStartups hosts.
		if last.Success || ctx.Err() != nil {
			return last
		}
	}
	return last
}

// try is one attempt: attempt 0 takes v, a retry asks Predial.
func (g *Grabber) try(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration, attempt int, v DialVerdict) Result {
	res := Result{Proto: p}
	// A canceled context fails the dial, classified as a timeout: the
	// connection never completes, which on the wire is indistinguishable
	// from one. (The record is discarded with the canceled scan.)
	if ctx.Err() != nil {
		res.Fail = FailTimeout
		return res
	}
	if attempt > 0 {
		v = g.Dialer.Predial(dst, p.Port(), t, attempt)
	}
	switch v {
	case DialTimeout:
		res.Fail = FailTimeout
	case DialRefused:
		res.Fail = FailRefused
	default:
		res.Fail, res.Banner = g.Dialer.Handshake(dst, p, v)
		res.Success = res.Fail == FailNone
	}
	return res
}

// classifyIOError maps a mid-handshake error to a failure mode.
func classifyIOError(err error, sawBytes bool) FailMode {
	switch {
	case err == nil:
		return FailNone
	case errors.Is(err, vconn.ErrReset):
		return FailReset
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		if sawBytes {
			return FailProto
		}
		return FailClosed
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return FailTimeout
		}
		return FailReset
	}
}

// maxHTTPBody caps how much of a response body a grab reads.
const maxHTTPBody = 16 << 10

// grabHTTP sends GET / and requires a parseable status line.
func grabHTTP(sc *scratch, conn net.Conn, dst ip.Addr, res *Result) {
	sc.out = httpwire.AppendRequest(sc.out[:0], "GET", "/", dst.AppendTo(sc.addr[:0]), "Mozilla/5.0 zgrab/0.x")
	if _, err := conn.Write(sc.out); err != nil {
		res.Fail = classifyIOError(err, false)
		return
	}
	if err := httpwire.ReadResponse(&sc.rd, &sc.resp, maxHTTPBody); err != nil {
		if errors.Is(err, httpwire.ErrMalformed) || errors.Is(err, httpwire.ErrLineTooLong) {
			res.Fail = FailProto
			return
		}
		// The parser reports an I/O error only once every received byte
		// has been consumed (an unterminated last line still parses), so a
		// peer that goes away mid-head counts as closed, not as speaking
		// another protocol — as it always has.
		res.Fail = classifyIOError(err, false)
		return
	}
	res.Success = true
	if sv, ok := sc.resp.Get("Server"); ok {
		res.Banner = string(sv)
	}
}

// grabTLS sends a Chrome-shaped ClientHello and requires a parseable
// ServerHello (the paper's handshake capture).
func grabTLS(sc *scratch, conn net.Conn, dst ip.Addr, key rng.Key, res *Result) {
	tlslite.InitClientHello(&sc.ch, key.DeriveN("ch", dst.Word64()), dst.AppendTo(sc.addr[:0]))
	var err error
	if sc.out, err = tlslite.AppendClientHello(sc.out[:0], &sc.ch); err == nil {
		_, err = conn.Write(sc.out)
	}
	if err != nil {
		res.Fail = classifyIOError(err, false)
		return
	}
	sc.hr.Reset(&sc.rd)
	typ, body, err := sc.hr.Next()
	if err != nil {
		if errors.Is(err, tlslite.ErrAlert) || errors.Is(err, tlslite.ErrMalformed) {
			res.Fail = FailProto
			return
		}
		res.Fail = classifyIOError(err, false)
		return
	}
	if typ != tlslite.TypeServerHello {
		res.Fail = FailProto
		return
	}
	var sh tlslite.ServerHello
	if err := tlslite.ParseServerHello(body, &sh); err != nil {
		res.Fail = FailProto
		return
	}
	res.Success = true
	res.Banner = tlslite.SuiteName(sh.CipherSuite)
	// Drain the rest of the server flight (Certificate, HelloDone) so
	// the server sees an orderly close; errors here don't matter.
	for i := 0; i < 4; i++ {
		if typ, _, err := sc.hr.Next(); err != nil || typ == tlslite.TypeServerHelloDone {
			break
		}
	}
}

// grabSSH performs the version exchange: write our ID, read the server's.
// Success is a parsed server identification, per the paper's methodology
// ("a partial SSH handshake that terminates after the protocol version
// exchange").
func grabSSH(sc *scratch, conn net.Conn, res *Result) {
	var err error
	if sc.out, err = sshwire.AppendID(sc.out[:0], "2.0", "zgrab_ssh_0.x", ""); err == nil {
		_, err = conn.Write(sc.out)
	}
	if err != nil {
		res.Fail = classifyIOError(err, false)
		return
	}
	id, err := sshwire.ReadID(&sc.rd)
	if err != nil {
		if errors.Is(err, sshwire.ErrNotSSH) || errors.Is(err, sshwire.ErrIDTooLong) {
			res.Fail = FailProto
			return
		}
		// Any received byte distinguishes a peer that spoke a different
		// protocol (FailProto) from one that closed before speaking
		// (FailClosed).
		res.Fail = classifyIOError(err, sc.rd.Received() > 0)
		return
	}
	res.Success = true
	res.Banner = string(id.SoftwareVersion)
}
