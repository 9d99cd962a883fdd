// Package zgrab implements the application-layer handshake grabbers the
// study runs against every L4-responsive host: an HTTP GET /, a TLS 1.2
// handshake with Chrome's cipher suites, and an SSH handshake that
// terminates after the protocol version exchange — the same three grabs the
// paper performs with ZGrab. Grabbers speak real protocol bytes over any
// net.Conn and classify failures the way the paper's analysis needs them
// (timeout vs refused vs reset vs closed-before-banner).
package zgrab

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
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
	Attempts int    // connection attempts used (≥1)
}

// Dialer abstracts the transport: the simulation fabric implements it, and
// any dialer of real TCP can be adapted to it.
type Dialer interface {
	// Dial opens a connection to dst:port for the attempt-th try at
	// virtual time t. Implementations must respect ctx cancellation: a
	// canceled context fails the dial (the grabber classifies it as a
	// timeout and stops retrying).
	Dial(ctx context.Context, dst ip.Addr, port uint16, t time.Duration, attempt int) (net.Conn, error)
}

// Sentinel errors a Dialer can return to signal L4 failure modes.
var (
	ErrTimeout = errors.New("zgrab: connection timed out")
	ErrRefused = errors.New("zgrab: connection refused")
)

// DialVerdict is a dial decision computed without opening a connection:
// the batched fast path evaluates a whole grab window's routing, churn,
// policy/IDS, path, and handshake-loss checks up front, so the ~80% of
// attempts that die at L4 never touch connection setup.
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

// FastDialer is the batched fast path a Dialer may additionally support:
// verdicts are precomputed per window (PredialBatch) or per retry attempt
// (Predial), and Handshake answers a would-accept verdict with the
// application handshake's outcome directly — no connection, no bytes.
// Implementations must guarantee Predial+Handshake observe exactly the
// decision sequence Dial observes and answer what the host would say over
// the Dial connection, so GrabFast results are bit-identical to Grab.
type FastDialer interface {
	Dialer
	// Predial evaluates one dial without connecting — a grab's retry
	// attempts, one call each. Safe for concurrent use.
	Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) DialVerdict
	// PredialBatch evaluates attempt 0 for a whole window of
	// destinations into out (len(out) == len(dsts) == len(ts)). Batching
	// lets the implementation resolve routing in bulk. NOT safe for
	// concurrent use with itself — one caller owns the window.
	PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []DialVerdict)
	// Handshake is the grab's outcome for an accepting verdict (DialReset,
	// DialHalfClose, or DialConnect): FailNone and the banner the grabber
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
	// Key derives the client randoms for TLS.
	Key rng.Key
	// IOTimeout bounds each Grab exchange on its connection (default 10s
	// when zero or negative; virtual connections complete instantly so it
	// rarely matters). GrabFast opens no connection and ignores it.
	IOTimeout time.Duration
	// Metrics, when set, counts dials, handshakes, retries, and failure
	// modes for this grabber's scan. The grab path is per-host, so each
	// attempt updates the (atomic, nil-safe) counters directly.
	Metrics *telemetry.GrabMetrics
}

// dialed and handshook record one attempt's two latencies. Callers have
// checked Metrics. dialed returns the clock reading that ended the dial,
// where a handshake that follows begins.
func (g *Grabber) dialed(since time.Time) time.Time {
	now := time.Now()
	g.Metrics.DialSeconds.ObserveDuration(now.Sub(since))
	return now
}

func (g *Grabber) handshook(since time.Time) {
	g.Metrics.HandshakeSeconds.ObserveDuration(time.Since(since))
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

// Grab performs the grab for p against dst at virtual time t, retrying per
// the grabber's budget. A canceled context stops the retry loop after the
// in-flight attempt; the last attempt's (failed) result is returned so the
// caller, which is being torn down anyway, still sees a well-formed value.
func (g *Grabber) Grab(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration) Result {
	var last Result
	for attempt := 0; attempt <= g.Retries; attempt++ {
		// The clock is read only when a retry can follow: the main study
		// runs Retries = 0 and never observes RetrySeconds.
		var began time.Time
		if g.Metrics != nil && attempt < g.Retries {
			began = time.Now()
		}
		last = g.grabOnce(ctx, p, dst, t, attempt)
		last.Attempts = attempt + 1
		g.count(&last, attempt)
		if last.Success || ctx.Err() != nil {
			return last
		}
		// Refused and timed-out connections are retried like any
		// other failure: §6 shows immediate retries recover
		// MaxStartups hosts. RetrySeconds attributes the wall time
		// those extra attempts cost the grab stage.
		if g.Metrics != nil && attempt < g.Retries {
			g.Metrics.RetrySeconds.ObserveDuration(time.Since(began))
		}
	}
	return last
}

func (g *Grabber) grabOnce(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration, attempt int) Result {
	res := Result{Proto: p}
	// The dial vs handshake latency split reads the clock only with a
	// live bundle: a disabled grabber pays two nil checks per attempt.
	var dialStart time.Time
	if g.Metrics != nil {
		dialStart = time.Now()
	}
	conn, err := g.Dialer.Dial(ctx, dst, p.Port(), t, attempt)
	if g.Metrics != nil {
		g.dialed(dialStart)
	}
	if err != nil {
		res.Fail = classifyDialError(err)
		return res
	}
	defer conn.Close()
	timeout := g.IOTimeout
	if timeout <= 0 {
		timeout = defaultIOTimeout
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	g.exchange(conn, p, dst, &res)
	return res
}

// defaultIOTimeout is IOTimeout's documented default.
const defaultIOTimeout = 10 * time.Second

// scratch is what one exchange runs on: the client flight is built in out,
// the server flight accumulates in rd's arena, and the parsed messages are
// views into that arena. Pooled per exchange — found here rather than
// passed in, so neither Grab nor GrabFast grows a parameter. Views are valid
// until the exchange returns; whatever a Result keeps is interned or copied
// (see banner).
type scratch struct {
	out  []byte
	rd   wirebuf.Reader
	addr [48]byte // the destination's address text, formatted once
	resp httpwire.Response
	hr   tlslite.HandshakeReader
	ch   tlslite.ClientHello
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// exchange runs the application-layer handshake on an established
// connection: Grab's byte path.
func (g *Grabber) exchange(conn net.Conn, p proto.Protocol, dst ip.Addr, res *Result) {
	var hsStart time.Time
	if g.Metrics != nil {
		hsStart = time.Now()
	}
	sc := scratches.Get().(*scratch)
	sc.rd.Reset(conn)
	switch p {
	case proto.HTTP:
		grabHTTP(sc, conn, dst, res)
	case proto.HTTPS:
		grabTLS(sc, conn, dst, g.Key, res)
	case proto.SSH:
		grabSSH(sc, conn, res)
	}
	sc.rd.Reset(nil) // the pool must not pin the connection
	scratches.Put(sc)
	if g.Metrics != nil {
		g.handshook(hsStart)
	}
}

// GrabFast performs the grab for p against dst on the batched fast path:
// v is attempt 0's verdict, precomputed by PredialBatch over the grab
// window; retry attempts re-evaluate through Predial (verdicts depend on
// the attempt number — MaxStartups hosts admit immediate retries), and an
// accepted attempt's outcome is the dialer's typed Handshake, not an
// exchange of bytes. The retry loop, metric accounting, and failure
// classification mirror Grab exactly; the Dialer must implement FastDialer.
// Results are bit-identical to Grab (enforced by the fabric and experiment
// differential tests).
func (g *Grabber) GrabFast(ctx context.Context, p proto.Protocol, dst ip.Addr, t time.Duration, v DialVerdict) Result {
	fd := g.Dialer.(FastDialer)
	var last Result
	for attempt := 0; attempt <= g.Retries; attempt++ {
		// The clock is read only when a retry can follow: the main study
		// runs Retries = 0 and never observes RetrySeconds.
		var began time.Time
		if g.Metrics != nil && attempt < g.Retries {
			began = time.Now()
		}
		last = g.grabOnceFast(ctx, fd, p, dst, t, attempt, v)
		last.Attempts = attempt + 1
		g.count(&last, attempt)
		if last.Success || ctx.Err() != nil {
			return last
		}
		if g.Metrics != nil && attempt < g.Retries {
			g.Metrics.RetrySeconds.ObserveDuration(time.Since(began))
		}
	}
	return last
}

func (g *Grabber) grabOnceFast(ctx context.Context, fd FastDialer, p proto.Protocol, dst ip.Addr, t time.Duration, attempt int, v DialVerdict) Result {
	res := Result{Proto: p}
	var dialStart time.Time
	if g.Metrics != nil {
		dialStart = time.Now()
	}
	// The reference dial fails a canceled context immediately, classified
	// as a timeout; re-checked per attempt, like Dial is called per
	// attempt.
	if ctx.Err() != nil {
		res.Fail = FailTimeout
		if g.Metrics != nil {
			g.dialed(dialStart)
		}
		return res
	}
	if attempt > 0 {
		v = fd.Predial(dst, p.Port(), t, attempt)
	}
	if v == DialTimeout || v == DialRefused {
		if v == DialTimeout {
			res.Fail = FailTimeout
		} else {
			res.Fail = FailRefused
		}
		if g.Metrics != nil {
			g.dialed(dialStart)
		}
		return res
	}
	var hsStart time.Time
	if g.Metrics != nil {
		hsStart = g.dialed(dialStart)
	}
	res.Fail, res.Banner = fd.Handshake(dst, p, v)
	res.Success = res.Fail == FailNone
	if g.Metrics != nil {
		g.handshook(hsStart)
	}
	return res
}

func classifyDialError(err error) FailMode {
	switch {
	case errors.Is(err, ErrRefused):
		return FailRefused
	case errors.Is(err, ErrTimeout):
		return FailTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// A dial aborted by run cancellation: the connection never
		// completed, which on the wire is indistinguishable from a
		// timeout. (The record is discarded with the canceled scan.)
		return FailTimeout
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return FailTimeout
		}
		return FailRefused
	}
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
		res.Banner = banner(sv)
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
	res.Banner = banner(id.SoftwareVersion)
}

// knownBanners interns the server-software strings the grabbers see at
// scale, so a Result's Banner costs no allocation and pins no parse buffer.
// The lookup m[string(b)] does not allocate.
var knownBanners = func() map[string]string {
	m := make(map[string]string)
	for _, s := range []string{
		"nginx", "nginx/1.14.0", "Apache", "Apache/2.4.29 (Ubuntu)",
		"Microsoft-IIS/10.0", "lighttpd/1.4.45", "openresty",
		"OpenSSH_7.4", "OpenSSH_7.9p1", "OpenSSH_8.2p1", "dropbear_2019.78",
		"OpenSSH_6.6.1", "OpenSSH_8.0",
	} {
		m[s] = s
	}
	return m
}()

// banner turns a view into exchange scratch into a string that outlives
// the exchange: the interned instance when the software is a known one, a
// copy otherwise.
func banner(b []byte) string {
	if s, ok := knownBanners[string(b)]; ok {
		return s
	}
	return string(b)
}
