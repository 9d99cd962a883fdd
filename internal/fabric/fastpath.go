// The grab fast path: batched pre-dial evaluation plus inline-served,
// pooled connections. Dial pays per connection for a vconn pipe (two
// windowed buffers, two conn wrappers) and a dedicated server goroutine;
// at Scale=1.0 the grab stage performs ~53M L7 handshakes, so that
// per-connection concurrency tax dominates study wall time. The fast path
// splits the dial in two: Predial/PredialBatch run the entire decision
// chain (the shared kernel of plan.go, then service presence and handshake
// loss) without touching connection setup — safe because every decision is
// a keyed hash of the event coordinates and the grab-time IDS view is
// read-only — and ConnectFast materializes accepting verdicts as pooled
// fastConns whose server side runs inline in the grabber's goroutine
// (hostsim.ServeInline). Dial materializes the same verdicts as vconn pipes
// with a server goroutine each: the reference the differential tests hold
// the inline serving to.
package fabric

import (
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/vconn"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// Predial implements zgrab.FastDialer: evaluate one dial's verdict without
// opening a connection — the verdict Dial materializes. Safe for concurrent
// use (pooled queries, no shared scratch).
func (f *Fabric) Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	d := f.fib.Resolve(dst)
	return f.predialEval(dst, &d, port, t, attempt)
}

// PredialBatch implements zgrab.FastDialer: evaluate attempt 0 for a whole
// grab window, resolving the FIB in bulk first (same-/24 neighbors share
// directory ranks). Single-caller by contract: it reuses the fabric's
// resolution scratch.
func (f *Fabric) PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []zgrab.DialVerdict) {
	if cap(f.preDests) < len(dsts) {
		f.preDests = make([]world.Dest, len(dsts))
	}
	dests := f.preDests[:len(dsts)]
	f.fib.ResolveBatch(dsts, dests)
	for i, dst := range dsts {
		out[i] = f.predialEval(dst, &dests[i], port, ts[i], 0)
	}
}

// predialEval is the dial decision: the shared kernel, then what only a
// connection meets — a closed port, loss over the handshake exchange — with
// the accepting verdicts' connection effects (reset / half-close / serve)
// left to whoever materializes them (Dial, ConnectFast).
func (f *Fabric) predialEval(dst ip.Addr, d *world.Dest, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	if !d.Routed {
		return zgrab.DialTimeout
	}
	p, isProto := proto.FromPort(port)
	if !isProto {
		return zgrab.DialRefused
	}
	pl := f.planFor(p, d)
	verdict, through := f.decide(pl, false, origin.SourceFor(f.org.SourceIPs, dst), dst, d, p, t, 0, attempt)
	switch {
	case !through:
		return zgrab.DialTimeout
	case verdict == policy.RefuseTCP, !d.Host, !d.Services.Has(p):
		return zgrab.DialRefused
	case pl.path.HandshakeFailed(dst, attempt):
		// Per-packet loss over the whole handshake exchange: the
		// connection times out mid-handshake.
		return zgrab.DialTimeout
	}
	switch verdict {
	case policy.ResetAfterAccept:
		return zgrab.DialReset
	case policy.CloseAfterAccept:
		return zgrab.DialHalfClose
	}
	return zgrab.DialConnect
}

// ConnectFast implements zgrab.FastDialer: turn an accepting verdict into
// a pooled connection. Only served connections count toward ConnsOpened,
// matching Dial (reset/half-closed conns never spawned a server there
// either); nothing counts toward ActiveConns — there is no goroutine.
func (f *Fabric) ConnectFast(dst ip.Addr, port uint16, v zgrab.DialVerdict) net.Conn {
	p, _ := proto.FromPort(port)
	c := fastConns.Get().(*fastConn)
	c.fab = f
	c.host = dst
	c.prot = p
	c.served = false
	c.closed = false
	c.in, c.out, c.off = c.in[:0], c.out[:0], 0
	switch v {
	case zgrab.DialReset:
		c.state = fastReset
	case zgrab.DialHalfClose:
		c.state = fastHalfClosed
	default:
		c.state = fastServe
		f.opened.Add(1)
	}
	return c
}

// fastConns recycles fastConn objects (and their grown in/out buffers)
// across grabs; Close returns the conn to the pool.
var fastConns = sync.Pool{New: func() any { return new(fastConn) }}

const (
	// fastServe: accepted; the host serves inline on the first read.
	fastServe uint8 = iota
	// fastReset: accepted then reset before the client saw the conn
	// (policy.ResetAfterAccept) — reads and writes see vconn.ErrReset,
	// exactly what the reference's synchronous server.Abort produces.
	fastReset
	// fastHalfClosed: accepted then FIN (policy.CloseAfterAccept) —
	// writes are accepted, reads see io.EOF, like the reference's
	// server.CloseWrite.
	fastHalfClosed
)

// fastConn is an inline-served client connection: client writes accumulate
// in `in`; the first read runs the host's whole response flight via
// hostsim.ServeInline and then drains it, followed by io.EOF (the server's
// orderly close). That is byte-identical to the goroutine path for the
// turn-based grabbers, which write their complete opening flight before
// reading — a client that interleaved reads into an unfinished flight
// would see EOF where the goroutine path would block, which no grabber
// does (the experiment layer routes wrapped/unknown dialers to the
// reference path).
type fastConn struct {
	fab    *Fabric
	host   ip.Addr
	prot   proto.Protocol
	state  uint8
	served bool
	closed bool
	in     []byte // the client's flight so far
	out    []byte // the host's response flight
	off    int    // out[off:] is not yet read
}

var _ net.Conn = (*fastConn)(nil)

// Read implements net.Conn. The one-shot inline serve runs on the first
// read of an accepted conn; once the response flight drains, io.EOF.
func (c *fastConn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	switch c.state {
	case fastReset:
		return 0, vconn.ErrReset
	case fastHalfClosed:
		return 0, io.EOF
	}
	if !c.served {
		c.served = true
		c.out = c.fab.cfg.Hosts.ServeInline(c.out, c.in, c.host, c.prot)
	}
	if c.off >= len(c.out) {
		return 0, io.EOF
	}
	n := copy(p, c.out[c.off:])
	c.off += n
	return n, nil
}

// Write implements net.Conn.
func (c *fastConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	switch c.state {
	case fastReset:
		return 0, vconn.ErrReset
	case fastHalfClosed:
		// The server half-closed only its direction: client writes are
		// accepted (and, with no reader left, discarded).
		return len(p), nil
	}
	if c.served {
		// The inline server already ran its single flight and closed;
		// writing to a closed reader is an RST, as on the vconn path.
		return 0, vconn.ErrReset
	}
	c.in = append(c.in, p...)
	return len(p), nil
}

// Close returns the conn to the pool. Idempotent, like vconn.Conn.Close.
func (c *fastConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.fab = nil
	fastConns.Put(c)
	return nil
}

// LocalAddr implements net.Conn; the source is derived lazily — grabbers
// never read connection addresses.
func (c *fastConn) LocalAddr() net.Addr {
	return vconn.Addr{IP: origin.SourceFor(c.fab.org.SourceIPs, c.host)}
}

// RemoteAddr implements net.Conn.
func (c *fastConn) RemoteAddr() net.Addr { return vconn.Addr{IP: c.host} }

// SetDeadline implements net.Conn: inline reads never block, so deadlines
// are no-ops.
func (c *fastConn) SetDeadline(time.Time) error      { return nil }
func (c *fastConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fastConn) SetWriteDeadline(time.Time) error { return nil }
