// The grab fast path: batched pre-dial evaluation plus a typed handshake.
// Dial pays per connection for a vconn pipe, a server goroutine, and the
// encoding and parsing of a whole HTTP, TLS or SSH flight; at Scale=1.0 the
// grab stage performs ~53M L7 handshakes. The fast path splits the dial in
// two: Predial/PredialBatch run the entire decision chain (the shared kernel
// of plan.go, then service presence and handshake loss) without touching
// connection setup — safe because every decision is a keyed hash of the
// event coordinates and the grab-time IDS view is read-only — and Handshake
// answers an accepting verdict with the grab's outcome, which is a keyed
// function of (host, protocol). Dial materializes the same verdicts as vconn
// pipes with a server goroutine each: the byte-level reference the
// differential tests hold the typed outcome to.
package fabric

import (
	"time"

	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
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
// left to whoever materializes them (Dial, Handshake).
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

// Handshake implements zgrab.FastDialer: an accepting verdict's grab
// outcome, with no connection behind it. Reset and half-close are what the
// grabber meets on Dial's synchronously torn-down pipe (an RST on its first
// write, a FIN before any banner); a served connection is the host's keyed
// software, the banner the served bytes carry. Only served connections count
// toward ConnsOpened, matching Dial; nothing counts toward ActiveConns.
func (f *Fabric) Handshake(dst ip.Addr, p proto.Protocol, v zgrab.DialVerdict) (zgrab.FailMode, string) {
	switch v {
	case zgrab.DialReset:
		return zgrab.FailReset, ""
	case zgrab.DialHalfClose:
		return zgrab.FailClosed, ""
	}
	f.opened.Add(1)
	return zgrab.FailNone, f.cfg.Hosts.Software(dst, p)
}
