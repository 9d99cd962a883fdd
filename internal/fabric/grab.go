// The grab path: batched pre-dial evaluation, then one table read per
// accepted connection. Predial/PredialBatch run the entire decision chain
// (the shared kernel of plan.go, then service presence and handshake loss)
// without touching connection setup — safe because every decision is a
// keyed hash of the event coordinates and the grab-time IDS view is
// read-only. What an accepted connection ends in depends only on the
// verdict, the protocol and the host's software class (hostsim.Class), so
// Handshake reads it from a table of real byte exchanges — zgrab's client
// against hostsim's server over a vconn pipe, one per (verdict, protocol,
// class) — built per protocol, once per process, the first time a grab of
// that protocol is accepted. At Scale=1.0 the grab stage answers ~53M
// handshakes from 20 exchanges.
package fabric

import (
	"sync"
	"time"

	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/vconn"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// Predial implements zgrab.Dialer: evaluate one dial's verdict without
// opening a connection. Safe for concurrent use (pooled queries, no shared
// scratch).
func (f *Fabric) Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	d := f.fib.Resolve(dst)
	return f.predialEval(dst, &d, port, t, attempt)
}

// PredialBatch implements zgrab.Dialer: evaluate attempt 0 for a whole
// grab window, resolving the FIB in bulk first (same-/24 neighbors share
// directory ranks), 256 destinations at a time into stack scratch, as
// ProbeBatch does. Safe for concurrent use.
func (f *Fabric) PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []zgrab.DialVerdict) {
	var dests [256]world.Dest
	for base := 0; base < len(dsts); base += len(dests) {
		chunk := dsts[base:min(base+len(dests), len(dsts))]
		f.fib.ResolveBatch(chunk, dests[:len(chunk)])
		for i, dst := range chunk {
			out[base+i] = f.predialEval(dst, &dests[i], port, ts[base+i], 0)
		}
	}
}

// predialEval is the dial decision: the shared kernel, then what only a
// connection meets — a closed port, loss over the handshake exchange — with
// the accepting verdicts' connection effects (reset / half-close / serve)
// left to Handshake.
func (f *Fabric) predialEval(dst ip.Addr, d *world.Dest, port uint16, t time.Duration, attempt int) zgrab.DialVerdict {
	if !d.Routed {
		return zgrab.DialTimeout
	}
	p, isProto := proto.FromPort(port)
	if !isProto {
		return zgrab.DialRefused
	}
	v := f.view(f.planFor(p, d))
	verdict, through := f.decide(&v, &fate{}, false, origin.SourceFor(f.org.SourceIPs, dst), dst, d, p, t, attempt)
	switch {
	case !through:
		return zgrab.DialTimeout
	case verdict == policy.RefuseTCP, !d.Host, !d.Services.Has(p):
		return zgrab.DialRefused
	case v.path.HandshakeFailed(dst, attempt):
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

// Handshake implements zgrab.Dialer: an accepting verdict's grab outcome,
// read from the exchange table. A reset connection's outcome is the RST on
// the grabber's first write, a half-closed one's the FIN before any banner,
// a served one's the banner of dst's software class. Only served
// connections count toward ConnsOpened.
func (f *Fabric) Handshake(dst ip.Addr, p proto.Protocol, v zgrab.DialVerdict) (zgrab.FailMode, string) {
	tab := handshakes[p]()
	var r zgrab.Result
	switch v {
	case zgrab.DialReset:
		r = tab.reset
	case zgrab.DialHalfClose:
		r = tab.halfClose
	default:
		f.opened.Add(1)
		r = tab.served[f.cfg.Hosts.Class(dst, p)]
	}
	return r.Fail, r.Banner
}

// handshakeTable holds, for one protocol, the Result one real exchange ends
// in for each accepting verdict and, for served connections, each software
// class.
type handshakeTable struct {
	reset, halfClose zgrab.Result
	served           []zgrab.Result // by hostsim class
}

// handshakes are the process's tables, one per protocol, each built on its
// first use: a scan of one protocol (an HTTP sweep) pays for that
// protocol's exchanges only. Nothing in them depends on a study: hostsim's
// class lists are constants, and an exchange's outcome does not depend on
// the host's address or the keys behind its bytes (the package's
// FuzzGrabTypedMatchesExchange holds every host to its class's entry).
var handshakes = func() (tabs [proto.N]func() *handshakeTable) {
	for _, p := range proto.All() {
		tabs[p] = sync.OnceValue(func() *handshakeTable {
			srv := hostsim.NewServer(rng.NewKey(0))
			src, dst := ip.AddrFrom4(0xc6336401), ip.AddrFrom4(0xc0000201) // 198.51.100.1 → 192.0.2.1
			var g zgrab.Grabber
			tab := &handshakeTable{
				reset:     exchange(&g, srv, src, dst, p, zgrab.DialReset, 0),
				halfClose: exchange(&g, srv, src, dst, p, zgrab.DialHalfClose, 0),
				served:    make([]zgrab.Result, hostsim.Classes(p)),
			}
			for c := range tab.served {
				tab.served[c] = exchange(&g, srv, src, dst, p, zgrab.DialConnect, c)
			}
			return tab
		})
	}
	return tabs
}()

// exchange runs one grab of p from src to dst over a vconn pipe: g's
// client against srv serving software class, or against a server end
// reset (DialReset) or half-closed (DialHalfClose) before the client gets
// the connection. Teardown is synchronous so the outcome does not depend on
// scheduling: torn down concurrently, it would race the client's first
// write (write-then-close is a FIN, close-then-write an RST).
func exchange(g *zgrab.Grabber, srv *hostsim.Server, src, dst ip.Addr, p proto.Protocol, v zgrab.DialVerdict, class int) zgrab.Result {
	client, server := vconn.Pipe(src, dst)
	done := make(chan struct{})
	switch v {
	case zgrab.DialReset:
		server.Abort()
		close(done)
	case zgrab.DialHalfClose:
		server.CloseWrite()
		close(done)
	default:
		go func() {
			defer close(done)
			srv.Serve(server, dst, p, class)
		}()
	}
	res := g.Exchange(client, p, dst)
	client.Close() // a server still reading sees EOF and returns
	<-done
	return res
}
