package zgrab

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/vconn"
)

// peer is how the server end of a test connection behaves.
type peer uint8

const (
	serve   peer = iota // hostsim answers as dst's own software class
	abort               // accept then immediately RST (Alibaba)
	fin                 // accept then immediately FIN (MaxStartups)
	garbage             // speak a non-protocol banner, then FIN
	mute                // accept and never answer
)

// exchangeWith runs g's exchange for p with dst over a vconn pipe whose
// server end behaves as b. Teardown is synchronous and FIN is a half-close,
// as in the fabric's exchange table: a spawned Close races the grabber's
// first write (close-then-write is an RST).
func exchangeWith(g *Grabber, srv *hostsim.Server, p proto.Protocol, dst ip.Addr, b peer) Result {
	client, server := vconn.PipeLabeled("scanner", dst.String())
	done := make(chan struct{})
	switch b {
	case serve:
		go func() {
			defer close(done)
			srv.Serve(server, dst, p, srv.Class(dst, p))
		}()
	case abort:
		server.Abort()
	case fin:
		server.CloseWrite()
	case garbage:
		server.Write([]byte("220 FTP ready\r\n")) // fits the pipe's window: does not block
		server.CloseWrite()
	}
	if b != serve {
		close(done)
	}
	res := g.Exchange(client, p, dst)
	client.Close()
	<-done
	return res
}

func newGrabber(d Dialer) *Grabber {
	return &Grabber{Dialer: d, Key: rng.NewKey(9).Derive("grab"), IOTimeout: 5 * time.Second}
}

// flakyDialer is a fake transport: it refuses nothing, half-closes the
// first finFirstN attempts and serves the rest, and answers each accepted
// attempt with a real exchange against hostsim.
type flakyDialer struct {
	srv       *hostsim.Server
	finFirstN int
	calls     int // Predial + PredialBatch + Handshake calls
}

func (d *flakyDialer) Predial(dst ip.Addr, port uint16, t time.Duration, attempt int) DialVerdict {
	d.calls++
	if attempt < d.finFirstN {
		return DialHalfClose
	}
	return DialConnect
}

func (d *flakyDialer) PredialBatch(dsts []ip.Addr, ts []time.Duration, port uint16, out []DialVerdict) {
	for i, dst := range dsts {
		out[i] = d.Predial(dst, port, ts[i], 0)
	}
}

func (d *flakyDialer) Handshake(dst ip.Addr, p proto.Protocol, v DialVerdict) (FailMode, string) {
	d.calls++
	b := serve
	if v == DialHalfClose {
		b = fin
	}
	res := exchangeWith(newGrabber(nil), d.srv, p, dst, b)
	return res.Fail, res.Banner
}

func TestGrabHTTPSuccess(t *testing.T) {
	res := exchangeWith(newGrabber(nil), hostsim.NewServer(rng.NewKey(1)), proto.HTTP, ip.MustParseAddr("10.0.0.1"), serve)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if res.Banner == "" {
		t.Error("no Server banner captured")
	}
}

func TestGrabHTTPSSuccess(t *testing.T) {
	res := exchangeWith(newGrabber(nil), hostsim.NewServer(rng.NewKey(2)), proto.HTTPS, ip.MustParseAddr("10.0.0.2"), serve)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if !strings.Contains(res.Banner, "AES") && !strings.Contains(res.Banner, "CHACHA") {
		t.Errorf("banner = %q, want a cipher suite", res.Banner)
	}
}

func TestGrabSSHSuccess(t *testing.T) {
	res := exchangeWith(newGrabber(nil), hostsim.NewServer(rng.NewKey(3)), proto.SSH, ip.MustParseAddr("10.0.0.3"), serve)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if !strings.Contains(res.Banner, "SSH") && !strings.Contains(res.Banner, "dropbear") && !strings.Contains(res.Banner, "Open") {
		t.Errorf("banner = %q", res.Banner)
	}
}

func TestBannerVariesByHost(t *testing.T) {
	srv, g := hostsim.NewServer(rng.NewKey(4)), newGrabber(nil)
	banners := map[string]bool{}
	for i := 0; i < 30; i++ {
		res := exchangeWith(g, srv, proto.SSH, ip.AddrFrom4(0x0a000000+uint32(i)), serve)
		if res.Success {
			banners[res.Banner] = true
		}
	}
	if len(banners) < 2 {
		t.Errorf("host personalities too uniform: %v", banners)
	}
}

func TestBannerStablePerHost(t *testing.T) {
	srv, g := hostsim.NewServer(rng.NewKey(5)), newGrabber(nil)
	a := exchangeWith(g, srv, proto.HTTP, ip.MustParseAddr("10.0.0.9"), serve)
	b := exchangeWith(g, srv, proto.HTTP, ip.MustParseAddr("10.0.0.9"), serve)
	if a.Banner != b.Banner {
		t.Errorf("same host changed banner: %q vs %q", a.Banner, b.Banner)
	}
}

// TestGrabFailureModes: Exchange classifies what the peer does after
// accepting, and GrabFast maps the verdicts that never connect.
func TestGrabFailureModes(t *testing.T) {
	srv := hostsim.NewServer(rng.NewKey(6))
	g := newGrabber(nil)
	g.IOTimeout = 20 * time.Millisecond // bounds the mute peer
	for _, c := range []struct {
		name string
		b    peer
		want FailMode
	}{
		{"reset", abort, FailReset},
		{"closed", fin, FailClosed},
		{"garbage", garbage, FailProto},
		{"timeout", mute, FailTimeout},
	} {
		res := exchangeWith(g, srv, proto.SSH, ip.MustParseAddr("10.1.0.1"), c.b)
		if res.Success || res.Fail != c.want {
			t.Errorf("%s: result %+v, want fail=%v", c.name, res, c.want)
		}
	}
	d := &flakyDialer{srv: srv}
	for v, want := range map[DialVerdict]FailMode{DialRefused: FailRefused, DialTimeout: FailTimeout} {
		res := newGrabber(d).GrabFast(context.Background(), proto.SSH, ip.MustParseAddr("10.1.0.1"), 0, v)
		if res.Success || res.Fail != want || res.Attempts != 1 {
			t.Errorf("verdict %d: result %+v, want one attempt failing %v", v, res, want)
		}
	}
	if d.calls != 0 {
		t.Errorf("%d dialer calls for verdicts that never connect", d.calls)
	}
}

func TestRetriesRecoverFlakyHost(t *testing.T) {
	// Host closes the first 3 connection attempts then serves —
	// the §6 MaxStartups pattern recovered by retries.
	d := &flakyDialer{srv: hostsim.NewServer(rng.NewKey(7)), finFirstN: 3}
	g := newGrabber(d)
	g.Retries = 8
	dst := ip.MustParseAddr("10.2.0.1")
	res := g.GrabFast(context.Background(), proto.SSH, dst, 0, d.Predial(dst, 22, 0, 0))
	if !res.Success {
		t.Fatalf("retries did not recover: %+v", res)
	}
	if res.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", res.Attempts)
	}

	// Without retries the same host fails closed.
	g2 := newGrabber(d)
	res2 := g2.GrabFast(context.Background(), proto.SSH, dst, 0, d.Predial(dst, 22, 0, 0))
	if res2.Success || res2.Fail != FailClosed || res2.Attempts != 1 {
		t.Errorf("no-retry grab = %+v, want FailClosed", res2)
	}
}

func TestGrabCanceledContextStopsRetries(t *testing.T) {
	// Cancellation must stop the retry loop instead of burning the full
	// budget: a flaky host that would be recovered by 8 retries is
	// abandoned after the first attempt when the context is canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &flakyDialer{srv: hostsim.NewServer(rng.NewKey(7)), finFirstN: 3}
	g := newGrabber(d)
	g.Retries = 8
	res := g.GrabFast(ctx, proto.SSH, ip.MustParseAddr("10.2.0.1"), 0, DialHalfClose)
	if res.Success || res.Fail != FailTimeout {
		t.Fatalf("grab under canceled context = %+v, want a timeout", res)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (retry loop must stop on cancellation)", res.Attempts)
	}
	if d.calls != 0 {
		t.Errorf("%d dialer calls after cancellation", d.calls)
	}
}

func TestGrabHTTPOverRealTCP(t *testing.T) {
	// The grabbers must also work over the real network stack: serve one
	// hostsim HTTP connection on a loopback listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := hostsim.NewServer(rng.NewKey(8))
	host := ip.MustParseAddr("127.0.0.1")
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.Serve(conn, host, proto.HTTP, srv.Class(host, proto.HTTP))
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if res := newGrabber(nil).Exchange(conn, proto.HTTP, host); !res.Success {
		t.Fatalf("real-TCP grab failed: %+v", res)
	}
}

func TestFailModeStrings(t *testing.T) {
	for f, want := range map[FailMode]string{
		FailNone: "none", FailTimeout: "timeout", FailRefused: "refused",
		FailReset: "reset", FailClosed: "closed", FailProto: "proto",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
}

// deadlineConn records the deadlines a grabber sets on its connection.
type deadlineConn struct {
	net.Conn
	deadlines []time.Time
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.deadlines = append(c.deadlines, t)
	return c.Conn.SetDeadline(t)
}

// TestGrabDefaultIOTimeout: a Grabber without IOTimeout still bounds its
// exchange, by the documented 10 s, so a real peer that never answers
// cannot hold it forever; a set IOTimeout is used as given.
func TestGrabDefaultIOTimeout(t *testing.T) {
	srv, host := hostsim.NewServer(rng.NewKey(1)), ip.MustParseAddr("10.0.0.1")
	for _, tc := range []struct {
		timeout, want time.Duration
	}{{0, 10 * time.Second}, {-time.Second, 10 * time.Second}, {3 * time.Second, 3 * time.Second}} {
		client, server := vconn.PipeLabeled("scanner", host.String())
		go srv.Serve(server, host, proto.HTTP, srv.Class(host, proto.HTTP))
		conn := &deadlineConn{Conn: client}
		g := &Grabber{IOTimeout: tc.timeout}
		before := time.Now()
		res := g.Exchange(conn, proto.HTTP, host)
		after := time.Now()
		client.Close()
		if !res.Success {
			t.Fatalf("IOTimeout %v: grab failed: %+v", tc.timeout, res)
		}
		if len(conn.deadlines) != 1 {
			t.Fatalf("IOTimeout %v: %d deadlines set, want 1", tc.timeout, len(conn.deadlines))
		}
		if dl := conn.deadlines[0]; dl.Before(before.Add(tc.want)) || dl.After(after.Add(tc.want)) {
			t.Errorf("IOTimeout %v: deadline %v after the grab began, want %v", tc.timeout, dl.Sub(before), tc.want)
		}
	}
}
