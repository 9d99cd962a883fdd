package zgrab

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/vconn"
)

// pipeDialer serves every dial with a hostsim instance over a vconn pipe,
// with optional misbehaviour injected per dial.
type pipeDialer struct {
	server *hostsim.Server
	proto  proto.Protocol
	// behaviour hooks
	refuse     bool
	silent     bool
	abortAfter bool // accept then immediately RST (Alibaba)
	closeAfter bool // accept then immediately FIN (MaxStartups)
	garbage    bool // speak a non-protocol banner
	// refuseFirstN refuses the first N attempts, then serves (retry test).
	refuseFirstN int
	dials        int
}

func (d *pipeDialer) Dial(ctx context.Context, dst ip.Addr, port uint16, t time.Duration, attempt int) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.dials++
	switch {
	case d.refuse:
		return nil, ErrRefused
	case d.silent:
		return nil, ErrTimeout
	}
	client, server := vconn.PipeLabeled("scanner", dst.String())
	// Teardown is synchronous and FIN is a half-close, as in fabric.Dial: a
	// spawned Close races the grabber's first write (close-then-write is
	// an RST), which made the recorded FailMode depend on scheduling.
	switch {
	case d.abortAfter:
		server.Abort()
	case d.closeAfter:
		server.CloseWrite()
	case d.garbage:
		server.Write([]byte("220 FTP ready\r\n")) // fits the pipe's window: does not block
		server.CloseWrite()
	case d.refuseFirstN > 0 && attempt < d.refuseFirstN:
		server.CloseWrite()
	default:
		go d.server.Serve(server, dst, d.proto)
	}
	return client, nil
}

func newGrabber(d Dialer) *Grabber {
	return &Grabber{Dialer: d, Key: rng.NewKey(9).Derive("grab"), IOTimeout: 5 * time.Second}
}

func TestGrabHTTPSuccess(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(1)), proto: proto.HTTP}
	res := newGrabber(d).Grab(context.Background(), proto.HTTP, ip.MustParseAddr("10.0.0.1"), 0)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if res.Banner == "" {
		t.Error("no Server banner captured")
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d", res.Attempts)
	}
}

func TestGrabHTTPSSuccess(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(2)), proto: proto.HTTPS}
	res := newGrabber(d).Grab(context.Background(), proto.HTTPS, ip.MustParseAddr("10.0.0.2"), 0)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if !strings.Contains(res.Banner, "AES") && !strings.Contains(res.Banner, "CHACHA") {
		t.Errorf("banner = %q, want a cipher suite", res.Banner)
	}
}

func TestGrabSSHSuccess(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(3)), proto: proto.SSH}
	res := newGrabber(d).Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.0.0.3"), 0)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if !strings.Contains(res.Banner, "SSH") && !strings.Contains(res.Banner, "dropbear") && !strings.Contains(res.Banner, "Open") {
		t.Errorf("banner = %q", res.Banner)
	}
}

func TestBannerVariesByHost(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(4)), proto: proto.SSH}
	g := newGrabber(d)
	banners := map[string]bool{}
	for i := 0; i < 30; i++ {
		res := g.Grab(context.Background(), proto.SSH, ip.AddrFrom4(0x0a000000+uint32(i)), 0)
		if res.Success {
			banners[res.Banner] = true
		}
	}
	if len(banners) < 2 {
		t.Errorf("host personalities too uniform: %v", banners)
	}
}

func TestBannerStablePerHost(t *testing.T) {
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(5)), proto: proto.HTTP}
	g := newGrabber(d)
	a := g.Grab(context.Background(), proto.HTTP, ip.MustParseAddr("10.0.0.9"), 0)
	b := g.Grab(context.Background(), proto.HTTP, ip.MustParseAddr("10.0.0.9"), time.Hour)
	if a.Banner != b.Banner {
		t.Errorf("same host changed banner: %q vs %q", a.Banner, b.Banner)
	}
}

func TestGrabFailureModes(t *testing.T) {
	base := hostsim.NewServer(rng.NewKey(6))
	cases := []struct {
		name string
		d    *pipeDialer
		want FailMode
	}{
		{"refused", &pipeDialer{server: base, proto: proto.SSH, refuse: true}, FailRefused},
		{"timeout", &pipeDialer{server: base, proto: proto.SSH, silent: true}, FailTimeout},
		{"reset", &pipeDialer{server: base, proto: proto.SSH, abortAfter: true}, FailReset},
		{"closed", &pipeDialer{server: base, proto: proto.SSH, closeAfter: true}, FailClosed},
		{"garbage", &pipeDialer{server: base, proto: proto.SSH, garbage: true}, FailProto},
	}
	for _, c := range cases {
		res := newGrabber(c.d).Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.1.0.1"), 0)
		if res.Success || res.Fail != c.want {
			t.Errorf("%s: result %+v, want fail=%v", c.name, res, c.want)
		}
	}
}

func TestRetriesRecoverFlakyHost(t *testing.T) {
	// Host closes the first 3 connection attempts then serves —
	// the §6 MaxStartups pattern recovered by retries.
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(7)), proto: proto.SSH, refuseFirstN: 3}
	g := newGrabber(d)
	g.Retries = 8
	res := g.Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.2.0.1"), 0)
	if !res.Success {
		t.Fatalf("retries did not recover: %+v", res)
	}
	if res.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", res.Attempts)
	}

	// Without retries the same host fails closed.
	d2 := &pipeDialer{server: hostsim.NewServer(rng.NewKey(7)), proto: proto.SSH, refuseFirstN: 3}
	g2 := newGrabber(d2)
	res2 := g2.Grab(context.Background(), proto.SSH, ip.MustParseAddr("10.2.0.1"), 0)
	if res2.Success || res2.Fail != FailClosed {
		t.Errorf("no-retry grab = %+v, want FailClosed", res2)
	}
}

func TestGrabCanceledContextStopsRetries(t *testing.T) {
	// Cancellation must stop the retry loop instead of burning the full
	// budget: a flaky host that would be recovered by 8 retries is
	// abandoned after the first attempt when the context is canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(7)), proto: proto.SSH, refuseFirstN: 3}
	g := newGrabber(d)
	g.Retries = 8
	res := g.Grab(ctx, proto.SSH, ip.MustParseAddr("10.2.0.1"), 0)
	if res.Success {
		t.Fatalf("grab succeeded under canceled context: %+v", res)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (retry loop must stop on cancellation)", res.Attempts)
	}
	if d.dials != 0 {
		t.Errorf("%d dials reached the network after cancellation", d.dials)
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
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.Serve(conn, ip.MustParseAddr("127.0.0.1"), proto.HTTP)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var res Result
	res.Proto = proto.HTTP
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	newGrabber(nil).exchange(conn, proto.HTTP, ip.MustParseAddr("127.0.0.1"), &res)
	if !res.Success {
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

// cannedDialer answers every dial's request with a fixed HTTP response
// chosen by the destination address, written by a goroutine over a vconn
// pipe.
type cannedDialer struct {
	response func(dst ip.Addr) []byte
}

func (d *cannedDialer) Dial(_ context.Context, dst ip.Addr, _ uint16, _ time.Duration, _ int) (net.Conn, error) {
	client, server := vconn.PipeLabeled("scanner", dst.String())
	go func() {
		// The grabber sends its request in one write; take it before
		// answering, or the close below could reset that write.
		server.Read(make([]byte, 4096))
		server.Write(d.response(dst))
		server.Close()
	}()
	return client, nil
}

// TestScratchReuseSafety is the ownership rule under load: 16 workers grab
// responses of very different lengths back to back (so a pooled scratch
// regularly parses a response longer than its previous one and regrows its
// arena), every banner is unknown to the interned table, and each
// Result.Banner is read only after its scratch has served many other
// exchanges. Run under -race this is also the pool-safety proof.
func TestScratchReuseSafety(t *testing.T) {
	software := func(dst ip.Addr) string { return "srv-" + dst.String() + "/unlisted" }
	d := &cannedDialer{response: func(dst ip.Addr) []byte {
		// 0 … ~12 KiB of extra headers and body, by address.
		n := int(dst.Word64()%13) * 1024
		resp := "HTTP/1.1 200 OK\r\nServer: " + software(dst) + "\r\nX-Pad: " + strings.Repeat("p", n/2) +
			"\r\n\r\n" + strings.Repeat("b", n/2)
		return []byte(resp)
	}}
	g := newGrabber(d)
	const workers, perWorker = 16, 40
	results := make([][]Result, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dst := ip.AddrFrom4(0x0a000000 + uint32(wk*perWorker+i)*7)
				results[wk] = append(results[wk], g.Grab(context.Background(), proto.HTTP, dst, 0))
			}
		}(wk)
	}
	wg.Wait()
	for wk := range results {
		for i, res := range results[wk] {
			dst := ip.AddrFrom4(0x0a000000 + uint32(wk*perWorker+i)*7)
			if !res.Success || res.Banner != software(dst) {
				t.Fatalf("worker %d grab %d (%v): %+v, want banner %q", wk, i, dst, res, software(dst))
			}
		}
	}
}

// TestKnownBannersAreInterned: the strings the simulated hosts serve come
// back as the table's instances — no allocation, nothing pinning a parse
// buffer — and an unknown one comes back as a copy.
func TestKnownBannersAreInterned(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []proto.Protocol{proto.HTTP, proto.SSH} {
		d := &pipeDialer{server: hostsim.NewServer(rng.NewKey(11)), proto: p}
		g := newGrabber(d)
		for i := 0; i < 200; i++ {
			res := g.Grab(context.Background(), p, ip.AddrFrom4(0x0a000000+uint32(i)), 0)
			if !res.Success {
				t.Fatalf("grab failed: %+v", res)
			}
			if _, ok := knownBanners[res.Banner]; !ok {
				t.Fatalf("%v banner %q is not in the interned table", p, res.Banner)
			}
			seen[res.Banner] = true
		}
	}
	if len(seen) != len(knownBanners) {
		t.Errorf("hosts served %d distinct banners, table has %d", len(seen), len(knownBanners))
	}
	view := []byte("nginx")
	if n := testing.AllocsPerRun(100, func() { _ = banner(view) }); n != 0 {
		t.Errorf("interned banner costs %v allocs", n)
	}
	unknown := []byte("thttpd/2.25b")
	got := banner(unknown)
	unknown[0] = 'X'
	if got != "thttpd/2.25b" {
		t.Errorf("unknown banner aliases its source: %q", got)
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

// deadlineDialer serves every dial like pipeDialer and keeps the last conn.
type deadlineDialer struct {
	pipeDialer
	conn *deadlineConn
}

func (d *deadlineDialer) Dial(ctx context.Context, dst ip.Addr, port uint16, t time.Duration, attempt int) (net.Conn, error) {
	c, err := d.pipeDialer.Dial(ctx, dst, port, t, attempt)
	if err != nil {
		return nil, err
	}
	d.conn = &deadlineConn{Conn: c}
	return d.conn, nil
}

// TestGrabDefaultIOTimeout: a Grabber without IOTimeout still bounds its
// exchange, by the documented 10 s, so a real peer that never answers
// cannot hold it forever; a set IOTimeout is used as given.
func TestGrabDefaultIOTimeout(t *testing.T) {
	for _, tc := range []struct {
		timeout, want time.Duration
	}{{0, 10 * time.Second}, {-time.Second, 10 * time.Second}, {3 * time.Second, 3 * time.Second}} {
		d := &deadlineDialer{pipeDialer: pipeDialer{server: hostsim.NewServer(rng.NewKey(1)), proto: proto.HTTP}}
		g := &Grabber{Dialer: d, IOTimeout: tc.timeout}
		before := time.Now()
		if res := g.Grab(context.Background(), proto.HTTP, ip.MustParseAddr("10.0.0.1"), 0); !res.Success {
			t.Fatalf("IOTimeout %v: grab failed: %+v", tc.timeout, res)
		}
		after := time.Now()
		if len(d.conn.deadlines) != 1 {
			t.Fatalf("IOTimeout %v: %d deadlines set, want 1", tc.timeout, len(d.conn.deadlines))
		}
		if dl := d.conn.deadlines[0]; dl.Before(before.Add(tc.want)) || dl.After(after.Add(tc.want)) {
			t.Errorf("IOTimeout %v: deadline %v after the grab began, want %v", tc.timeout, dl.Sub(before), tc.want)
		}
	}
}
