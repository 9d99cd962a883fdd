// Package fabric is the simulated network connecting scanners to the
// synthetic Internet. It implements zmap.PacketSink (L4: evaluates real SYN
// packet bytes against routing, policy, outages, and loss, answering with
// real SYN-ACK/RST bytes) and zgrab.Dialer (L7: hands out virtual
// connections served by hostsim, subject to the same path conditions).
//
// Every probabilistic decision is a keyed hash of the event coordinates, so
// a scan through the fabric is deterministic and independent of goroutine
// scheduling.
package fabric

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asn"
	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/loss"
	"repro/internal/origin"
	"repro/internal/outage"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/vconn"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// Config assembles a fabric for one study.
type Config struct {
	World  *world.World
	Engine *policy.Engine
	// IDSes are the detectors observing this scan's probes: the live
	// stateful *policy.IDS machines when scans run serially, or read-only
	// per-scan *policy.ScheduledIDS views when scans run concurrently.
	IDSes   []policy.Detector
	Loss    *loss.Matrix
	Outages *outage.Schedule
	// Churn marks hosts offline for whole trials (nil = no churn).
	Churn *world.Churn
	// NumOrigins is how many origins scan simultaneously (drives
	// MaxStartups concurrency).
	NumOrigins int
	// Host server personalities.
	Hosts *hostsim.Server
}

// Fabric carries packets between one origin's scanner and the world during
// one trial. Create one per (origin, trial); fabrics share the underlying
// Config (including stateful IDSes).
type Fabric struct {
	cfg   *Config
	org   *origin.Origin
	trial int
	fib   *world.FIB
	// isnKey draws a host's initial sequence number per answered probe;
	// derived once here, not per SYN-ACK.
	isnKey rng.Key

	// queries recycles policy.Query scratch space: Send and Dial fill a
	// pooled query, hand it to the rules, and release it on return, so
	// probe evaluation allocates nothing. Rules must not retain queries
	// (see policy.Rule). A pool rather than a single per-fabric query
	// because sharded sweeps call Send concurrently.
	queries sync.Pool

	// preDests is PredialBatch's FIB resolution scratch. PredialBatch is
	// single-caller by contract (the grab stage's window loop owns it),
	// so one slice per fabric suffices.
	preDests []world.Dest

	// conns tracks the per-connection server goroutines this fabric
	// spawned, so a scan can Drain them before sealing results.
	conns  sync.WaitGroup
	active atomic.Int64
	// opened counts served connections over the fabric's lifetime (the
	// grab stage's span attribute; active is the instantaneous view).
	opened atomic.Uint64
}

// New returns a fabric for one (origin, trial) scan.
func New(cfg *Config, org *origin.Origin, trial int) *Fabric {
	return &Fabric{
		cfg:     cfg,
		org:     org,
		trial:   trial,
		fib:     cfg.World.FIB(),
		isnKey:  cfg.World.Key.Derive("isn"),
		queries: sync.Pool{New: func() any { return new(policy.Query) }},
	}
}

// query fills a pooled policy query for a destination already resolved
// through the FIB. The query is valid until release; every field is
// overwritten, so recycled queries carry no state between probes.
func (f *Fabric) query(srcIP, dst ip.Addr, d world.Dest, p proto.Protocol, t time.Duration, attempt int) *policy.Query {
	q := f.queries.Get().(*policy.Query)
	*q = policy.Query{
		Origin:            f.org.ID,
		SrcIP:             srcIP,
		SrcCountry:        f.org.Country,
		NumSrcIPs:         len(f.org.SourceIPs),
		Rep:               f.org.ScanReputation,
		Dst:               dst,
		DstAS:             d.AS.Number,
		DstCountry:        d.Country,
		Proto:             p,
		Trial:             f.trial,
		Time:              t,
		Attempt:           attempt,
		ConcurrentOrigins: f.cfg.NumOrigins,
	}
	return q
}

// release returns a query to the pool.
func (f *Fabric) release(q *policy.Query) { f.queries.Put(q) }

// Routed implements zmap.Routability: the scanner consults the FIB's routed
// bit before paying for a probe's encode/decode round trip into unannounced
// space (which Send would silently eat anyway).
func (f *Fabric) Routed(dst ip.Addr) bool { return f.fib.Routed(dst) }

// RoutedBatch implements zmap.BatchRoutability: the batched sweep kernel
// evaluates a whole 4096-address batch against the FIB in one call, letting
// the FIB reuse its directory rank across same-/24 neighbors.
func (f *Fabric) RoutedBatch(dst []ip.Addr, routed []bool) { f.fib.RoutedBatch(dst, routed) }

// pathDown reports whether the origin→dst path is unusable at time t due to
// a burst outage or a correlated loss episode. Both probes of a target and
// the follow-up connection share this state — loss is not independent.
func (f *Fabric) pathDown(path *loss.Path, dst ip.Addr, as *asn.AS, t time.Duration) bool {
	if f.cfg.Outages != nil && f.cfg.Outages.Affected(f.trial, f.org.ID, as.Number, dst, t) {
		return true
	}
	return path.EpisodeActive(dst)
}

// Send implements zmap.PacketSink: evaluate one SYN probe. The evaluation
// path allocates nothing — headers decode into stack scratch, the FIB
// resolves the destination with array reads, and the policy query comes
// from the fabric's pool — so only an answered probe costs an allocation
// (its response packet).
func (f *Fabric) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	var dst ip.Addr
	var tcph packet.TCPHeader
	var probeIdx uint64
	if packet.Version(pkt) == 6 {
		var ip6 packet.IPv6Header
		if _, err := packet.DecodeTCP6Into(&ip6, &tcph, pkt); err != nil ||
			!tcph.HasFlag(packet.FlagSYN) || tcph.HasFlag(packet.FlagACK) {
			return nil // the network silently eats malformed probes
		}
		dst = ip6.Dst
		probeIdx = uint64(ip6.FlowLabel) // v6 probes stamp the index in FlowLabel
	} else {
		var iph packet.IPv4Header
		if _, err := packet.DecodeTCP4Into(&iph, &tcph, pkt); err != nil ||
			!tcph.HasFlag(packet.FlagSYN) || tcph.HasFlag(packet.FlagACK) {
			return nil // the network silently eats malformed probes
		}
		dst = iph.Dst
		probeIdx = uint64(iph.ID) // scanner stamps the probe index in IP ID
	}
	d := f.fib.Resolve(dst)
	if !d.Routed {
		return nil // unannounced space: no route, no answer
	}
	p, isProto := proto.FromPort(tcph.DstPort)
	if !isProto {
		return nil
	}

	if d.Host && f.cfg.Churn.Offline(dst, f.trial) {
		// The machine is down this trial: silence, from every origin.
		return nil
	}

	q := f.query(src, dst, d, p, t, 0)
	defer f.release(q)
	q.Probe = int(probeIdx)

	// IDSes observe every probe that reaches their AS, even ones that
	// will go unanswered; a blocked source gets silence.
	for _, ids := range f.cfg.IDSes {
		if ids.RecordProbe(q) {
			return nil
		}
	}

	verdict, _ := f.cfg.Engine.Evaluate(q)
	if verdict == policy.Silent {
		return nil
	}

	// Path conditions apply to everything beyond policy drops. The path's
	// loss parameters are looked up once and shared by all three draws.
	path := f.cfg.Loss.Path(f.org.ID, d.AS.Number, f.trial)
	if f.pathDown(&path, dst, d.AS, t) {
		return nil
	}
	// Independent per-packet loss: the probe (direction 0) and its
	// response (direction 1) can each be dropped.
	if path.PacketLost(dst, probeIdx*2, t) || path.PacketLost(dst, probeIdx*2+1, t) {
		return nil
	}

	if verdict == policy.RefuseTCP {
		return packet.MakeRST(dst, src, tcph.DstPort, tcph.SrcPort, 0, tcph.Seq+1)
	}
	if !d.Host || !d.Services.Has(p) {
		// Live networks answer closed ports with RST only when a
		// machine owns the address; empty space stays silent.
		if d.Host {
			return packet.MakeRST(dst, src, tcph.DstPort, tcph.SrcPort, 0, tcph.Seq+1)
		}
		return nil
	}

	// Host answers. ResetAfterAccept/CloseAfterAccept hosts still
	// SYN-ACK (they kill the connection later, as Alibaba's SSH hosts
	// do).
	seq := f.isnKey.Uint64(dst.Word64(), uint64(t))
	return packet.MakeSYNACK(dst, src, tcph.DstPort, tcph.SrcPort, uint32(seq), tcph.Seq+1)
}

// Dial implements zgrab.Dialer: attempt a full TCP connection for an
// application-layer grab. A canceled context fails the dial immediately
// with the context's error.
func (f *Fabric) Dial(ctx context.Context, dst ip.Addr, port uint16, t time.Duration, attempt int) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := f.fib.Resolve(dst)
	if !d.Routed {
		return nil, zgrab.ErrTimeout
	}
	p, isProto := proto.FromPort(port)
	if !isProto {
		return nil, zgrab.ErrRefused
	}
	if d.Host && f.cfg.Churn.Offline(dst, f.trial) {
		return nil, zgrab.ErrTimeout
	}
	src := origin.SourceFor(f.org.SourceIPs, dst)
	q := f.query(src, dst, d, p, t, attempt)
	defer f.release(q)

	verdict, _ := f.cfg.Engine.Evaluate(q)
	for _, ids := range f.cfg.IDSes {
		if v, ok := ids.Evaluate(q); ok && v == policy.Silent {
			return nil, zgrab.ErrTimeout
		}
	}
	switch verdict {
	case policy.Silent:
		return nil, zgrab.ErrTimeout
	case policy.RefuseTCP:
		return nil, zgrab.ErrRefused
	}
	path := f.cfg.Loss.Path(f.org.ID, d.AS.Number, f.trial)
	if f.pathDown(&path, dst, d.AS, t) {
		return nil, zgrab.ErrTimeout
	}
	if !d.Host || !d.Services.Has(p) {
		return nil, zgrab.ErrRefused
	}
	// Per-packet loss over the whole handshake exchange: on loss the
	// connection times out mid-handshake.
	if path.HandshakeFailed(dst, attempt) {
		return nil, zgrab.ErrTimeout
	}

	client, server := vconn.Pipe(src, dst)
	switch verdict {
	// Reset/close-after-accept tear down synchronously, before the client
	// sees the conn: spawned teardown raced the grabber's first write
	// (write-then-close → FIN/EOF, close-then-write → EPIPE/RST), making
	// the recorded FailMode depend on goroutine scheduling. CloseAfterAccept
	// is a half-close so the client's write is accepted either way.
	case policy.ResetAfterAccept:
		server.Abort()
	case policy.CloseAfterAccept:
		server.CloseWrite()
	default:
		f.conns.Add(1)
		f.active.Add(1)
		f.opened.Add(1)
		go func() {
			defer f.active.Add(-1)
			defer f.conns.Done()
			f.cfg.Hosts.Serve(server, dst, p)
		}()
	}
	return client, nil
}

// Drain blocks until every per-connection server goroutine this fabric
// spawned has exited, or ctx is done. A scan seals its results only after a
// successful drain, so no goroutine outlives its scan.
func (f *Fabric) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		f.conns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return pipeline.Canceled(ctx.Err())
	}
}

// ActiveConns reports how many per-connection server goroutines are live.
func (f *Fabric) ActiveConns() int { return int(f.active.Load()) }

// ConnsOpened reports how many served connections the fabric has opened in
// total (connections refused, reset, or half-closed before serving are not
// counted — they never spawned a server goroutine).
func (f *Fabric) ConnsOpened() uint64 { return f.opened.Load() }
