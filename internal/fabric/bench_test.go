package fabric

import (
	"context"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/ip"
	"repro/internal/loss"
	"repro/internal/origin"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// benchFabric builds a quiet fabric over a small world plus one probe packet
// per destination class: a live host, routed-but-empty space, and unrouted
// space. These are the three Send paths the sweep fast path distinguishes.
func benchFabric(b *testing.B) (fab *Fabric, src ip.Addr, host, empty, unrouted []byte) {
	b.Helper()
	w, err := world.Build(context.Background(), world.Spec{Seed: 5, Scale: 0.00002})
	if err != nil {
		b.Fatal(err)
	}
	cfg := &Config{
		World:  w,
		Engine: policy.NewEngine(),
		Loss: loss.NewMatrix(rng.NewKey(1).Derive("t"), loss.Config{
			BasePacketDrop: 1e-9, VolatileMax: 1e-9,
			VolatileSpreadFrac: 1e-9, VolatileModerateFrac: 1e-9,
		}),
		NumOrigins: 1,
		Hosts:      hostsim.NewServer(rng.NewKey(2)),
	}
	fab = New(cfg, w.Origins.Get(origin.US1), 0)
	src = w.Origins.Get(origin.US1).SourceIPs[0]

	var hostAddr, emptyAddr ip.Addr
	hostAddr = w.Hosts()[0].Addr
	for _, a := range w.Routes.All() {
		pfx := a.Prefixes[0]
		for i := uint64(0); i < pfx.NumAddrs(); i++ {
			if _, isHost := w.Lookup(pfx.Nth(i)); !isHost {
				emptyAddr = pfx.Nth(i)
				break
			}
		}
		if emptyAddr != (ip.Addr{}) {
			break
		}
	}
	if emptyAddr == (ip.Addr{}) {
		b.Fatal("no empty routed address found")
	}
	// The scanner source block is allocated outside announced space.
	unroutedAddr := src.Add(1)
	if _, ok := w.ASOf(unroutedAddr); ok {
		b.Fatal("expected unrouted address")
	}

	mk := func(dst ip.Addr) []byte {
		return packet.MakeSYN(src, dst, 40000, proto.HTTP.Port(), 0xdead0000, 0)
	}
	return fab, src, mk(hostAddr), mk(emptyAddr), mk(unroutedAddr)
}

// BenchmarkFabricSend measures one SYN evaluation per destination class.
// The routed/empty and unrouted cases are the per-probe cost the sweep pays
// for the overwhelming majority of scan positions; the host case includes
// building the SYN-ACK response packet. "probebatch" is the typed batch the
// sweep calls instead, priced per target.
func BenchmarkFabricSend(b *testing.B) {
	fab, src, host, empty, unrouted := benchFabric(b)
	for _, bc := range []struct {
		name string
		pkt  []byte
	}{{"host", host}, {"routed-empty", empty}, {"unrouted", unrouted}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fab.Send(src, bc.pkt, time.Hour)
			}
		})
	}
	b.Run("hitlist-v6", benchSendHitlistV6)
	b.Run("probebatch", benchProbeBatchHitlistV6)
}

// hitlistV6Fabric is the bench hitlist workload's world (64 providers) under
// its calibrated scenario — one block, set-block or fence rule for most
// providers plus the global scatter, the largest rule list any scenario
// builds — with a CEN fabric over it, the hitlist (live hosts, stale and
// unrouted tails) and the rule count.
func hitlistV6Fabric(b *testing.B) (*Fabric, *origin.Origin, []ip.Addr, int) {
	w, err := world.BuildV6(context.Background(), world.V6Spec{Seed: 5, Providers: 64, IslandsPerProvider: 8, HostsPerIsland: 24})
	if err != nil {
		b.Fatal(err)
	}
	sc := scenario.New(w, scenario.Config{Trials: 1})
	org := w.Origins.Get(origin.CEN)
	fab := New(&Config{
		World: w, Engine: sc.Engine, IDSes: policy.Detectors(sc.IDSes),
		Loss: sc.Loss, Outages: sc.Outages[proto.HTTP], Churn: sc.Churn,
		NumOrigins: 7, Hosts: sc.Hosts,
	}, org, 0)
	return fab, org, w.Hitlist(), len(sc.Engine.Rules())
}

// benchSendHitlistV6 is BenchmarkFabricSend's "hitlist-v6" class: probes
// walking the hitlist world's targets as a scan does, one Send each. It is
// the unit number for what compiling the rule list per destination AS buys:
// ns/probe here used to grow with the rule count.
func benchSendHitlistV6(b *testing.B) {
	fab, org, hitlist, rules := hitlistV6Fabric(b)
	buf := make([]byte, 0, 2*packet.ReplyCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := hitlist[i%len(hitlist)]
		src := origin.SourceFor(org.SourceIPs, dst)
		buf = packet.MakeSYNInto(buf, src, dst, 40000, proto.HTTP.Port(), 0xdead0000, 0)
		fab.Send(src, buf, time.Duration(i%len(hitlist))*time.Second)
	}
	b.ReportMetric(float64(rules), "rules")
}

// benchProbeBatchHitlistV6 is BenchmarkFabricSend's "probebatch" class: the
// same world and targets answered as the sweep asks, ProbeBatch over
// 4096-target windows with two back-to-back probes each. One op is one
// target, so ns/op is ns/target: what drawing a target's shared fate once
// instead of once per probe buys. An untimed pass over the hitlist first
// compiles every plan the loop touches, so a short run does not time that.
func benchProbeBatchHitlistV6(b *testing.B) {
	fab, org, hitlist, _ := hitlistV6Fabric(b)
	const window, probes = 4096, 2
	dsts := make([]ip.Addr, window)
	ts := make([]time.Duration, window)
	synAcks, rsts := make([]uint8, window), make([]uint8, window)
	run := func(targets int) {
		for base := 0; base < targets; base += window {
			n := min(window, targets-base)
			for i := range dsts[:n] {
				k := (base + i) % len(hitlist)
				dsts[i], ts[i] = hitlist[k], time.Duration(k)*time.Second
			}
			fab.ProbeBatch(org.SourceIPs, proto.HTTP.Port(), probes, 0, dsts[:n], ts[:n], synAcks[:n], rsts[:n])
		}
	}
	run(len(hitlist))
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// benchGrabFabric builds the grab-stage benchmark fixture: a quiet fabric
// plus the world's full host list. Grabbing every host with every protocol
// walks the mix a real grab stage sees — accepted handshakes on hosts
// running the service, refused dials on hosts that don't.
func benchGrabFabric(b *testing.B) (*Fabric, *zgrab.Grabber, []ip.Addr) {
	b.Helper()
	w, err := world.Build(context.Background(), world.Spec{Seed: 5, Scale: 0.00002})
	if err != nil {
		b.Fatal(err)
	}
	cfg := &Config{
		World:  w,
		Engine: policy.NewEngine(),
		Loss: loss.NewMatrix(rng.NewKey(1).Derive("t"), loss.Config{
			BasePacketDrop: 1e-9, VolatileMax: 1e-9,
			VolatileSpreadFrac: 1e-9, VolatileModerateFrac: 1e-9,
		}),
		NumOrigins: 1,
		Hosts:      hostsim.NewServer(rng.NewKey(2)),
	}
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	hosts := make([]ip.Addr, len(w.Hosts()))
	for i, h := range w.Hosts() {
		hosts[i] = h.Addr
	}
	g := &zgrab.Grabber{Dialer: fab}
	return fab, g, hosts
}

// grabBenchWindow mirrors the experiment layer's grab window size.
const grabBenchWindow = 4096

// BenchmarkGrabFast measures ns/grab on the grab path: batched pre-dial
// verdicts per 4096-target window, handshakes read from the exchange table.
func BenchmarkGrabFast(b *testing.B) {
	fab, g, hosts := benchGrabFabric(b)
	ps := proto.All()
	ctx := context.Background()
	dsts := make([]ip.Addr, grabBenchWindow)
	ts := make([]time.Duration, grabBenchWindow)
	vs := make([]zgrab.DialVerdict, grabBenchWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for base := 0; base < b.N; base += grabBenchWindow {
		n := grabBenchWindow
		if base+n > b.N {
			n = b.N - base
		}
		p := ps[(base/grabBenchWindow)%len(ps)]
		for i := 0; i < n; i++ {
			dsts[i] = hosts[(base+i)%len(hosts)]
			ts[i] = time.Hour
		}
		fab.PredialBatch(dsts[:n], ts[:n], p.Port(), vs[:n])
		for i := 0; i < n; i++ {
			g.GrabFast(ctx, p, dsts[i], ts[i], vs[i])
		}
	}
}

// BenchmarkGrabByVerdict prices one GrabFast per protocol × verdict
// (the verdict is forced, so every iteration takes the same path); with
// -benchmem it prints the per-verdict table behind DESIGN.md § 8.3's
// allocation budget.
func BenchmarkGrabByVerdict(b *testing.B) {
	_, g, hosts := benchGrabFabric(b)
	ctx := context.Background()
	for _, p := range proto.All() {
		for _, v := range []struct {
			name string
			v    zgrab.DialVerdict
		}{
			{"connect", zgrab.DialConnect}, {"reset", zgrab.DialReset}, {"half-close", zgrab.DialHalfClose},
			{"timeout", zgrab.DialTimeout}, {"refused", zgrab.DialRefused},
		} {
			b.Run(p.String()+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g.GrabFast(ctx, p, hosts[i%len(hosts)], time.Hour, v.v)
				}
			})
		}
	}
}
