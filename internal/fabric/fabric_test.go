package fabric

import (
	"bytes"
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
	"repro/internal/world"
	"repro/internal/zgrab"
)

// quietConfig builds a fabric config over a tiny world with negligible loss
// and no blocking, so tests can layer behaviours explicitly.
func quietConfig(t *testing.T, rules ...policy.Rule) (*Config, *world.World) {
	t.Helper()
	w, err := world.Build(context.Background(), world.Spec{Seed: 5, Scale: 0.00002})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		World:  w,
		Engine: policy.NewEngine(rules...),
		Loss: loss.NewMatrix(rng.NewKey(1).Derive("t"), loss.Config{
			BasePacketDrop: 1e-9, VolatileMax: 1e-9,
			VolatileSpreadFrac: 1e-9, VolatileModerateFrac: 1e-9,
		}),
		NumOrigins: 1,
		Hosts:      hostsim.NewServer(rng.NewKey(2)),
	}
	return cfg, w
}

// pickHost returns a host running p and one not running p.
func pickHost(t *testing.T, w *world.World, p proto.Protocol) (with ip.Addr, without ip.Addr) {
	t.Helper()
	var gotWith, gotWithout bool
	for _, h := range w.Hosts() {
		if h.Services.Has(p) && !gotWith {
			with, gotWith = h.Addr, true
		}
		if !h.Services.Has(p) && !gotWithout {
			without, gotWithout = h.Addr, true
		}
		if gotWith && gotWithout {
			return with, without
		}
	}
	t.Fatal("world lacks required hosts")
	return ip.Addr{}, ip.Addr{}
}

func synTo(w *world.World, o origin.ID, dst ip.Addr, port uint16) (src ip.Addr, pkt []byte, seq uint32) {
	src = w.Origins.Get(o).SourceIPs[0]
	seq = 0xdead0000
	return src, packet.MakeSYN(src, dst, 40000, port, seq, 0), seq
}

func TestSendSYNACKForLiveHost(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	host, _ := pickHost(t, w, proto.HTTP)
	src, syn, seq := synTo(w, origin.US1, host, 80)
	resp := fab.Send(src, syn, time.Hour)
	if resp == nil {
		t.Fatal("live host did not answer")
	}
	iph, tcph, _, err := packet.DecodeTCP4(resp)
	if err != nil {
		t.Fatal(err)
	}
	if iph.Src != host || iph.Dst != src {
		t.Errorf("response addressing: %v -> %v", iph.Src, iph.Dst)
	}
	if !tcph.HasFlag(packet.FlagSYN|packet.FlagACK) || tcph.Ack != seq+1 {
		t.Errorf("response not a valid SYN-ACK: flags=%#x ack=%d", tcph.Flags, tcph.Ack)
	}
}

func TestSendRSTForClosedPort(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	_, hostWithoutSSH := pickHost(t, w, proto.SSH)
	src, syn, _ := synTo(w, origin.US1, hostWithoutSSH, 22)
	resp := fab.Send(src, syn, time.Hour)
	if resp == nil {
		t.Fatal("live host with closed port must RST")
	}
	_, tcph, _, err := packet.DecodeTCP4(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !tcph.HasFlag(packet.FlagRST) {
		t.Errorf("expected RST, got flags %#x", tcph.Flags)
	}
}

func TestSendSilenceForEmptySpaceAndUnrouted(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	// An address inside the space but (very likely) not announced:
	// scanner source addresses are outside announced prefixes.
	src := w.Origins.Get(origin.US1).SourceIPs[0]
	syn := packet.MakeSYN(src, src.Add(1), 40000, 80, 1, 0)
	if resp := fab.Send(src, syn, 0); resp != nil {
		t.Error("unrouted space answered")
	}
	// Unannounced empty space inside a prefix: pick an address in an AS
	// prefix that is not a host.
	for _, a := range w.Routes.All() {
		pfx := a.Prefixes[0]
		for i := uint64(0); i < pfx.NumAddrs(); i++ {
			addr := pfx.Nth(i)
			if _, isHost := w.Lookup(addr); !isHost {
				syn := packet.MakeSYN(src, addr, 40000, 80, 1, 0)
				if resp := fab.Send(src, syn, 0); resp != nil {
					t.Fatal("empty routed address answered")
				}
				return
			}
		}
	}
}

func TestSendIgnoresGarbageAndNonSYN(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	if fab.Send(ip.AddrFrom4(1), []byte{1, 2, 3}, 0) != nil {
		t.Error("garbage packet answered")
	}
	host, _ := pickHost(t, w, proto.HTTP)
	src := w.Origins.Get(origin.US1).SourceIPs[0]
	ack := packet.SerializeTCP4(
		&packet.IPv4Header{Src: src, Dst: host, TTL: 64},
		&packet.TCPHeader{SrcPort: 40000, DstPort: 80, Flags: packet.FlagACK},
		nil,
	)
	if fab.Send(src, ack, 0) != nil {
		t.Error("non-SYN packet answered")
	}
}

func TestSendSilentPolicy(t *testing.T) {
	cfg, w := quietConfig(t, &policy.StaticBlock{
		RuleName: "block-all", Action: policy.Silent,
	})
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	host, _ := pickHost(t, w, proto.HTTP)
	src, syn, _ := synTo(w, origin.US1, host, 80)
	if fab.Send(src, syn, time.Hour) != nil {
		t.Error("silently blocked host answered")
	}
}

// grab is one grab of p against dst through fab: Predial, then GrabFast.
func grab(fab *Fabric, p proto.Protocol, dst ip.Addr) zgrab.Result {
	g := &zgrab.Grabber{Dialer: fab}
	return g.GrabFast(context.Background(), p, dst, time.Hour, fab.Predial(dst, p.Port(), time.Hour, 0))
}

func TestDialAndGrabThroughFabric(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	host, _ := pickHost(t, w, proto.HTTP)
	res := grab(fab, proto.HTTP, host)
	if !res.Success {
		t.Fatalf("grab failed: %+v", res)
	}
	if res.Banner == "" {
		t.Error("no banner")
	}
	if n := fab.ConnsOpened(); n != 1 {
		t.Errorf("ConnsOpened = %d after one served grab", n)
	}
}

func TestDialRefusedForClosedPort(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	_, hostWithoutSSH := pickHost(t, w, proto.SSH)
	if v := fab.Predial(hostWithoutSSH, 22, time.Hour, 0); v != zgrab.DialRefused {
		t.Errorf("verdict = %d, want DialRefused", v)
	}
	if res := grab(fab, proto.SSH, hostWithoutSSH); res.Fail != zgrab.FailRefused {
		t.Errorf("grab = %+v, want FailRefused", res)
	}
}

func TestDialResetAfterAcceptBehaviour(t *testing.T) {
	cfg, w := quietConfig(t, &policy.StaticBlock{
		RuleName: "alibaba-like", Action: policy.ResetAfterAccept,
	})
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	host, _ := pickHost(t, w, proto.SSH)
	// L4 still answers (the paper: Alibaba hosts SYN-ACK then reset).
	src, syn, _ := synTo(w, origin.US1, host, 22)
	if fab.Send(src, syn, time.Hour) == nil {
		t.Fatal("ResetAfterAccept host must still SYN-ACK")
	}
	res := grab(fab, proto.SSH, host)
	if res.Success || res.Fail != zgrab.FailReset {
		t.Errorf("grab = %+v, want FailReset", res)
	}
}

func TestDialCloseAfterAcceptBehaviour(t *testing.T) {
	cfg, w := quietConfig(t, &policy.StaticBlock{
		RuleName: "maxstartups-like", Action: policy.CloseAfterAccept,
	})
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	host, _ := pickHost(t, w, proto.SSH)
	res := grab(fab, proto.SSH, host)
	if res.Success || res.Fail != zgrab.FailClosed {
		t.Errorf("grab = %+v, want FailClosed", res)
	}
	if n := fab.ConnsOpened(); n != 0 {
		t.Errorf("ConnsOpened = %d after a half-closed grab", n)
	}
}

func TestIDSBlocksAfterProbeVolume(t *testing.T) {
	cfg, w := quietConfig(t)
	host, _ := pickHost(t, w, proto.HTTP)
	as, _ := w.ASOf(host)
	ids := &policy.IDS{RuleName: "ids", AS: as.Number, Threshold: 5, Action: policy.Silent}
	cfg.IDSes = policy.Detectors([]*policy.IDS{ids})
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	src, syn, _ := synTo(w, origin.US1, host, 80)
	// First probes answered; after threshold, silence.
	answered, silent := 0, 0
	for i := 0; i < 10; i++ {
		if fab.Send(src, syn, time.Hour) != nil {
			answered++
		} else {
			silent++
		}
	}
	if answered == 0 || silent == 0 {
		t.Fatalf("IDS transition not observed: answered=%d silent=%d", answered, silent)
	}
	// Once detected, dialing also fails.
	if res := grab(fab, proto.HTTP, host); res.Fail != zgrab.FailTimeout {
		t.Errorf("grab after detection = %+v, want timeout", res)
	}
}

func TestEpisodeKillsProbesAndDial(t *testing.T) {
	cfg, w := quietConfig(t)
	host, _ := pickHost(t, w, proto.HTTP)
	as, _ := w.ASOf(host)
	// Rebuild loss with no loss anywhere but a certain episode (a 100%
	// episode rate) on the host's path.
	cfg.Loss = loss.NewMatrix(rng.NewKey(9).Derive("t"), loss.Config{
		BasePacketDrop: 1e-9, VolatileMax: 1e-9,
		VolatileSpreadFrac: 1e-9, VolatileModerateFrac: 1e-9,
		StableAlpha: 1,
		Overrides: map[loss.Pair]loss.Params{
			{Origin: origin.US1, AS: as.Number}: {PacketDrop: 1e-9, EpisodeRate: 0.9999999},
		},
	})
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	src, syn, _ := synTo(w, origin.US1, host, 80)
	if fab.Send(src, syn, time.Hour) != nil {
		t.Error("probe survived a full-loss episode")
	}
	if res := grab(fab, proto.HTTP, host); res.Fail != zgrab.FailTimeout {
		t.Errorf("grab during episode = %+v, want timeout", res)
	}
}

// TestSendZeroAllocs is the probe-evaluation allocation guard, mirroring
// the sweep guard in internal/zmap: Send must allocate nothing — not for
// probes it answers with silence (unrouted space, routed-but-empty space, a
// churned-offline host: the overwhelming majority of a sweep's positions),
// and not for answered ones (SYN-ACK from an open port, RST from a closed
// one) when the probe buffer has room for the reply behind the SYN, as the
// scanner's does — and neither must ProbeBatch, for a whole sweep batch. Both
// address families.
func TestSendZeroAllocs(t *testing.T) {
	cfg, w := quietConfig(t)
	w6, err := world.BuildV6(context.Background(), world.TestV6Spec(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg6 := *cfg
	cfg6.World = w6
	for _, fam := range []struct {
		name string
		cfg  *Config
		w    *world.World
	}{{"v4", cfg, w}, {"v6", &cfg6, w6}} {
		cfg, w := fam.cfg, fam.w
		cfg.Churn = world.NewChurn(rng.NewKey(7), 0.3, 3)
		fab := New(cfg, w.Origins.Get(origin.US1), 0)
		src := w.Origins.Get(origin.US1).SourceIPs[0]

		var empty ip.Addr
		for _, a := range w.Routes.All() {
			pfx := a.Prefixes[0]
			for i := uint64(0); i < 4096 && i < pfx.NumAddrs() && empty == (ip.Addr{}); i++ {
				if _, isHost := w.Lookup(pfx.Nth(i)); !isHost {
					empty = pfx.Nth(i)
				}
			}
			if empty != (ip.Addr{}) {
				break
			}
		}
		if empty == (ip.Addr{}) {
			t.Fatal("no empty routed address")
		}
		var offline, open, closed ip.Addr
		for _, h := range w.Hosts() {
			switch {
			case cfg.Churn.Offline(h.Addr, 0):
				offline = h.Addr
			case h.Services.Has(proto.HTTP):
				open = h.Addr
			default:
				closed = h.Addr
			}
		}
		if offline == (ip.Addr{}) || open == (ip.Addr{}) || closed == (ip.Addr{}) {
			t.Fatalf("%s world lacks an offline, an open-port and a closed-port host", fam.name)
		}
		cases := []struct {
			name  string
			dst   ip.Addr
			flags uint8 // of the expected reply; 0 for silence
		}{
			{"unrouted", src.Add(1), 0},
			{"routed-empty", empty, 0},
			{"churned-offline-host", offline, 0},
			{"syn-ack", open, packet.FlagSYN | packet.FlagACK},
			{"rst", closed, packet.FlagRST | packet.FlagACK},
		}
		for _, tc := range cases {
			// The scanner's buffer shape: the SYN with room for the reply
			// behind it.
			syn := packet.MakeSYNInto(make([]byte, 0, 2*packet.ReplyCap), src, tc.dst, 40000, 80, 1, 0)
			// Warm the query pool and compile the plan outside the
			// measured runs so the guard measures the steady state the
			// sweep sees.
			if got := replyFlags(t, fab.Send(src, syn, time.Hour)); got != tc.flags {
				t.Fatalf("%s/%s: reply flags %#x, want %#x", fam.name, tc.name, got, tc.flags)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if resp := fab.Send(src, syn, time.Hour); (resp != nil) != (tc.flags != 0) {
					t.Fatal("answer changed between runs")
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: Send allocates %.1f per probe, want 0", fam.name, tc.name, allocs)
			}
		}
		// The typed path: one sweep batch of the same five destination
		// classes, two probes each, allocates nothing after first touch —
		// the resolve scratch is on ProbeBatch's stack.
		const batch = 4096
		dsts, ts := make([]ip.Addr, batch), make([]time.Duration, batch)
		synAcks, rsts := make([]uint8, batch), make([]uint8, batch)
		for i := range dsts {
			dsts[i], ts[i] = cases[i%len(cases)].dst, time.Hour
		}
		srcs := []ip.Addr{src}
		probeBatch := func() { fab.ProbeBatch(srcs, 80, 2, 0, dsts, ts, synAcks, rsts) }
		probeBatch()
		for i := range dsts {
			var wantSA, wantRST uint8
			switch cases[i%len(cases)].flags {
			case packet.FlagSYN | packet.FlagACK:
				wantSA = 0b11
			case packet.FlagRST | packet.FlagACK:
				wantRST = 0b11
			}
			if synAcks[i] != wantSA || rsts[i] != wantRST {
				t.Fatalf("%s/%s: ProbeBatch answered %02b/%02b, want %02b/%02b", fam.name, cases[i%len(cases)].name, synAcks[i], rsts[i], wantSA, wantRST)
			}
		}
		if allocs := testing.AllocsPerRun(10, probeBatch); allocs != 0 {
			t.Errorf("%s: ProbeBatch allocates %.1f per %d-target batch, want 0", fam.name, allocs, batch)
		}
		// With no room behind the probe the reply is a fresh slice that
		// leaves the caller's buffer alone.
		tight := packet.MakeSYN(src, open, 40000, 80, 1, 0)
		before := append([]byte(nil), tight[:cap(tight)]...)
		if resp := fab.Send(src, tight, time.Hour); replyFlags(t, resp) != packet.FlagSYN|packet.FlagACK {
			t.Errorf("%s: no SYN-ACK for a probe buffer without spare capacity", fam.name)
		}
		if !bytes.Equal(before, tight[:cap(tight)]) {
			t.Errorf("%s: Send wrote into a probe buffer with no spare capacity", fam.name)
		}
	}
}

func TestFabricDeterministic(t *testing.T) {
	cfg, w := quietConfig(t)
	host, _ := pickHost(t, w, proto.HTTP)
	src, syn, _ := synTo(w, origin.AU, host, 80)
	fab1 := New(cfg, w.Origins.Get(origin.AU), 1)
	fab2 := New(cfg, w.Origins.Get(origin.AU), 1)
	for i := 0; i < 50; i++ {
		r1 := fab1.Send(src, syn, time.Duration(i)*time.Minute)
		r2 := fab2.Send(src, syn, time.Duration(i)*time.Minute)
		if (r1 == nil) != (r2 == nil) {
			t.Fatal("fabric behaviour not deterministic")
		}
	}
}

// TestFabricRoutedBatchMatchesRouted pins the fabric's batch routability
// (what the batched sweep kernel consults) to the per-address Routed answer
// for every address in the world's scan space.
func TestFabricRoutedBatchMatchesRouted(t *testing.T) {
	cfg, w := quietConfig(t)
	fab := New(cfg, w.Origins.Get(origin.US1), 0)
	const batch = 4096
	dst := make([]ip.Addr, 0, batch)
	routed := make([]bool, batch)
	flush := func() {
		fab.RoutedBatch(dst, routed[:len(dst)])
		for i, a := range dst {
			if routed[i] != fab.Routed(a) {
				t.Fatalf("RoutedBatch(%v) = %v, Routed = %v", a, routed[i], fab.Routed(a))
			}
		}
		dst = dst[:0]
	}
	for a := uint64(0); a < w.SpaceSize(); a++ {
		dst = append(dst, ip.AddrFrom4(uint32(a)))
		if len(dst) == batch {
			flush()
		}
	}
	flush()
}
