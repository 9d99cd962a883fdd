package zmap

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/packet"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// a4 abbreviates v4 test addresses.
func a4(v uint32) ip.Addr { return ip.AddrFrom4(v) }

func TestPermutationCoversSpaceExactlyOnce(t *testing.T) {
	key := rng.NewKey(42)
	pm, err := NewPermutation(key, 12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 1<<12)
	it := pm.Iterate()
	count := 0
	for {
		a, ok := it.Next()
		if !ok {
			break
		}
		if seen[a] {
			t.Fatalf("address %d visited twice", a)
		}
		seen[a] = true
		count++
	}
	if count != 1<<12 {
		t.Fatalf("visited %d of %d addresses", count, 1<<12)
	}
}

func TestPermutationShardsPartitionSpace(t *testing.T) {
	key := rng.NewKey(7)
	const shards = 5
	seen := make(map[uint32]int)
	for s := 0; s < shards; s++ {
		pm, err := NewPermutation(key, 10, s, shards)
		if err != nil {
			t.Fatal(err)
		}
		it := pm.Iterate()
		for {
			a, ok := it.Next()
			if !ok {
				break
			}
			seen[a]++
		}
	}
	if len(seen) != 1<<10 {
		t.Fatalf("shards covered %d of %d addresses", len(seen), 1<<10)
	}
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("address %d visited %d times across shards", a, n)
		}
	}
}

func TestPermutationDeterministicAndSeedSensitive(t *testing.T) {
	collect := func(seed uint64) []uint32 {
		pm, err := NewPermutation(rng.NewKey(seed), 8, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint32
		it := pm.Iterate()
		for {
			a, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, a)
		}
		return out
	}
	a, b, c := collect(1), collect(1), collect(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different orders")
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced the same order")
	}
}

// TestPermutationNextBatchMatchesNext pins the batched walk to the serial
// one: for every shard of several shard counts, NextBatch (at an awkward
// batch size that never divides the shard length evenly) must emit
// byte-for-byte the sequence repeated Next calls produce, including the
// final partial batch.
func TestPermutationNextBatchMatchesNext(t *testing.T) {
	key := rng.NewKey(11)
	for _, shards := range []int{1, 3, 7} {
		for shard := 0; shard < shards; shard++ {
			pm, err := NewPermutation(key, 10, shard, shards)
			if err != nil {
				t.Fatal(err)
			}
			var wantAddrs []uint32
			it := pm.Iterate()
			for {
				a, ok := it.Next()
				if !ok {
					break
				}
				wantAddrs = append(wantAddrs, a)
			}

			const batch = 37 // awkward size: forces a partial final batch
			var gotAddrs []uint32
			buf := make([]uint32, batch)
			it = pm.Iterate()
			for {
				n := it.NextBatch(buf)
				if n == 0 {
					break
				}
				gotAddrs = append(gotAddrs, buf[:n]...)
			}
			if len(gotAddrs) != len(wantAddrs) {
				t.Fatalf("shard %d/%d: NextBatch emitted %d addrs, Next emitted %d",
					shard, shards, len(gotAddrs), len(wantAddrs))
			}
			for i := range gotAddrs {
				if gotAddrs[i] != wantAddrs[i] {
					t.Fatalf("shard %d/%d: NextBatch addr[%d] = %d, Next = %d",
						shard, shards, i, gotAddrs[i], wantAddrs[i])
				}
			}

		}
	}
}

// TestPermutationBatchResumable checks a batch walk interrupted and resumed
// with differently-sized buffers still matches the serial sequence: the
// iterator state the batch persists must be exact, not merely
// batch-boundary-aligned.
func TestPermutationBatchResumable(t *testing.T) {
	pm, err := NewPermutation(rng.NewKey(5), 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	it := pm.Iterate()
	for {
		a, ok := it.Next()
		if !ok {
			break
		}
		want = append(want, a)
	}
	var got []uint32
	it = pm.Iterate()
	sizes := []int{1, 5, 64, 2, 511, 3}
	for i := 0; ; i++ {
		buf := make([]uint32, sizes[i%len(sizes)])
		n := it.NextBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed batches emitted %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("addr[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPermutationOrderIsScattered(t *testing.T) {
	// The order must not be sequential: adjacent emissions should rarely
	// be adjacent addresses (that is the whole point of the group walk).
	pm, err := NewPermutation(rng.NewKey(3), 14, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	it := pm.Iterate()
	prev, _ := it.Next()
	adjacent := 0
	total := 0
	for {
		a, ok := it.Next()
		if !ok {
			break
		}
		total++
		d := int64(a) - int64(prev)
		if d == 1 || d == -1 {
			adjacent++
		}
		prev = a
	}
	if adjacent > total/100 {
		t.Errorf("%d/%d adjacent emissions: order not scattered", adjacent, total)
	}
}

func TestPermutationModulusIsPrime(t *testing.T) {
	pm, err := NewPermutation(rng.NewKey(1), 16, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !isPrime(pm.Modulus()) {
		t.Fatalf("modulus %d not prime", pm.Modulus())
	}
	if pm.Modulus() <= pm.Space() {
		t.Fatalf("modulus %d must exceed space %d", pm.Modulus(), pm.Space())
	}
}

func TestPermutationBadArgs(t *testing.T) {
	if _, err := NewPermutation(rng.NewKey(1), 0, 0, 1); err == nil {
		t.Error("space 0 accepted")
	}
	if _, err := NewPermutation(rng.NewKey(1), 33, 0, 1); err == nil {
		t.Error("space 33 accepted")
	}
	if _, err := NewPermutation(rng.NewKey(1), 8, 1, 1); err == nil {
		t.Error("shard >= shards accepted")
	}
	if _, err := NewPermutation(rng.NewKey(1), 8, -1, 2); err == nil {
		t.Error("negative shard accepted")
	}
}

func TestMathHelpers(t *testing.T) {
	if mulmod(1<<40, 1<<40, 1000003) != mulmodNaive(1<<40, 1<<40, 1000003) {
		t.Error("mulmod wrong on large operands")
	}
	if mulmodPow(3, 0, 17) != 1 || mulmodPow(3, 4, 17) != 81%17 {
		t.Error("mulmodPow wrong")
	}
	if nextPrime(90) != 97 || nextPrime(97) != 97 || nextPrime(2) != 2 {
		t.Error("nextPrime wrong")
	}
	fs := factorize(360)
	want := []uint64{2, 3, 5}
	if len(fs) != 3 || fs[0] != want[0] || fs[1] != want[1] || fs[2] != want[2] {
		t.Errorf("factorize(360) = %v", fs)
	}
}

// mulmodNaive is an independent reference: schoolbook 32-bit-limb multiply
// plus bit-by-bit long division, sharing no code path with the production
// bits.Mul64/bits.Div64/Shoup implementations it checks.
func mulmodNaive(a, b, m uint64) uint64 {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo := t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hi := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi += t >> 32
	hi += aHi * bHi
	rem := uint64(0)
	for i := 127; i >= 0; i-- {
		rem <<= 1
		var bit uint64
		if i >= 64 {
			bit = (hi >> uint(i-64)) & 1
		} else {
			bit = (lo >> uint(i)) & 1
		}
		rem |= bit
		if rem >= m {
			rem -= m
		}
	}
	return rem
}

// TestMulmodShoup checks the division-free fixed-multiplier path against
// the naive reference across moduli bracketing the SpaceBits=32 prime.
func TestMulmodShoup(t *testing.T) {
	moduli := []uint64{3, 17, 1000003, 1<<32 + 15, 1<<62 - 57}
	str := rng.NewKey(7).Derive("shouptest").Stream(0)
	for _, m := range moduli {
		for i := 0; i < 200; i++ {
			a := str.Uint64n(m)
			b := str.Uint64n(m)
			got := mulmodShoup(a, b, shoupFactor(b, m), m)
			if want := mulmodNaive(a, b, m); got != want {
				t.Fatalf("mulmodShoup(%d, %d, %d) = %d, want %d", a, b, m, got, want)
			}
		}
	}
}

// fakeSink answers SYNs for a configured set of live hosts, optionally
// dropping specific probes and sending RSTs or garbage.
type fakeSink struct {
	live      map[ip.Addr]bool
	closed    map[ip.Addr]bool  // live at L3 but port closed: RST
	dropProbe map[ip.Addr]uint8 // bitmask of probe indices to drop
	garbage   map[ip.Addr]bool  // respond with an invalid packet
	wrongAck  map[ip.Addr]bool  // respond with a bad cookie
	sent      int
}

func (f *fakeSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	f.sent++
	iph, tcph, _, err := packet.DecodeTCP4(pkt)
	if err != nil {
		return nil
	}
	dst := iph.Dst
	probe := uint8(iph.ID)
	if f.dropProbe[dst]&(1<<probe) != 0 {
		return nil
	}
	switch {
	case f.garbage[dst]:
		return []byte{1, 2, 3}
	case f.wrongAck[dst]:
		return packet.MakeSYNACK(dst, src, tcph.DstPort, tcph.SrcPort, 1, tcph.Seq+999)
	case f.closed[dst]:
		return packet.MakeRST(dst, src, tcph.DstPort, tcph.SrcPort, 0, tcph.Seq+1)
	case f.live[dst]:
		return packet.MakeSYNACK(dst, src, tcph.DstPort, tcph.SrcPort, 1000, tcph.Seq+1)
	}
	return nil
}

func testConfig() Config {
	return Config{
		SourceIPs:    []ip.Addr{ip.MustParseAddr("10.99.0.1")},
		TargetPort:   80,
		Probes:       2,
		SpaceBits:    10,
		Seed:         1,
		ScanDuration: time.Hour,
	}
}

func TestScannerFindsLiveHosts(t *testing.T) {
	sink := &fakeSink{
		live: map[ip.Addr]bool{a4(5): true, a4(100): true, a4(1023): true},
	}
	s, err := NewScanner(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := map[ip.Addr]uint8{}
	st, err := s.Run(context.Background(), sink, func(r Reply) { got[r.Dst] = r.ProbeMask })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("found %d hosts, want 3: %v", len(got), got)
	}
	for addr, mask := range got {
		if mask != 0b11 {
			t.Errorf("host %v probe mask %#b, want both probes answered", addr, mask)
		}
	}
	if st.Targets != 1<<10 {
		t.Errorf("targets = %d", st.Targets)
	}
	if st.ProbesSent != 2<<10 {
		t.Errorf("probes sent = %d", st.ProbesSent)
	}
	if st.SynAcks != 6 {
		t.Errorf("synacks = %d", st.SynAcks)
	}
}

func TestScannerDistinguishesProbeLoss(t *testing.T) {
	sink := &fakeSink{
		live:      map[ip.Addr]bool{a4(7): true, a4(8): true, a4(9): true},
		dropProbe: map[ip.Addr]uint8{a4(7): 0b01, a4(8): 0b10, a4(9): 0b11},
	}
	s, _ := NewScanner(testConfig())
	got := map[ip.Addr]uint8{}
	s.Run(context.Background(), sink, func(r Reply) { got[r.Dst] = r.ProbeMask })
	if got[a4(7)] != 0b10 {
		t.Errorf("host 7 mask %#b, want 0b10", got[a4(7)])
	}
	if got[a4(8)] != 0b01 {
		t.Errorf("host 8 mask %#b, want 0b01", got[a4(8)])
	}
	if _, ok := got[a4(9)]; ok {
		t.Error("host 9 reported despite both probes dropped")
	}
}

func TestScannerReportsRSTs(t *testing.T) {
	sink := &fakeSink{closed: map[ip.Addr]bool{a4(50): true}}
	s, _ := NewScanner(testConfig())
	var replies []Reply
	st, err := s.Run(context.Background(), sink, func(r Reply) { replies = append(replies, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || !replies[0].RST || replies[0].ProbeMask != 0 {
		t.Fatalf("replies = %+v", replies)
	}
	if st.Rsts != 2 {
		t.Errorf("rsts = %d, want 2 (both probes answered)", st.Rsts)
	}
}

func TestScannerRejectsInvalidResponses(t *testing.T) {
	sink := &fakeSink{
		garbage:  map[ip.Addr]bool{a4(3): true},
		wrongAck: map[ip.Addr]bool{a4(4): true},
	}
	s, _ := NewScanner(testConfig())
	count := 0
	st, err := s.Run(context.Background(), sink, func(Reply) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("%d hosts accepted from invalid responses", count)
	}
	if st.Invalid < 2 {
		t.Errorf("invalid = %d, want >= 2", st.Invalid)
	}
}

func TestScannerBlocklist(t *testing.T) {
	bl := ip.NewSet()
	bl.Add(ip.MakePrefix(ip.AddrFrom4(0), 24)) // block first /24 of the space
	cfg := testConfig()
	cfg.Blocklist = bl
	sink := &fakeSink{live: map[ip.Addr]bool{a4(5): true, a4(300): true}}
	s, _ := NewScanner(cfg)
	got := map[ip.Addr]bool{}
	st, err := s.Run(context.Background(), sink, func(r Reply) { got[r.Dst] = true })
	if err != nil {
		t.Fatal(err)
	}
	if got[a4(5)] {
		t.Error("blocklisted host was probed")
	}
	if !got[a4(300)] {
		t.Error("unblocked host missed")
	}
	if st.Blocked != 256 {
		t.Errorf("blocked = %d, want 256", st.Blocked)
	}
}

func TestScannerAllowlist(t *testing.T) {
	al := ip.NewSet()
	al.Add(ip.MakePrefix(ip.AddrFrom4(256), 24)) // allow only second /24
	cfg := testConfig()
	cfg.Allowlist = al
	sink := &fakeSink{live: map[ip.Addr]bool{a4(5): true, a4(300): true}}
	s, _ := NewScanner(cfg)
	got := map[ip.Addr]bool{}
	st, err := s.Run(context.Background(), sink, func(r Reply) { got[r.Dst] = true })
	if err != nil {
		t.Fatal(err)
	}
	if got[a4(5)] || !got[a4(300)] {
		t.Errorf("allowlist: got %v", got)
	}
	if st.Targets != 256 {
		t.Errorf("targets = %d, want 256", st.Targets)
	}
}

func TestScannerMultiSourceRotation(t *testing.T) {
	cfg := testConfig()
	cfg.SourceIPs = nil
	for i := 0; i < 64; i++ {
		cfg.SourceIPs = append(cfg.SourceIPs, ip.AddrFrom4(0x63000000+uint32(i)))
	}
	srcSeen := map[ip.Addr]int{}
	sink := sinkFunc(func(src ip.Addr, pkt []byte, t time.Duration) []byte {
		srcSeen[src]++
		return nil
	})
	s, _ := NewScanner(cfg)
	s.Run(context.Background(), sink, func(Reply) {})
	if len(srcSeen) != 64 {
		t.Fatalf("used %d source IPs, want 64", len(srcSeen))
	}
	// Round-robin by address: each IP covers 1/64 of targets, exactly.
	for src, n := range srcSeen {
		if n != 2*(1<<10)/64 {
			t.Errorf("source %v sent %d probes, want %d", src, n, 2*(1<<10)/64)
		}
	}
}

type sinkFunc func(src ip.Addr, pkt []byte, t time.Duration) []byte

func (f sinkFunc) Send(src ip.Addr, pkt []byte, t time.Duration) []byte { return f(src, pkt, t) }

func TestScannerTimeAdvancesMonotonically(t *testing.T) {
	cfg := testConfig()
	var last time.Duration = -1
	mono := true
	sink := sinkFunc(func(src ip.Addr, pkt []byte, tm time.Duration) []byte {
		if tm < last {
			mono = false
		}
		last = tm
		return nil
	})
	s, _ := NewScanner(cfg)
	s.Run(context.Background(), sink, func(Reply) {})
	if !mono {
		t.Error("virtual time went backwards")
	}
	if last > cfg.ScanDuration || last < cfg.ScanDuration/2 {
		t.Errorf("final time %v, want close to %v", last, cfg.ScanDuration)
	}
}

func TestScannerSynchronizedOriginsShareSchedule(t *testing.T) {
	// Two scanners with the same seed must probe the same targets at the
	// same virtual times — the study's synchronization requirement.
	type probeRec struct {
		dst ip.Addr
		t   time.Duration
	}
	collect := func(srcIP string) []probeRec {
		cfg := testConfig()
		cfg.SourceIPs = []ip.Addr{ip.MustParseAddr(srcIP)}
		var recs []probeRec
		sink := sinkFunc(func(src ip.Addr, pkt []byte, tm time.Duration) []byte {
			iph, _, _, _ := packet.DecodeTCP4(pkt)
			recs = append(recs, probeRec{iph.Dst, tm})
			return nil
		})
		s, _ := NewScanner(cfg)
		s.Run(context.Background(), sink, func(Reply) {})
		return recs
	}
	a, b := collect("10.99.0.1"), collect("10.88.0.1")
	if len(a) != len(b) {
		t.Fatal("different probe counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScannerRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &fakeSink{live: map[ip.Addr]bool{a4(5): true}}
	s, err := NewScanner(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(ctx, sink, func(Reply) {})
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if sink.sent != 0 {
		t.Errorf("%d probes sent after pre-canceled context", sink.sent)
	}
}

func TestScannerCancelMidSweepStopsWithinOneBatch(t *testing.T) {
	cfg := testConfig()
	cfg.SpaceBits = 14 // 16384 targets, 4 batches
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAfter = 100
	sent := 0
	sink := sinkFunc(func(src ip.Addr, pkt []byte, tm time.Duration) []byte {
		sent++
		if sent == cancelAfter {
			cancel()
		}
		return nil
	})
	s, err := NewScanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(ctx, sink, func(Reply) {})
	if !errors.Is(err, pipeline.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The sweep checks the context before each block of sweepBatch group
	// elements, which holds at most sweepBatch targets, so at most one more
	// block of probes goes out after cancellation.
	if max := cancelAfter + cfg.Probes*sweepBatch; sent > max {
		t.Errorf("%d probes sent after cancel, want <= %d", sent, max)
	}
	if total := cfg.Probes << cfg.SpaceBits; sent >= total {
		t.Errorf("sweep ran to completion (%d probes) despite cancellation", sent)
	}
}

// routedSink is a fakeSink that also knows which space is routed,
// implementing Routability. Every host lives in routed space (as in the
// fabric, where the FIB only places hosts inside announced prefixes), so
// answering unrouted probes with silence — which fakeSink does for any
// unknown address — is exactly what the fabric's Send would do.
type routedSink struct {
	fakeSink
	limit         ip.Addr // addresses below limit are routed
	unroutedSends int     // Sends the short-circuit should have skipped
}

func (r *routedSink) Routed(dst ip.Addr) bool { return dst.Less(r.limit) }

func (r *routedSink) Send(src ip.Addr, pkt []byte, t time.Duration) []byte {
	if iph, _, _, err := packet.DecodeTCP4(pkt); err == nil && !r.Routed(iph.Dst) {
		r.unroutedSends++
	}
	return r.fakeSink.Send(src, pkt, t)
}

// TestScannerRoutabilityShortCircuit pins the routed-space fast path: a
// sink exposing Routability must yield bit-identical Stats and replies to
// an equivalent sink without it (unrouted probes still count as sent, so
// loss accounting is unchanged), while Send is never invoked for unrouted
// destinations.
func TestScannerRoutabilityShortCircuit(t *testing.T) {
	live := map[ip.Addr]bool{a4(5): true, a4(100): true, a4(499): true}
	closed := map[ip.Addr]bool{a4(50): true}
	const limit = 512 // half the 2^10 space is unrouted

	run := func(sink PacketSink) (Stats, map[ip.Addr]Reply) {
		s, err := NewScanner(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := map[ip.Addr]Reply{}
		st, err := s.Run(context.Background(), sink, func(r Reply) { got[r.Dst] = r })
		if err != nil {
			t.Fatal(err)
		}
		return st, got
	}

	plain := &fakeSink{live: live, closed: closed}
	plainStats, plainReplies := run(plain)

	fast := &routedSink{fakeSink: fakeSink{live: live, closed: closed}, limit: a4(limit)}
	fastStats, fastReplies := run(fast)

	if fastStats != plainStats {
		t.Errorf("stats diverge:\nfast  %+v\nplain %+v", fastStats, plainStats)
	}
	if len(fastReplies) != len(plainReplies) {
		t.Fatalf("reply counts diverge: %d vs %d", len(fastReplies), len(plainReplies))
	}
	for dst, r := range plainReplies {
		if fastReplies[dst] != r {
			t.Errorf("reply for %v diverges: %+v vs %+v", dst, fastReplies[dst], r)
		}
	}
	if fast.unroutedSends != 0 {
		t.Errorf("%d unrouted probes reached Send despite Routability", fast.unroutedSends)
	}
	// The skipped Sends are exactly the unrouted share of the sweep.
	skipped := plain.sent - fast.sent
	if want := 2 * ((1 << 10) - limit); skipped != int(want) {
		t.Errorf("short-circuit skipped %d Sends, want %d", skipped, want)
	}
}

func TestScannerConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.SourceIPs = nil
	if _, err := NewScanner(bad); err == nil {
		t.Error("no source IPs accepted")
	}
	bad = testConfig()
	bad.Probes = 0
	if _, err := NewScanner(bad); err == nil {
		t.Error("zero probes accepted")
	}
	bad = testConfig()
	bad.ScanDuration = 0
	if _, err := NewScanner(bad); err == nil {
		t.Error("zero duration accepted")
	}
}

// lastProbeSink is a host at every address that answers one probe index only.
type lastProbeSink struct{ probe uint16 }

func (l lastProbeSink) Send(src ip.Addr, pkt []byte, _ time.Duration) []byte {
	iph, tcph, _, err := packet.DecodeTCP4(pkt)
	if err != nil || iph.ID != l.probe {
		return nil
	}
	return packet.MakeSYNACK(iph.Dst, src, tcph.DstPort, tcph.SrcPort, 1000, tcph.Seq+1)
}

// TestConfigRejectsTooManyProbes: Reply.ProbeMask (like the batch prober's
// answer masks) is eight bits wide, so a host that answered only a ninth SYN
// used to be counted in Stats.SynAcks and never reported (1 << 8 into a uint8
// is 0). NewScanner refuses more than eight probes; with eight, the last
// probe's answer is still reported.
func TestConfigRejectsTooManyProbes(t *testing.T) {
	cfg := testConfig()
	cfg.Probes = 9
	if _, err := NewScanner(cfg); !errors.Is(err, pipeline.ErrBadConfig) {
		t.Fatalf("NewScanner with 9 probes: err = %v, want ErrBadConfig", err)
	}
	cfg.Probes = 8
	s, err := NewScanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	st, err := s.Run(context.Background(), lastProbeSink{probe: 7}, func(r Reply) {
		replies++
		if r.ProbeMask != 1<<7 {
			t.Fatalf("%v answered probe 7 only, reported with mask %08b", r.Dst, r.ProbeMask)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(replies) != st.Targets || st.SynAcks != st.Targets {
		t.Errorf("%d targets: %d reported, %d SYN-ACKs counted — an answered host went unreported", st.Targets, replies, st.SynAcks)
	}
}

func BenchmarkPermutationIterate(b *testing.B) {
	pm, err := NewPermutation(rng.NewKey(1), 20, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	it := pm.Iterate()
	for i := 0; i < b.N; i++ {
		if _, ok := it.Next(); !ok {
			it = pm.Iterate()
		}
	}
}
