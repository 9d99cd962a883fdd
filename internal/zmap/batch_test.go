package zmap

// Batched-vs-serial differential tests: the sweep kernel batches the
// permutation walk, list filtering, routability, and probe evaluation, and
// these tests pin its observable output — Stats, the reply stream, the Sends
// the sink sees, and cancellation behavior — identical to a per-address
// reference that replays the pre-batching loop through emitTarget. Every
// sweep configuration runs against every kind of sink the kernel
// distinguishes. CI runs them under -race; they are the
// contract that lets the kernel change freely without moving the scan
// schedule.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/packet"
	"repro/internal/pipeline"
)

// emitTarget applies the allow/blocklists and the virtual clock for the
// address at the given 1-based scan position, invoking emit for targets
// that will be probed. This is the reference definition of the scan
// schedule — one address, one position, one decision — that the kernel's
// batch step must agree with answer-for-answer. The virtual-clock expression
// here and in step must stay textually identical: float64 rounding is part
// of the schedule's bit-identity contract.
func (s *Scanner) emitTarget(dst ip.Addr, position uint64, st *Stats, emit func(ip.Addr, time.Duration)) {
	if s.cfg.Allowlist != nil && !s.cfg.Allowlist.Contains(dst) {
		st.Blocked++
		return
	}
	if s.cfg.Blocklist != nil && s.cfg.Blocklist.Contains(dst) {
		st.Blocked++
		return
	}
	st.Targets++
	t := time.Duration(float64(position) / float64(s.perm.Space()) * float64(s.cfg.ScanDuration))
	emit(dst, t)
}

// referenceWalk replays the pre-batching serial walk: one group element at a
// time, multiplied out from the shard's first, each in-space one (an
// address or a hitlist entry) through emitTarget, the context checked at
// the start of every block of sweepBatch elements (and once in an empty
// shard).
func referenceWalk(ctx context.Context, s *Scanner, st *Stats, emit func(ip.Addr, time.Duration)) error {
	pm := s.perm
	x := pm.first
	var position uint64
	for e := uint64(0); e == 0 || e < pm.shardLen; e++ {
		if e%sweepBatch == 0 {
			if err := ctx.Err(); err != nil {
				return pipeline.Canceled(err)
			}
		}
		if e == pm.shardLen {
			return nil
		}
		v := x
		x = mulmod(x, pm.step, pm.p)
		if v-1 >= pm.space {
			continue
		}
		position++
		dst := ip.AddrFrom4(uint32(v - 1))
		if s.hitlist != nil {
			dst = s.hitlist[v-1]
		}
		s.emitTarget(dst, position, st, emit)
	}
	return nil
}

// referenceRun is the pre-batching serial sweep: referenceWalk with a
// per-address routability short-circuit from whichever capability the sink
// has — for a space sweep, the /24 directory's bit and then the per-address
// answer. This is the semantics the batched kernel must reproduce exactly.
func referenceRun(ctx context.Context, s *Scanner, sink PacketSink, handler func(Reply)) (Stats, error) {
	var st Stats
	var synBuf []byte
	routed := func(ip.Addr) bool { return true }
	if rt, ok := sink.(Routability); ok {
		routed = rt.Routed
	} else if brt, ok := sink.(BatchRoutability); ok {
		routed = func(dst ip.Addr) bool {
			var out [1]bool
			brt.RoutedBatch([]ip.Addr{dst}, out[:])
			return out[0]
		}
	}
	if br, ok := sink.(BlockRoutability); ok && s.hitlist == nil {
		dir, each := br.RoutedBlocks(), routed
		routed = func(dst ip.Addr) bool {
			b := dst.V4() >> 8
			return int(b/64) < len(dir) && dir[b/64]&(1<<(b%64)) != 0 && each(dst)
		}
	}
	err := referenceWalk(ctx, s, &st, func(dst ip.Addr, t time.Duration) {
		if !routed(dst) {
			st.ProbesSent += uint64(s.cfg.Probes)
			return
		}
		if r, ok := s.probeTarget(sink, dst, t, &st, &synBuf); ok {
			handler(r)
		}
	})
	return st, err
}

// ordinal is what the differential sinks key their behavior on: the v4
// address, or a v6 hitlist entry's low word.
func ordinal(a ip.Addr) uint32 {
	if a.Is4() {
		return a.V4()
	}
	return uint32(a.Lo())
}

// diffSink answers probes from a fixed rule — silence for whatever its
// routed predicate rejects (the Routability contract), otherwise by ordinal:
// every 97th address is live, with closed ports, garbage, bad cookies and a
// dropped second probe mixed in. It holds no state but an atomic Send
// counter, so one value serves the serial reference, the kernel and the
// concurrent shards alike, and it can cancel a context after a fixed number
// of Sends so cancellation lands mid-sweep deterministically.
type diffSink struct {
	routed      func(ip.Addr) bool
	sends       atomic.Int64
	cancelAfter int64
	cancel      context.CancelFunc
}

func (d *diffSink) Send(src ip.Addr, pkt []byte, _ time.Duration) []byte {
	if n := d.sends.Add(1); n == d.cancelAfter {
		d.cancel()
	}
	var dst ip.Addr
	var tcph *packet.TCPHeader
	var probe uint8
	if pkt[0]>>4 == 4 {
		iph, th, _, err := packet.DecodeTCP4(pkt)
		if err != nil {
			return nil
		}
		dst, tcph, probe = iph.Dst, th, uint8(iph.ID)
	} else {
		iph, th, _, err := packet.DecodeTCP6(pkt)
		if err != nil {
			return nil
		}
		dst, tcph, probe = iph.Dst, th, uint8(iph.FlowLabel)
	}
	o := ordinal(dst)
	if !d.routed(dst) || o%97 != 0 {
		return nil
	}
	switch (o / 97) % 6 {
	case 0:
		return packet.MakeRST(dst, src, tcph.DstPort, tcph.SrcPort, 0, tcph.Seq+1)
	case 1:
		return []byte{1, 2, 3}
	case 2:
		return packet.MakeSYNACK(dst, src, tcph.DstPort, tcph.SrcPort, 1, tcph.Seq+999)
	case 3:
		if probe == 1 {
			return nil
		}
	}
	return packet.MakeSYNACK(dst, src, tcph.DstPort, tcph.SrcPort, 1000, tcph.Seq+1)
}

// The capability wrappers: what the kernel type-asserts for is the only
// thing they add to the sink they embed.
type routedOnlySink struct{ *diffSink }

func (r routedOnlySink) Routed(dst ip.Addr) bool { return r.routed(dst) }

type batchOnlySink struct{ *diffSink }

func (b batchOnlySink) RoutedBatch(dst []ip.Addr, routed []bool) {
	for i, a := range dst {
		routed[i] = b.routed(a)
	}
}

type bothSink struct {
	routedOnlySink
	batch batchOnlySink
}

func (b bothSink) RoutedBatch(dst []ip.Addr, routed []bool) { b.batch.RoutedBatch(dst, routed) }

// The directory wrappers add a /24 directory (BlockRoutability) to the
// capabilities of the sink they embed.
type dirSink struct {
	PacketSink
	dir []uint64
}

func (d dirSink) RoutedBlocks() []uint64 { return d.dir }

type dirBatchSink struct {
	batchOnlySink
	dir []uint64
}

func (d dirBatchSink) RoutedBlocks() []uint64 { return d.dir }

type dirRoutedSink struct {
	routedOnlySink
	dir []uint64
}

func (d dirRoutedSink) RoutedBlocks() []uint64 { return d.dir }

// diffSpace is the widest differential space: 2^15 addresses, 128 /24s,
// two directory words.
const diffSpace = 1 << 15

// exactDir returns the directory of routed over the differential space: a
// bit set exactly for the /24s holding a routed address.
func exactDir(routed func(ip.Addr) bool) []uint64 {
	dir := make([]uint64, diffSpace>>8>>6)
	for a := uint32(0); a < diffSpace; a++ {
		if routed(ip.AddrFrom4(a)) {
			dir[a>>14] |= 1 << (a >> 8 % 64)
		}
	}
	return dir
}

// diffSinks returns a constructor per sink kind: each call yields a fresh
// sink (fresh Send counter) of the same behavior. The dir/ kinds expose a
// /24 directory: exact; a strict superset (every /24 of the space painted,
// one of them wholly unrouted, routability varying inside every other); cut
// short after its first word; empty, over a sink that routes no v4 address
// but routes v6 hitlist entries, which a hitlist scan must not test against
// it; over a Routability-only sink; and alone, as the sink's only
// routability.
func diffSinks() map[string]func() (PacketSink, *diffSink) {
	quarter := func(a ip.Addr) bool { return ordinal(a) < 768 }   // upper quarter of the 2^10 space unrouted
	mixed := func(a ip.Addr) bool { return ordinal(a)>>3%3 != 1 } // 8-address chunks: no /24 is uniform
	dark := func(ip.Addr) bool { return false }
	all := func(ip.Addr) bool { return true }
	gapped := func(a ip.Addr) bool { return mixed(a) && ordinal(a)>>8 != 1 } // /24 number 1 painted but dark
	v6only := func(a ip.Addr) bool { return !a.Is4() && quarter(a) }
	painted := []uint64{^uint64(0), ^uint64(0)}
	short := exactDir(quarter)[:1]
	if short[0] != 0b111 {
		panic("quarter's routed /24s are not the first three")
	}
	mk := func(routed func(ip.Addr) bool, wrap func(*diffSink) PacketSink) func() (PacketSink, *diffSink) {
		return func() (PacketSink, *diffSink) {
			d := &diffSink{routed: routed}
			return wrap(d), d
		}
	}
	asRouted := func(d *diffSink) PacketSink { return routedOnlySink{d} }
	asBatch := func(d *diffSink) PacketSink { return batchOnlySink{d} }
	asBoth := func(d *diffSink) PacketSink { return bothSink{routedOnlySink{d}, batchOnlySink{d}} }
	return map[string]func() (PacketSink, *diffSink){
		"no-capability":      mk(all, func(d *diffSink) PacketSink { return d }),
		"routed-only":        mk(quarter, asRouted),
		"batch-only":         mk(quarter, asBatch),
		"both":               mk(quarter, asBoth),
		"both/mixed-slash24": mk(mixed, asBoth),
		"batch-only/dark":    mk(dark, asBatch),
		"dir/exact":          mk(quarter, func(d *diffSink) PacketSink { return dirBatchSink{batchOnlySink{d}, exactDir(quarter)} }),
		"dir/superset":       mk(gapped, func(d *diffSink) PacketSink { return dirBatchSink{batchOnlySink{d}, painted} }),
		"dir/short":          mk(quarter, func(d *diffSink) PacketSink { return dirBatchSink{batchOnlySink{d}, short} }),
		"dir/empty":          mk(v6only, func(d *diffSink) PacketSink { return dirBatchSink{batchOnlySink{d}, nil} }),
		"dir/routed-only":    mk(quarter, func(d *diffSink) PacketSink { return dirRoutedSink{routedOnlySink{d}, exactDir(quarter)} }),
		"dir/alone":          mk(quarter, func(d *diffSink) PacketSink { return dirSink{d, exactDir(quarter)} }),
	}
}

// batchDiffConfigs returns the sweep configurations the differential tests
// cover: plain; list-filtered; lists that reject addresses the quarter
// sinks leave unrouted, so a target the lists drop and a target nobody
// routes must be told apart (Blocked vs Targets + lost probes); a space of
// several full batches plus a partial one; a space two directory words
// wide; a space smaller than one /24; and a v6 hitlist longer than one
// batch whose entries are partly unrouted and partly blocklisted.
func batchDiffConfigs() map[string]Config {
	plain := testConfig()

	listed := testConfig()
	listed.Allowlist = ip.NewSet()
	listed.Allowlist.Add(ip.MakePrefix(ip.AddrFrom4(0), 23)) // allow first two /24s...
	listed.Blocklist = ip.NewSet()
	listed.Blocklist.Add(ip.MakePrefix(ip.AddrFrom4(256), 25)) // ...but block half of the second

	listedDark := testConfig()
	listedDark.Allowlist = ip.NewSet()
	listedDark.Allowlist.Add(ip.MakePrefix(ip.AddrFrom4(0), 23))
	listedDark.Allowlist.Add(ip.MakePrefix(ip.AddrFrom4(768), 24)) // allowed, but dark to the quarter sinks
	listedDark.Blocklist = ip.NewSet()
	listedDark.Blocklist.Add(ip.MakePrefix(ip.AddrFrom4(896), 25)) // blocked and dark

	multi := testConfig()
	multi.SpaceBits = 14 // 4 full batches + skip-tail
	multi.ProbeDelay = time.Second

	wide := testConfig()
	wide.SpaceBits = 15 // the whole differential space: two directory words

	tiny := testConfig()
	tiny.SpaceBits = 6 // a quarter of one /24

	hitlist := testConfig()
	hitlist.SourceIPs = []ip.Addr{ip.MustParseAddr("2001:db8:ffff::1")}
	for i := 0; i < 5000; i++ {
		hitlist.Hitlist = append(hitlist.Hitlist, ip.AddrFrom128(0x20010db8<<32, uint64(i*7%1021)<<32|uint64(i)))
	}
	hitlist.Blocklist = ip.NewSet()
	hitlist.Blocklist.Add(ip.MakePrefix(ip.AddrFrom128(0x20010db8<<32, 5<<32), 96))

	return map[string]Config{"plain": plain, "listed": listed, "listed-dark": listedDark,
		"multibatch": multi, "wide": wide, "tiny": tiny, "hitlist": hitlist}
}

func compareRuns(t *testing.T, name string, stGot, stWant Stats, repGot, repWant []Reply) {
	t.Helper()
	if stGot != stWant {
		t.Errorf("%s: stats %+v, reference %+v", name, stGot, stWant)
	}
	if len(repGot) != len(repWant) {
		t.Fatalf("%s: %d replies, reference %d", name, len(repGot), len(repWant))
	}
	for i := range repGot {
		if repGot[i] != repWant[i] {
			t.Errorf("%s: reply %d = %+v, reference %+v", name, i, repGot[i], repWant[i])
		}
	}
}

// forEachDiffCase runs fn for every configuration × sink kind, with the
// reference's statistics, replies and Send count for that pair.
func forEachDiffCase(t *testing.T, fn func(t *testing.T, s *Scanner, newSink func() (PacketSink, *diffSink), stRef Stats, repRef []Reply, sendsRef int64)) {
	for cname, cfg := range batchDiffConfigs() {
		for sname, newSink := range diffSinks() {
			t.Run(cname+"/"+sname, func(t *testing.T) {
				s, err := NewScanner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sink, d := newSink()
				var repRef []Reply
				stRef, err := referenceRun(context.Background(), s, sink, func(r Reply) { repRef = append(repRef, r) })
				if err != nil {
					t.Fatal(err)
				}
				fn(t, s, newSink, stRef, repRef, d.sends.Load())
			})
		}
	}
}

func TestSweepBatchedMatchesSerialReference(t *testing.T) {
	sawBlockedDark, sawReplies := false, false
	forEachDiffCase(t, func(t *testing.T, s *Scanner, newSink func() (PacketSink, *diffSink), stRef Stats, repRef []Reply, sendsRef int64) {
		sink, d := newSink()
		var repGot []Reply
		stGot, err := s.Run(context.Background(), sink, func(r Reply) { repGot = append(repGot, r) })
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, "Run", stGot, stRef, repGot, repRef)
		if got := d.sends.Load(); got != sendsRef {
			t.Errorf("sink saw %d Sends, reference %d", got, sendsRef)
		}
		if _, ok := sink.(*diffSink); !ok && s.cfg.Allowlist != nil {
			// The quarter sinks: 1024 − 768 dark addresses, of which
			// listed-dark's lists allow exactly 128.
			sawBlockedDark = sawBlockedDark || stRef.Targets == 512+128 && stRef.Blocked == 256+128
		}
		sawReplies = sawReplies || len(repRef) > 0 && stRef.Rsts > 0 && stRef.Invalid > 0 && stRef.Duplicates > 0
	})
	if !sawBlockedDark {
		t.Error("no case told list-blocked dark addresses from unrouted targets")
	}
	if !sawReplies {
		t.Error("no case exercised SYN-ACK, RST, invalid and duplicate replies together")
	}
}

// TestTargetsMatchesSerialReference pins Targets — the kernel with no sink —
// to the reference schedule: every address the lists admit, routed or not,
// in scan order with its probe time.
func TestTargetsMatchesSerialReference(t *testing.T) {
	type target struct {
		dst ip.Addr
		t   time.Duration
	}
	for name, cfg := range batchDiffConfigs() {
		s, err := NewScanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want, got []target
		var st Stats
		if err := referenceWalk(context.Background(), s, &st, func(dst ip.Addr, t time.Duration) { want = append(want, target{dst, t}) }); err != nil {
			t.Fatal(err)
		}
		if err := s.Targets(context.Background(), func(dst ip.Addr, t time.Duration) { got = append(got, target{dst, t}) }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || uint64(len(got)) != st.Targets {
			t.Fatalf("%s: Targets visited %d, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: target %d = %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestShardedBatchedMatchesSerialReference splits every case across 2, 4
// and 7 cooperating scanners (Config.Shard/Shards, ZMap's sharding) and
// holds each shard's batched sweep to the per-address reference over the
// same shard — identical statistics, reply stream and Sends — and the
// shards together to the unsharded scan: statistics and Sends that add up
// to it, and every reply it got, from exactly one shard.
func TestShardedBatchedMatchesSerialReference(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, s *Scanner, newSink func() (PacketSink, *diffSink), stRef Stats, repRef []Reply, sendsRef int64) {
		ctx := context.Background()
		for _, n := range []int{2, 4, 7} {
			var sum Stats
			var sends int64
			got := map[ip.Addr]Reply{}
			for k := 0; k < n; k++ {
				cfg := s.cfg
				cfg.Shard, cfg.Shards = k, n
				sh, err := NewScanner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				run := func(exec func(PacketSink, func(Reply)) (Stats, error)) (Stats, []Reply, int64) {
					sink, d := newSink()
					var replies []Reply
					st, err := exec(sink, func(r Reply) { replies = append(replies, r) })
					if err != nil {
						t.Fatal(err)
					}
					return st, replies, d.sends.Load()
				}
				stWant, repWant, sendsWant := run(func(sink PacketSink, h func(Reply)) (Stats, error) { return referenceRun(ctx, sh, sink, h) })
				stGot, repGot, sendsGot := run(func(sink PacketSink, h func(Reply)) (Stats, error) { return sh.Run(ctx, sink, h) })
				compareRuns(t, fmt.Sprintf("shard %d/%d", k, n), stGot, stWant, repGot, repWant)
				if sendsGot != sendsWant {
					t.Errorf("shard %d/%d: sink saw %d Sends, reference %d", k, n, sendsGot, sendsWant)
				}
				sum.Targets += stGot.Targets
				sum.Blocked += stGot.Blocked
				sum.ProbesSent += stGot.ProbesSent
				sum.SynAcks += stGot.SynAcks
				sum.Rsts += stGot.Rsts
				sum.Invalid += stGot.Invalid
				sum.Duplicates += stGot.Duplicates
				sends += sendsGot
				for _, r := range repGot {
					if _, dup := got[r.Dst]; dup {
						t.Fatalf("%d shards: %v answered in two shards", n, r.Dst)
					}
					got[r.Dst] = r
				}
			}
			if sum != stRef || sends != sendsRef {
				t.Errorf("%d shards add up to %+v and %d Sends, the unsharded scan %+v and %d", n, sum, sends, stRef, sendsRef)
			}
			if len(got) != len(repRef) {
				t.Fatalf("%d shards: %d replies, the unsharded scan %d", n, len(got), len(repRef))
			}
			for _, want := range repRef {
				// A shard numbers its own walk, so only the probe time moves.
				r := got[want.Dst]
				if r.ProbeMask != want.ProbeMask || r.RST != want.RST {
					t.Errorf("%d shards: %v answered %+v, unsharded %+v", n, want.Dst, r, want)
				}
			}
		}
	})
}

// TestCancelBatchedMatchesSerialReference cancels mid-sweep after a fixed
// probe count and checks the batched path stops at exactly the boundary the
// per-address loop stopped at: same error class, same Stats, same reply
// prefix. The reference checks the context where the sweep does, at every
// block of sweepBatch group elements, so a cancellation is observed at the
// identical point — and one that lands in the final partial block (9000
// Sends into the 5000-entry hitlist) is not observed at all: the walk ends
// before the next boundary.
func TestCancelBatchedMatchesSerialReference(t *testing.T) {
	configs := batchDiffConfigs()
	big := testConfig()
	big.SpaceBits = 13
	for cname, cfg := range map[string]Config{"space13": big, "hitlist": configs["hitlist"]} {
		for sname, newSink := range diffSinks() {
			for _, after := range []int64{1, 100, 5000, 9000} {
				run := func(exec func(ctx context.Context, s *Scanner, sink PacketSink, h func(Reply)) (Stats, error)) (Stats, []Reply, error) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					sink, d := newSink()
					d.cancelAfter, d.cancel = after, cancel
					s, err := NewScanner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var replies []Reply
					st, err := exec(ctx, s, sink, func(r Reply) { replies = append(replies, r) })
					return st, replies, err
				}
				stRef, repRef, errRef := run(referenceRun)
				stGot, repGot, errGot := run(func(ctx context.Context, s *Scanner, sink PacketSink, h func(Reply)) (Stats, error) {
					return s.Run(ctx, sink, h)
				})
				if !errorsMatch(errRef, errGot) {
					t.Fatalf("%s/%s after %d: reference err %v, batched err %v", cname, sname, after, errRef, errGot)
				}
				compareRuns(t, cname+"/"+sname, stGot, stRef, repGot, repRef)
			}
		}
	}
}

func errorsMatch(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return errors.Is(a, pipeline.ErrCanceled) == errors.Is(b, pipeline.ErrCanceled)
}

// darkSink routes nothing: its directory, sized to the space, has every
// bit clear, so the sweep rules each target out on the raw offset.
type darkSink struct{ dir []uint64 }

func (darkSink) Send(ip.Addr, []byte, time.Duration) []byte { return nil }
func (d darkSink) RoutedBlocks() []uint64                   { return d.dir }
func (darkSink) RoutedBatch(_ []ip.Addr, routed []bool) {
	for i := range routed {
		routed[i] = false
	}
}

// BenchmarkSweepDark prices the kernel over dark space, which is most of any
// real sweep: one full walk per iteration against a sink whose directory
// routes nothing, so ns/target is the permutation walk and the directory
// test — everything a target costs before anybody lives there. At 24 bits
// the directory is 8 KiB; at 32 it is 2 MiB, no longer L1-resident, and the
// number is the full-IPv4 one (each iteration walks 2^32 targets).
func BenchmarkSweepDark(b *testing.B) {
	for _, bits := range []uint8{24, 32} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			cfg := testConfig()
			cfg.SpaceBits = bits
			s, err := NewScanner(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sink := darkSink{dir: make([]uint64, 1<<bits>>8>>6)}
			var targets uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := s.Run(context.Background(), sink, func(Reply) {})
				if err != nil {
					b.Fatal(err)
				}
				targets += st.Targets
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(targets), "ns/target")
		})
	}
}
