package zmap

// The block walk: a long space sweep walks the odd blocks of its
// permutation on a walker goroutine and numbers every block on its own. These
// tests hold the sweep to repeated Iterator.Next whichever goroutine walked a
// block and in whatever order, bound its cancellation, and pin what the
// walker may allocate and leave behind.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/packet"
	"repro/internal/pipeline"
)

// probeAt is one probe a sink saw: its destination and virtual time.
type probeAt struct {
	dst ip.Addr
	t   time.Duration
}

// recSink records every probe sent through it and answers none; it has no
// routability, so every listed target reaches Send.
type recSink struct {
	sent    []probeAt
	onProbe func(sent int)
}

func (r *recSink) Send(_ ip.Addr, pkt []byte, t time.Duration) []byte {
	iph, _, _, err := packet.DecodeTCP4(pkt)
	if err != nil {
		panic(err)
	}
	r.sent = append(r.sent, probeAt{iph.Dst, t})
	if r.onProbe != nil {
		r.onProbe(len(r.sent))
	}
	return nil
}

// recDirSink is a recSink behind a /24 directory: targets in unpainted /24s
// are counted, never sent.
type recDirSink struct {
	*recSink
	dir []uint64
}

func (r recDirSink) RoutedBlocks() []uint64 { return r.dir }

// countWalks sets testHookWalkOrder for the test's duration: it counts the
// windows the walker starts and, with a non-nil rnd, shuffles each.
func countWalks(t *testing.T, rnd *rand.Rand) *atomic.Int64 {
	var windows atomic.Int64
	testHookWalkOrder = func(win []uint64) {
		windows.Add(1)
		if rnd != nil {
			rnd.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
		}
	}
	t.Cleanup(func() { testHookWalkOrder = nil })
	return &windows
}

// withProcs runs fn at the given GOMAXPROCS.
func withProcs(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// nextReference is the block walk's oracle: repeated Iterator.Next over the
// scanner's shard, each offset through the lists (a drop is Blocked) and then
// the directory (when dir is non-nil), probe times from the schedule's clock
// expression.
func nextReference(s *Scanner, dir []uint64) ([]probeAt, Stats) {
	var want []probeAt
	var st Stats
	it := s.perm.Iterate()
	var position uint64
	for {
		a, ok := it.Next()
		if !ok {
			return want, st
		}
		position++
		dst := ip.AddrFrom4(a)
		if (s.cfg.Allowlist != nil && !s.cfg.Allowlist.Contains(dst)) || (s.cfg.Blocklist != nil && s.cfg.Blocklist.Contains(dst)) {
			st.Blocked++
			continue
		}
		st.Targets++
		st.ProbesSent += uint64(s.cfg.Probes)
		if dir != nil && !painted(dir, uint64(a)) {
			continue
		}
		want = append(want, probeAt{dst, time.Duration(float64(position) / float64(s.perm.Space()) * float64(s.cfg.ScanDuration))})
	}
}

// skipsInWalkerBlocks counts the group elements of the scanner's shard that
// map outside the space and fall in an odd block, one the walker walks.
func skipsInWalkerBlocks(s *Scanner) int {
	pm := s.perm
	n, x := 0, pm.first
	for e := uint64(0); e < pm.shardLen; e++ {
		if x-1 >= pm.space && e/sweepBatch%2 == 1 {
			n++
		}
		x = mulmod(x, pm.step, pm.p)
	}
	return n
}

// TestBlockWalkMatchesNext holds the block walk to repeated Iterator.Next:
// the same (dst, t) probe sequence and the same Targets, Blocked and
// ProbesSent, for every shard of 1, 2 and 3, with a directory, a blocklist,
// an allowlist and both lists, at GOMAXPROCS 1 (no walker), at 2 (every
// shard here spans 64 blocks or more, so the walker walks its odd blocks),
// and at 2 with the walker taking each window of blocks in a seeded shuffled
// order. The spaces (2^19 and 2^21) have out-of-space group elements, and
// some of them fall in the walker's blocks, so a block's in-space count is
// not its length.
func TestBlockWalkMatchesNext(t *testing.T) {
	block, allow := ip.NewSet(), ip.NewSet()
	block.Add(ip.MakePrefix(ip.AddrFrom4(3<<16), 16))
	block.Add(ip.MakePrefix(ip.AddrFrom4(0x1234_00), 22))
	block.Add(ip.MakePrefix(ip.AddrFrom4(0x7777_00), 24))
	for i := uint32(0); i < 32; i++ {
		allow.Add(ip.MakePrefix(ip.AddrFrom4(i*0x10000+0x4000), 20)) // 1/16 of each /16
	}
	sawWalker, skips := false, 0
	// A shard of 2^19 in one or two spans 128 or 64 blocks; of 2^21 in
	// three, 171.
	for _, sp := range []struct {
		bits   uint8
		shards []int
	}{{19, []int{1, 2}}, {21, []int{3}}} {
		bits := sp.bits
		// Every 16th /24 painted, over the whole space.
		dir := make([]uint64, 1<<bits>>8>>6)
		for b := range len(dir) * 64 {
			if b%16 == 5 {
				dir[b/64] |= 1 << (b % 64)
			}
		}
		cases := []struct {
			name         string
			dir          bool
			allow, block *ip.Set
		}{
			{"dir", true, nil, nil},
			{"dir+block", true, nil, block},
			{"allow", false, allow, nil},
			{"dir+allow+block", true, allow, block},
		}
		for _, c := range cases {
			for _, shards := range sp.shards {
				for shard := range shards {
					cfg := testConfig()
					cfg.Probes, cfg.SpaceBits, cfg.Seed = 1, bits, 17
					cfg.Shard, cfg.Shards = shard, shards
					cfg.Allowlist, cfg.Blocklist = c.allow, c.block
					s, err := NewScanner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var refDir []uint64
					if c.dir {
						refDir = dir
					}
					want, stWant := nextReference(s, refDir)
					walks := s.perm.Iterate().blocks() >= helperBlocks
					if walks {
						skips += skipsInWalkerBlocks(s)
					}
					for _, mode := range []string{"procs=1", "procs=2", "procs=2/shuffled"} {
						name := fmt.Sprintf("2^%d/%s/shard %d of %d/%s", bits, c.name, shard, shards, mode)
						var rnd *rand.Rand
						if mode == "procs=2/shuffled" {
							rnd = rand.New(rand.NewPCG(uint64(bits), uint64(shard)))
						}
						windows := countWalks(t, rnd)
						rec := &recSink{}
						var sink PacketSink = rec
						if c.dir {
							sink = recDirSink{rec, dir}
						}
						var st Stats
						procs := 2
						if mode == "procs=1" {
							procs = 1
						}
						withProcs(procs, func() {
							st, err = s.Run(context.Background(), sink, func(Reply) {})
						})
						if err != nil {
							t.Fatal(err)
						}
						if ran := windows.Load() > 0; ran != (walks && procs == 2) {
							t.Fatalf("%s: walker ran %v over %d blocks", name, ran, s.perm.Iterate().blocks())
						}
						sawWalker = sawWalker || windows.Load() > 0
						if st.Targets != stWant.Targets || st.Blocked != stWant.Blocked || st.ProbesSent != stWant.ProbesSent {
							t.Fatalf("%s: stats %+v, repeated Next %+v", name, st, stWant)
						}
						if len(rec.sent) != len(want) {
							t.Fatalf("%s: %d probes sent, repeated Next %d", name, len(rec.sent), len(want))
						}
						for i := range want {
							if rec.sent[i] != want[i] {
								t.Fatalf("%s: probe %d %+v, repeated Next %+v", name, i, rec.sent[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	if !sawWalker || skips == 0 {
		t.Errorf("vacuous: walker ran %v, %d out-of-space elements in its blocks", sawWalker, skips)
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall to
// base: a goroutine that has closed its done channel may still be exiting.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after Run, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepCancelWithWalkerAhead cancels a sweep whose walker is several
// blocks ahead: the packet sink makes every block of a 2^21 sweep cost
// thousands of Sends, the walker's cost a few microseconds, so by the
// cancel the walker has filled the ring. Run must return ErrCanceled having
// sent at most one more block of probes, and leave no goroutine behind; a
// full dark sweep with the walker must leave none either.
func TestSweepCancelWithWalkerAhead(t *testing.T) {
	windows := countWalks(t, nil)
	cfg := testConfig()
	cfg.SpaceBits = 21
	s, err := NewScanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(2, func() {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const cancelAfter = 3 * sweepBatch
		canceledAt, ahead := 0, int64(0)
		rec := &recSink{onProbe: func(sent int) {
			// Three windows started: the walker has filled the first two,
			// eight blocks, while the sweep is in its second or third.
			if canceledAt == 0 && sent >= cancelAfter && windows.Load() >= 3 {
				canceledAt, ahead = sent, windows.Load()
				cancel()
			}
		}}
		_, err := s.Run(ctx, rec, func(Reply) {})
		if !errors.Is(err, pipeline.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled (canceled after %d of %d probes)", err, canceledAt, cfg.Probes<<cfg.SpaceBits)
		}
		if max := canceledAt + cfg.Probes*sweepBatch; len(rec.sent) > max {
			t.Errorf("%d probes sent, canceled after %d: more than one block after the cancel", len(rec.sent), canceledAt)
		}
		t.Logf("canceled after %d probes with the walker in window %d; %d sent", canceledAt, ahead, len(rec.sent))
		waitGoroutines(t, "canceled sweep", base)

		dark := darkSink{dir: make([]uint64, 1<<cfg.SpaceBits>>8>>6)}
		before := windows.Load()
		st, err := s.Run(context.Background(), dark, func(Reply) {})
		if err != nil || st.Targets != 1<<cfg.SpaceBits {
			t.Fatalf("dark sweep: %+v, %v", st, err)
		}
		if windows.Load() == before {
			t.Fatal("dark sweep: the walker never ran")
		}
		waitGoroutines(t, "dark sweep", base)
	})
}

// TestDarkSweepAllocsIndependentOfBlocks is TestRunAllocsIndependentOfBatches
// for sweeps long enough to start the walker: at GOMAXPROCS 2 a dark sweep
// of 2^22 (1024 blocks) may allocate no more than one of 2^19 (128 blocks)
// beyond a small constant, so the walker's ring slots cannot grow per block;
// and a shard under helperBlocks blocks (2^19 in three shards, 43 each)
// starts no walker. It counts the sweep's own allocations (sweepMallocs),
// not the process's.
func TestDarkSweepAllocsIndependentOfBlocks(t *testing.T) {
	windows := countWalks(t, nil)
	run := func(bits uint8, shards int) (mallocs, walks int64) {
		cfg := testConfig()
		cfg.SpaceBits, cfg.Shards = bits, shards
		s, err := NewScanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := darkSink{dir: make([]uint64, 1<<bits>>8>>6)}
		mallocs = math.MaxInt64
		before := windows.Load()
		// The fewest over a few runs: the first builds the kernel the
		// others recycle.
		for range 5 {
			n := sweepMallocs(func() {
				if _, err := s.Run(context.Background(), sink, func(Reply) {}); err != nil {
					t.Fatal(err)
				}
			})
			mallocs = min(mallocs, n)
		}
		return mallocs, windows.Load() - before
	}
	withProcs(2, func() {
		few, fewWalks := run(19, 1)
		many, manyWalks := run(22, 1)
		t.Logf("%d mallocs over 2^19 targets, %d over 2^22", few, many)
		if fewWalks == 0 || manyWalks == 0 {
			t.Fatalf("the walker ran %d and %d windows: the guard is vacuous", fewWalks, manyWalks)
		}
		if many > few+3 {
			t.Errorf("a 2^22 dark sweep allocates %d times, a 2^19 one %d: allocation grows with the blocks", many, few)
		}
		if _, walks := run(19, 3); walks != 0 {
			t.Errorf("a shard of %d blocks started the walker (%d windows)", (1<<19)/3/sweepBatch+1, walks)
		}
	})
}

// sweepMallocs returns how many heap allocations run makes on the sweep's
// goroutines (under Scanner.Run, the walker and the split helper), read from
// a profile of every allocation. It leaves out the runtime's sudogs, the
// records a goroutine parks on: parking on a sync.Cond takes one from the
// cache of the P the goroutine runs on and returns it to the cache of the P
// it wakes on, so when the sweep and its walker migrate between Ps (a box
// busy with other processes) one P's cache runs dry and the runtime
// allocates a fresh one, up to one per park; parks, like blocks, grow with
// the space. Counted from the process's MemStats.Mallocs, those made a
// 2^22 dark sweep read 13 allocations beside a 2^19 sweep's 5 under load.
func sweepMallocs(run func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := sweepAllocs()
	run()
	return sweepAllocs() - before
}

// sweepAllocs sums the allocations profiled so far on the sweep's
// goroutines, sudogs aside.
func sweepAllocs() int64 {
	runtime.GC() // publishes every allocation made before it
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for _, r := range recs {
		sweep, sudog := false, false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			switch f.Function {
			case "repro/internal/zmap.(*Scanner).Run", "repro/internal/zmap.(*walker).run", "repro/internal/zmap.(*sweepKernel).help":
				sweep = true
			case "runtime.acquireSudog":
				sudog = true
			}
		}
		if sweep && !sudog {
			total += r.AllocObjects
		}
	}
	return total
}
