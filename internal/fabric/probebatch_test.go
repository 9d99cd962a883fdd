package fabric

// The typed L4 path against the byte path. ProbeBatch answers a batch of
// targets with mask bits; Send answers one packet with packet bytes; both run
// the same per-probe decision (probe). ProbeBatch leaves the targets a live
// detector watches Held, and the sweep decides those through Send in target
// order. These tests drive the two paths side by side — real MakeSYNInto →
// Send → decoded reply on one fabric, ProbeBatch plus the held pass on its
// twin, live detectors cloned per side — and fail if the typed path drifts
// from Send by one probe.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/scenario"
	"repro/internal/zmap"
)

// batchWorld is a planWorld with a scan-order schedule over it: every target
// of a sweep of the v4 space (dark space included) or of the v6 hitlist, with
// its probe time. engine, when set, replaces the scenario's rule set.
type batchWorld struct {
	planWorld
	engine *policy.Engine
	order  []ip.Addr
	ts     []time.Duration
}

func (bw *batchWorld) config(p proto.Protocol, idses []*policy.IDS) *Config {
	cfg := bw.planWorld.config(p, policy.Detectors(idses))
	if bw.engine != nil {
		cfg.Engine = bw.engine
	}
	return cfg
}

// batchWorlds returns the two calibrated worlds of planWorlds under their
// scenarios (lossy paths, outage schedules, churn, live IDSes), plus the v4
// world with one AS refusing every connection — the RefuseTCP verdict the
// scenarios never produce, and the only way routed-empty space answers —
// and the Alibaba ASes silent in their blocked windows (silentRST).
func batchWorlds(t testing.TB) []batchWorld {
	t.Helper()
	var out []batchWorld
	for _, pw := range planWorlds(t) {
		bw := batchWorld{planWorld: pw}
		s, err := zmap.NewScanner(zmap.Config{
			SourceIPs: pw.w.Origins.Get(origin.US1).SourceIPs, Probes: 1, TargetPort: 80,
			SpaceBits: pw.w.SpaceBits, Hitlist: pw.w.Hitlist(),
			Seed: 23, ScanDuration: scenario.ScanDuration,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Targets(context.Background(), func(dst ip.Addr, at time.Duration) {
			bw.order = append(bw.order, dst)
			bw.ts = append(bw.ts, at)
		}); err != nil {
			t.Fatal(err)
		}
		out = append(out, bw)
	}
	refusing := out[0]
	refusing.name = "v4-refusing-as"
	watched := map[asn.ASN]bool{}
	for _, ids := range refusing.sc.IDSes {
		watched[ids.AS] = true
	}
	for _, h := range refusing.w.Hosts() {
		if as, ok := refusing.w.ASOf(h.Addr); ok && !watched[as.Number] {
			// One plain AS, and one a detector watches: there the RSTs stop
			// when the source is blocked.
			rule := &policy.StaticBlock{RuleName: "refuse-as", Action: policy.RefuseTCP,
				Dests: policy.DestMatch{ASes: []asn.ASN{as.Number, refusing.sc.IDSes[0].AS}}}
			rules := []policy.Rule{rule, silentRST{refusing.sc.Alibaba}}
			refusing.engine = policy.NewEngine(append(rules, refusing.sc.Engine.Rules()...)...)
			break
		}
	}
	if refusing.engine == nil {
		t.Fatal("no unwatched AS with a host to refuse from")
	}
	return append(out, refusing)
}

// silentRST answers Silent wherever the scenario's Alibaba detector
// (policy.TemporalRST) is in a blocked window. TemporalRST's own verdict,
// ResetAfterAccept, still draws a SYN-ACK at L4, so only this rendering
// makes a probe's L4 answer depend on its time: two probes of one target
// straddling a window edge draw different verdicts, and ProbeBatch's
// per-target memo must draw the verdict again when the probe time moves.
type silentRST struct{ *policy.TemporalRST }

func (s silentRST) Evaluate(q *policy.Query) (policy.Verdict, bool) {
	if _, ok := s.TemporalRST.Evaluate(q); ok {
		return policy.Silent, true
	}
	return 0, false
}

// sendMasks is the byte path for one target: probes real SYNs through Send,
// each reply decoded, folded into the masks ProbeBatch reports.
func sendMasks(t testing.TB, fab *Fabric, buf *[]byte, srcs []ip.Addr, port uint16, probes int, delay time.Duration, dst ip.Addr, at time.Duration) (synAcks, rsts uint8) {
	src := origin.SourceFor(srcs, dst)
	for j := 0; j < probes; j++ {
		*buf = packet.MakeSYNInto(*buf, src, dst, 40000+uint16(j), port, 7, uint16(j))
		switch flags := replyFlags(t, fab.Send(src, *buf, at+time.Duration(j)*delay)); flags {
		case 0:
		case packet.FlagSYN | packet.FlagACK:
			synAcks |= 1 << j
		case packet.FlagRST | packet.FlagACK:
			rsts |= 1 << j
		default:
			t.Fatalf("Send answered %v with flags %#x", dst, flags)
		}
	}
	return synAcks, rsts
}

// probeBatchIn answers dsts as the sweep does: ProbeBatch over windows of
// size window, then each window's Held targets decided through Send, in
// target order. The answer arrays start as garbage that is not Held, so an
// entry no call writes shows as a wrong answer. held counts the targets
// ProbeBatch left Held.
func probeBatchIn(t testing.TB, fab *Fabric, srcs []ip.Addr, port uint16, probes int, delay time.Duration, dsts []ip.Addr, ts []time.Duration, window int) (synAcks, rsts []uint8, held int) {
	synAcks, rsts = garbageMasks(len(dsts))
	buf := make([]byte, 0, 2*packet.ReplyCap)
	for base := 0; base < len(dsts); base += window {
		end := min(base+window, len(dsts))
		fab.ProbeBatch(srcs, port, probes, delay, dsts[base:end], ts[base:end], synAcks[base:end], rsts[base:end])
		for i := base; i < end; i++ {
			if synAcks[i]&rsts[i] != 0 {
				synAcks[i], rsts[i] = sendMasks(t, fab, &buf, srcs, port, probes, delay, dsts[i], ts[i])
				held++
			}
		}
	}
	return synAcks, rsts, held
}

// garbageMasks returns n answer pairs no call has written: set bits, but
// none in both masks, so an unwritten entry is neither silence nor Held.
func garbageMasks(n int) (synAcks, rsts []uint8) {
	synAcks, rsts = make([]uint8, n), make([]uint8, n)
	for i := range synAcks {
		synAcks[i], rsts[i] = 0x5a, 0xa5
	}
	return synAcks, rsts
}

// TestProbeBatchMatchesSend: for {US1, CEN, US64 (64 source IPs)} × every
// protocol × trials {0, 1} × Probes {1, 2, 3} × ProbeDelay {0, 30 s}, every
// target of the scan order through the byte path and through ProbeBatch
// with its held pass. Per-target masks must be equal, and afterwards each
// live detector must hold the same blocked sources on both sides — which it
// only does if the held pass shows detectors the probes in Send's order. A
// port no protocol owns must draw silence from both.
func TestProbeBatchMatchesSend(t *testing.T) {
	for _, bw := range batchWorlds(t) {
		t.Run(bw.name, func(t *testing.T) {
			var synAcks, rsts, blocked, delayed, held int
			buf := make([]byte, 0, 2*packet.ReplyCap)
			diff := func(org *origin.Origin, p proto.Protocol, port uint16, trial, probes int, delay time.Duration, window int) {
				idsA, idsB := cloneIDSes(bw.sc.IDSes), cloneIDSes(bw.sc.IDSes)
				byBytes, typed := New(bw.config(p, idsA), org, trial), New(bw.config(p, idsB), org, trial)
				gotSA, gotRST, h := probeBatchIn(t, typed, org.SourceIPs, port, probes, delay, bw.order, bw.ts, window)
				held += h
				for i, dst := range bw.order {
					wantSA, wantRST := sendMasks(t, byBytes, &buf, org.SourceIPs, port, probes, delay, dst, bw.ts[i])
					if gotSA[i] != wantSA || gotRST[i] != wantRST {
						t.Fatalf("%v %v:%d trial %d probes %d delay %v → %v (target %d) at %v: ProbeBatch SYN-ACKs %03b RSTs %03b, Send loop %03b / %03b",
							org.ID, p, port, trial, probes, delay, dst, i, bw.ts[i], gotSA[i], gotRST[i], wantSA, wantRST)
					}
					if wantSA != 0 {
						synAcks++
					}
					if wantRST != 0 {
						rsts++
					}
					if delay > 0 && probes > 1 && wantSA|wantRST != 0 && wantSA|wantRST != 1<<probes-1 {
						delayed++ // the probes of one target fared differently
					}
				}
				for i := range idsA {
					for _, src := range org.SourceIPs {
						a, b := idsA[i].BlockedState(src, trial), idsB[i].BlockedState(src, trial)
						if a != b {
							t.Fatalf("%v %v trial %d probes %d: detector %s blocks %v after the Send loop: %v, after ProbeBatch: %v",
								org.ID, p, trial, probes, idsA[i].RuleName, src, a, b)
						}
						if a {
							blocked++
						}
					}
				}
			}
			// The comparison is single-goroutine, so under the race detector
			// (≈ 15× slower here) one trial is enough.
			trials := 2
			if raceBuild() {
				trials = 1
			}
			for _, id := range []origin.ID{origin.US1, origin.CEN, origin.US64} {
				org := bw.w.Origins.Get(id)
				for _, p := range proto.All() {
					for trial := 0; trial < trials; trial++ {
						for probes := 1; probes <= 3; probes++ {
							// Two window sizes: the sweep kernel's, and one
							// that ends inside a resolve chunk.
							window := 4096
							if probes == 2 {
								window = 1096
							}
							for _, delay := range []time.Duration{0, 30 * time.Second} {
								diff(org, p, p.Port(), trial, probes, delay, window)
							}
						}
					}
				}
			}
			if synAcks == 0 || rsts == 0 || delayed == 0 {
				t.Fatalf("vacuous differential: %d SYN-ACK targets, %d RST targets, %d split by the probe delay", synAcks, rsts, delayed)
			}
			if bw.name != "v6" && (blocked == 0 || held == 0) {
				t.Fatalf("%d targets held, %d sources blocked: the held pass's order is not under test", held, blocked)
			}
			before := synAcks + rsts
			diff(bw.w.Origins.Get(origin.US1), proto.HTTP, 8080, 0, 2, 0, 4096)
			if synAcks+rsts != before {
				t.Fatal("a port no protocol owns was answered")
			}
			t.Logf("%d targets: %d SYN-ACK and %d RST target answers compared, %d held, %d blocked sources, %d targets split by the delay",
				len(bw.order), synAcks, rsts, held, blocked, delayed)
		})
	}
}

// TestProbeBatchConcurrent: four goroutines call ProbeBatch on one fabric
// over disjoint slices of the schedule, then the Held targets are decided
// through Send in target order; the answers and the detectors' blocked
// sources must equal the unsplit path's (probeBatchIn). The resolve scratch
// is per call, not per fabric (PredialBatch's is per fabric: it is
// single-caller by contract; this is not), and ProbeBatch touches no
// detector, so live detectors need no care — run with -race. Single-IP US1
// crosses the detectors' thresholds.
func TestProbeBatchConcurrent(t *testing.T) {
	bw := batchWorlds(t)[0]
	org := bw.w.Origins.Get(origin.US1)
	p := proto.SSH
	idsWant, idsGot := cloneIDSes(bw.sc.IDSes), cloneIDSes(bw.sc.IDSes)
	want := New(bw.config(p, idsWant), org, 1)
	wantSA, wantRST, held := probeBatchIn(t, want, org.SourceIPs, p.Port(), 2, 0, bw.order, bw.ts, 4096)

	const shards = 4
	fab := New(bw.config(p, idsGot), org, 1)
	gotSA, gotRST := garbageMasks(len(bw.order))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		lo, hi := g*len(bw.order)/shards, (g+1)*len(bw.order)/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Small windows, so the goroutines' calls interleave.
			for base := lo; base < hi; base += 300 {
				end := min(base+300, hi)
				fab.ProbeBatch(org.SourceIPs, p.Port(), 2, 0, bw.order[base:end], bw.ts[base:end], gotSA[base:end], gotRST[base:end])
			}
		}()
	}
	close(start)
	wg.Wait()
	buf := make([]byte, 0, 2*packet.ReplyCap)
	answered := 0
	for i := range wantSA {
		if gotSA[i]&gotRST[i] != 0 {
			gotSA[i], gotRST[i] = sendMasks(t, fab, &buf, org.SourceIPs, p.Port(), 2, 0, bw.order[i], bw.ts[i])
		}
		if gotSA[i] != wantSA[i] || gotRST[i] != wantRST[i] {
			t.Fatalf("target %d (%v): concurrent answer %02b/%02b, serial %02b/%02b", i, bw.order[i], gotSA[i], gotRST[i], wantSA[i], wantRST[i])
		}
		if wantSA[i]|wantRST[i] != 0 {
			answered++
		}
	}
	for i := range idsWant {
		for _, src := range org.SourceIPs {
			if a, b := idsWant[i].BlockedState(src, 1), idsGot[i].BlockedState(src, 1); a != b {
				t.Fatalf("detector %s blocks %v: %v serially, %v concurrently", idsWant[i].RuleName, src, a, b)
			}
		}
	}
	if answered == 0 || held == 0 {
		t.Fatalf("%d targets answered, %d held: the comparison is vacuous", answered, held)
	}
}

// countingDetector forwards to a detector and counts the calls it is shown.
type countingDetector struct {
	policy.Detector
	probes, conns atomic.Int64
}

func (d *countingDetector) RecordProbe(q *policy.Query) bool {
	d.probes.Add(1)
	return d.Detector.RecordProbe(q)
}

func (d *countingDetector) ConnVerdict(q *policy.Query) (policy.Verdict, bool) {
	d.conns.Add(1)
	return d.Detector.ConnVerdict(q)
}

// TestProbeBatchTouchesNoDetector: on the v4 world scanned from US1, with
// every detector wrapped in a counting one, ProbeBatch over the whole scan
// order must make no RecordProbe and no ConnVerdict call, and must leave
// Held exactly the targets Watched names. Deciding the held targets through
// Send afterwards must reach the detectors, so the wrapping is seen.
func TestProbeBatchTouchesNoDetector(t *testing.T) {
	bw := batchWorlds(t)[0]
	org := bw.w.Origins.Get(origin.US1)
	for _, p := range proto.All() {
		var dets []*countingDetector
		var wrapped []policy.Detector
		for _, ids := range cloneIDSes(bw.sc.IDSes) {
			d := &countingDetector{Detector: ids}
			dets, wrapped = append(dets, d), append(wrapped, d)
		}
		fab := New(bw.planWorld.config(p, wrapped), org, 0)
		synAcks, rsts := garbageMasks(len(bw.order))
		for base := 0; base < len(bw.order); base += 4096 {
			end := min(base+4096, len(bw.order))
			fab.ProbeBatch(org.SourceIPs, p.Port(), 2, 30*time.Second, bw.order[base:end], bw.ts[base:end], synAcks[base:end], rsts[base:end])
		}
		calls := func() (probes, conns int64) {
			for _, d := range dets {
				probes, conns = probes+d.probes.Load(), conns+d.conns.Load()
			}
			return probes, conns
		}
		if probes, conns := calls(); probes != 0 || conns != 0 {
			t.Fatalf("%v: ProbeBatch made %d RecordProbe and %d ConnVerdict calls", p, probes, conns)
		}
		buf := make([]byte, 0, 2*packet.ReplyCap)
		held := 0
		for i, dst := range bw.order {
			isHeld := synAcks[i] == zmap.Held && rsts[i] == zmap.Held
			if watched := fab.Watched(p, dst); isHeld != watched {
				t.Fatalf("%v: target %d (%v) answered %08b/%08b, watched %v", p, i, dst, synAcks[i], rsts[i], watched)
			}
			if isHeld {
				held++
				sendMasks(t, fab, &buf, org.SourceIPs, p.Port(), 2, 30*time.Second, dst, bw.ts[i])
			}
		}
		if probes, _ := calls(); held == 0 || probes == 0 {
			t.Fatalf("%v: %d targets held, and deciding them through Send made %d RecordProbe calls", p, held, probes)
		}
	}
}

// seqDetector is a live IDS that also records, in order, the destination
// of every probe it is shown: the sequence a split sweep must keep.
type seqDetector struct {
	*policy.IDS
	mu  sync.Mutex
	seq []ip.Addr
}

func (d *seqDetector) RecordProbe(q *policy.Query) bool {
	d.mu.Lock()
	d.seq = append(d.seq, q.Dst)
	d.mu.Unlock()
	return d.IDS.RecordProbe(q)
}

// The fabric is a zmap.BatchProber, and marks the targets ProbeBatch leaves
// undecided with the contract's own value.
var _ zmap.BatchProber = (*Fabric)(nil)

func TestHeldIsTheContractsMarker(t *testing.T) {
	if held != zmap.Held {
		t.Fatalf("the fabric marks held targets %#x, the sweep looks for %#x", held, zmap.Held)
	}
}

// splitProbe drives ProbeBatch the way the sweep's batch split does: per
// 4096-target batch, calls over 256-target chunks, claimed from one counter
// by two goroutines in the order perm gives; then the Held targets decided
// through Send, in target order, or in reverse when reverseHeld is set.
func splitProbe(t testing.TB, fab *Fabric, srcs []ip.Addr, port uint16, probes int, delay time.Duration, dsts []ip.Addr, ts []time.Duration, perm func(n int) []int, reverseHeld bool) (synAcks, rsts []uint8, held int) {
	const batch, chunk = 4096, 256
	synAcks, rsts = garbageMasks(len(dsts))
	buf := make([]byte, 0, 2*packet.ReplyCap)
	for base := 0; base < len(dsts); base += batch {
		end := min(base+batch, len(dsts))
		order := perm((end - base + chunk - 1) / chunk)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := next.Add(1) - 1; c < int64(len(order)); c = next.Add(1) - 1 {
					lo := base + order[c]*chunk
					hi := min(lo+chunk, end)
					fab.ProbeBatch(srcs, port, probes, delay, dsts[lo:hi], ts[lo:hi], synAcks[lo:hi], rsts[lo:hi])
				}
			}()
		}
		wg.Wait()
		var idx []int
		for i := base; i < end; i++ {
			if synAcks[i]&rsts[i] != 0 {
				idx = append(idx, i)
			}
		}
		if reverseHeld {
			slices.Reverse(idx)
		}
		for _, i := range idx {
			synAcks[i], rsts[i] = sendMasks(t, fab, &buf, srcs, port, probes, delay, dsts[i], ts[i])
		}
		held += len(idx)
	}
	return synAcks, rsts, held
}

// TestProbeBatchSplitMatchesSerial is the order-independence differential
// for the sweep's batch split: on the v4 world from single-IP US1, whose
// probes cross detector thresholds mid-batch, ProbeBatch split across two
// goroutines with the chunk-claim order shuffled by a seeded permutation,
// its held targets then decided through Send, must give every target the
// answer one serial Send loop over the whole order gives, and leave every
// detector with the same blocked sources and the same recorded probe
// sequence. It holds only because watched targets are held and then decided
// in target order: deciding the held targets in reverse must change both
// the answers and the detectors' sequences. Run with -race: the ProbeBatch
// calls run concurrently on one fabric.
func TestProbeBatchSplitMatchesSerial(t *testing.T) {
	bw := batchWorlds(t)[0]
	org := bw.w.Origins.Get(origin.US1)
	newFabric := func(p proto.Protocol) (*Fabric, []*seqDetector) {
		var seqs []*seqDetector
		var dets []policy.Detector
		for _, ids := range cloneIDSes(bw.sc.IDSes) {
			d := &seqDetector{IDS: ids}
			seqs, dets = append(seqs, d), append(dets, d)
		}
		return New(bw.planWorld.config(p, dets), org, 0), seqs
	}
	// sameDetectors reports the first way b's detectors differ from a's.
	sameDetectors := func(a, b []*seqDetector) string {
		for i := range a {
			for _, src := range org.SourceIPs {
				if x, y := a[i].BlockedState(src, 0), b[i].BlockedState(src, 0); x != y {
					return fmt.Sprintf("detector %s blocks %v: %v serially, %v split", a[i].RuleName, src, x, y)
				}
			}
			if !slices.Equal(a[i].seq, b[i].seq) {
				return fmt.Sprintf("detector %s was shown %d probes serially, %d split, in another order", a[i].RuleName, len(a[i].seq), len(b[i].seq))
			}
		}
		return ""
	}
	const probes, delay = 2, 30 * time.Second
	var held, blocked, reorderedAnswers, reorderedSeqs int
	for _, p := range proto.All() {
		serial, serialDets := newFabric(p)
		wantSA, wantRST := make([]uint8, len(bw.order)), make([]uint8, len(bw.order))
		buf := make([]byte, 0, 2*packet.ReplyCap)
		for i, dst := range bw.order {
			wantSA[i], wantRST[i] = sendMasks(t, serial, &buf, org.SourceIPs, p.Port(), probes, delay, dst, bw.ts[i])
		}
		for _, d := range serialDets {
			for _, src := range org.SourceIPs {
				if d.BlockedState(src, 0) {
					blocked++
				}
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			split, splitDets := newFabric(p)
			gotSA, gotRST, h := splitProbe(t, split, org.SourceIPs, p.Port(), probes, delay, bw.order, bw.ts, rnd.Perm, false)
			held += h
			for i := range wantSA {
				if gotSA[i] != wantSA[i] || gotRST[i] != wantRST[i] {
					t.Fatalf("%v seed %d: target %d (%v): split %02b/%02b, serial %02b/%02b",
						p, seed, i, bw.order[i], gotSA[i], gotRST[i], wantSA[i], wantRST[i])
				}
			}
			if diff := sameDetectors(serialDets, splitDets); diff != "" {
				t.Fatalf("%v seed %d: %s", p, seed, diff)
			}
		}
		// The same split, with the held targets decided back to front.
		reversed, reversedDets := newFabric(p)
		gotSA, gotRST, _ := splitProbe(t, reversed, org.SourceIPs, p.Port(), probes, delay, bw.order, bw.ts, rand.New(rand.NewSource(1)).Perm, true)
		if !slices.Equal(gotSA, wantSA) || !slices.Equal(gotRST, wantRST) {
			reorderedAnswers++
		}
		if sameDetectors(serialDets, reversedDets) != "" {
			reorderedSeqs++
		}
	}
	if held == 0 || blocked == 0 {
		t.Fatalf("vacuous differential: %d targets held, %d sources blocked", held, blocked)
	}
	if reorderedAnswers == 0 || reorderedSeqs == 0 {
		t.Fatalf("deciding the held targets in reverse moved the answers in %d protocols and the detectors in %d: the held order is not under test",
			reorderedAnswers, reorderedSeqs)
	}
	t.Logf("%d targets per pass: %d held over all passes, %d blocked sources; the reversed held order moved the answers in %d protocols, the detectors in %d",
		len(bw.order), held, blocked, reorderedAnswers, reorderedSeqs)
}

// FuzzProbeBatchMatchesSend fuzzes one target's coordinates — destination,
// probe time, probe count, delay, origin, trial, protocol or a port no
// protocol owns — against the refusing-AS world, and requires the typed
// answer (ProbeBatch, or Send when ProbeBatch holds the target) to equal the
// Send loop's, and ProbeBatch to hold the target exactly when a detector
// watches it. The destination word is either a raw v4
// address (inside or outside the space, routed or not) or, with its top bit
// set, an index into the world's hosts and their neighbours, so the fuzzer
// reaches hosts, routed-empty space and the refusing AS quickly.
func FuzzProbeBatchMatchesSend(f *testing.F) {
	bw := batchWorlds(f)[2]
	hosts := bw.w.Hosts()
	origins := bw.w.Origins.All()
	ports := []uint16{80, 443, 22, 8080}
	f.Add(uint64(1)<<63, int64(time.Hour), uint8(1), int64(0), uint8(0), uint8(0))
	f.Add(uint64(1)<<63|7, int64(9*time.Hour), uint8(7), int64(30*time.Second), uint8(2), uint8(2))
	f.Add(uint64(1)<<63|1<<62|11, int64(0), uint8(2), int64(time.Second), uint8(1), uint8(1))
	f.Add(uint64(0x08080808), int64(time.Minute), uint8(1), int64(0), uint8(3), uint8(3)) // outside the space
	f.Add(uint64(bw.w.Origins.Get(origin.US1).SourceIPs[0].Add(1).V4()), int64(5), uint8(3), int64(9), uint8(0), uint8(2))
	// Two probes 2 s apart either side of a MicroBurstWindow edge (4650 s),
	// toward a host whose burst draws differ between the two windows: the
	// memo must draw the burst again for the second probe.
	f.Add(uint64(1)<<63, int64(4649*time.Second), uint8(1), int64(2*time.Second), uint8(3), uint8(0))
	f.Add(uint64(1)<<63, int64(5069*time.Second), uint8(1), int64(2*time.Second), uint8(5), uint8(0))
	// Two SSH probes 90 s apart toward an Alibaba host, across the edge of
	// one of its TemporalRST windows (silentRST): the memo must draw the
	// verdict again for the second probe's time.
	f.Add(uint64(1)<<63|915, int64(931*time.Minute), uint8(1), int64(90*time.Second), uint8(0), uint8(2))
	f.Add(uint64(1)<<63|915, int64(993*time.Minute), uint8(1), int64(90*time.Second), uint8(1<<4), uint8(2))
	for i, dst := range bw.dsts {
		if dst.Is4() && i%16 == 0 {
			f.Add(uint64(dst.V4()), int64(i)*int64(time.Minute), uint8(i), int64(i)*int64(time.Second), uint8(i/16), uint8(i/7))
		}
	}
	f.Fuzz(func(t *testing.T, word uint64, at int64, probes uint8, delay int64, orgIdx, portIdx uint8) {
		dst := ip.AddrFrom4(uint32(word))
		if word>>63 != 0 {
			dst = hosts[int(word&0xffffffff)%len(hosts)].Addr
			if word>>62&1 != 0 {
				dst = dst.Add(1) // often routed-empty space beside the host
			}
		}
		org := origins[int(orgIdx&0x0f)%len(origins)]
		trial := int(orgIdx >> 4 & 1)
		port := ports[int(portIdx)%len(ports)]
		p, isProto := proto.FromPort(port)
		n := 1 + int(probes%8)
		when := time.Duration(uint64(at) % uint64(scenario.ScanDuration))
		gap := time.Duration(uint64(delay) % uint64(2*time.Minute))

		byBytes := New(bw.config(p, cloneIDSes(bw.sc.IDSes)), org, trial)
		typed := New(bw.config(p, cloneIDSes(bw.sc.IDSes)), org, trial)
		buf := make([]byte, 0, 2*packet.ReplyCap)
		wantSA, wantRST := sendMasks(t, byBytes, &buf, org.SourceIPs, port, n, gap, dst, when)
		gotSA, gotRST, held := probeBatchIn(t, typed, org.SourceIPs, port, n, gap, []ip.Addr{dst}, []time.Duration{when}, 1)
		if gotSA[0] != wantSA || gotRST[0] != wantRST {
			t.Fatalf("%v → %v:%d trial %d, %d probes %v apart at %v: ProbeBatch %08b/%08b, Send loop %08b/%08b",
				org.ID, dst, port, trial, n, gap, when, gotSA[0], gotRST[0], wantSA, wantRST)
		}
		if watched := isProto && typed.Watched(p, dst); (held == 1) != watched {
			t.Fatalf("%v → %v:%d: ProbeBatch held it %v, watched %v", org.ID, dst, port, held == 1, watched)
		}
	})
}
