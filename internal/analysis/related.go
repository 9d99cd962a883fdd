package analysis

import (
	"math"

	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
)

// Slash24Agreement reproduces the paper's §8 comparison with Heidemann et
// al. (2008): for each pair of origins, the fraction of /24 blocks whose
// response rates from the two origins agree within the tolerance. Heidemann
// found 96% of /24s within 5% between two U.S. origins; the paper finds 87%
// averaged over its more diverse origin pairs.
type Slash24Agreement struct {
	// PerPair[i] is one origin pair's agreement fraction.
	PerPair []PairAgreement
	// Mean is the average agreement across pairs.
	Mean float64
	// Blocks is the number of /24s with enough hosts to compare.
	Blocks int
}

// PairAgreement is one origin pair's agreement.
type PairAgreement struct {
	A, B      origin.ID
	Agreement float64
}

// AgreementWithin computes the /24 response-rate agreement for one protocol
// and trial. Blocks need at least minHosts live hosts; tolerance is the
// absolute response-rate difference treated as agreement (0.05 in both
// papers).
//
// A block is a run of the sorted ground truth, so each origin's rate for
// every block comes from one merge walk of the ground truth against its
// scan, and an origin pair compares two rate slices.
func AgreementWithin(ds *results.Dataset, p proto.Protocol, trial int, minHosts int, tolerance float64) Slash24Agreement {
	if minHosts < 1 {
		minHosts = 2
	}
	gt := ds.GroundTruth(p, trial)
	var blocks [][2]int // [lo, hi) into gt
	slash24Runs(gt, func(lo, hi int) {
		if hi-lo >= minHosts {
			blocks = append(blocks, [2]int{lo, hi})
		}
	})
	out := Slash24Agreement{Blocks: len(blocks)}
	if len(blocks) == 0 {
		return out
	}
	// rates[k][b] is the k-th scanning origin's response rate in block b.
	var origins origin.Set
	var rates [][]float64
	for _, o := range ds.Origins {
		s := ds.Scan(o, p, trial)
		if s == nil {
			continue
		}
		addrs, j := s.Addrs(), 0
		r := make([]float64, len(blocks))
		for b, blk := range blocks {
			n := 0
			for _, a := range gt[blk[0]:blk[1]] {
				for j < len(addrs) && addrs[j].Less(a) {
					j++
				}
				if j < len(addrs) && addrs[j] == a && s.SuccessAt(j, false) {
					n++
				}
			}
			r[b] = float64(n) / float64(blk[1]-blk[0])
		}
		origins = append(origins, o)
		rates = append(rates, r)
	}
	var sum float64
	for i := 0; i < len(origins); i++ {
		for j := i + 1; j < len(origins); j++ {
			agree := 0
			for b := range blocks {
				if math.Abs(rates[i][b]-rates[j][b]) <= tolerance {
					agree++
				}
			}
			pa := PairAgreement{
				A: origins[i], B: origins[j],
				Agreement: float64(agree) / float64(len(blocks)),
			}
			out.PerPair = append(out.PerPair, pa)
			sum += pa.Agreement
		}
	}
	out.Mean = sum / float64(len(out.PerPair))
	return out
}
