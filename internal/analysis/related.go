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
// every block is a count over a run of its join column, and an origin pair
// compares two rate slices. With fewer than two scanning origins there is
// no pair: Mean is 0 and PerPair empty.
func AgreementWithin(ds *results.Dataset, p proto.Protocol, trial int, minHosts int, tolerance float64) Slash24Agreement {
	if minHosts < 1 {
		minHosts = 2
	}
	j := ds.Join(p, trial)
	var blocks [][2]int // [lo, hi) into j.GT
	slash24Runs(j.GT, func(lo, hi int) {
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
		col := j.Of(o)
		if col.Scan == nil {
			continue
		}
		r := make([]float64, len(blocks))
		for b, blk := range blocks {
			n := 0
			for g := blk[0]; g < blk[1]; g++ {
				if col.Success(g, false) {
					n++
				}
			}
			r[b] = float64(n) / float64(blk[1]-blk[0])
		}
		origins = append(origins, o)
		rates = append(rates, r)
	}
	var sum float64
	for a := range origins {
		for b := a + 1; b < len(origins); b++ {
			agree := 0
			for k := range blocks {
				if math.Abs(rates[a][k]-rates[b][k]) <= tolerance {
					agree++
				}
			}
			pa := PairAgreement{
				A: origins[a], B: origins[b],
				Agreement: float64(agree) / float64(len(blocks)),
			}
			out.PerPair = append(out.PerPair, pa)
			sum += pa.Agreement
		}
	}
	if len(out.PerPair) > 0 {
		out.Mean = sum / float64(len(out.PerPair))
	}
	return out
}
