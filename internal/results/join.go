package results

import (
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
)

// Join is one (protocol, trial) of the dataset host by host. GT is the
// trial's ground truth: the hosts that completed an L7 handshake with at
// least one origin, the paper's working definition of live hosts. Beside it
// each of the dataset's origins has a Column aligned with GT, naming that
// origin's scan row for every ground-truth host.
//
// The Join is the one place that decides which row of a scan is a given
// host: every comparison between origins (coverage, ∩, McNemar pairs, the
// classifier, packet loss, multi-origin coverage) reads scan rows through it
// by index. A Join is shared and immutable: callers must not modify it.
type Join struct {
	// GT is the ground truth, sorted by address.
	GT ip.AddrSlice

	origins origin.Set
	cols    []Column // aligned with origins
}

// Column is one origin's scan of a Join's trial, read host by host.
type Column struct {
	// Scan is the origin's scan; nil when the origin did not scan the
	// trial (Carinet outside trial 1).
	Scan *ScanResult
	// Rows[g] is Scan's row for GT[g], or -1 when the scan has no row for
	// that host; nil when Scan is nil.
	Rows []int32
}

// Of returns origin o's column: the zero Column when o did not scan the
// trial or is not one of the dataset's origins.
func (j *Join) Of(o origin.ID) Column {
	for k, x := range j.origins {
		if x == o {
			return j.cols[k]
		}
	}
	return Column{}
}

// Success reports whether the scan completed an L7 handshake with GT[g],
// optionally requiring a response to probe 0 (the single-probe simulation
// the paper uses: "we simulate scanning with one probe by requiring
// successful responses to both of our ZMap probes" — in our direction,
// requiring probe 0's response).
func (c Column) Success(g int, singleProbe bool) bool {
	return c.Scan != nil && c.Scan.SuccessAt(int(c.Rows[g]), singleProbe)
}

// Record returns the scan's record of GT[g], and false when it has none.
func (c Column) Record(g int) (HostRecord, bool) {
	if c.Scan == nil || c.Rows[g] < 0 {
		return HostRecord{}, false
	}
	return c.Scan.RecordAt(int(c.Rows[g])), true
}

// Join returns the (protocol, trial)'s join, building it on first use. It is
// cached until Put or Replace stores a scan of that (protocol, trial);
// concurrent first callers wait for one build.
func (d *Dataset) Join(p proto.Protocol, trial int) *Join {
	d.joinMu.Lock()
	defer d.joinMu.Unlock()
	k := joinKey{p, trial}
	j := d.joins[k]
	if j == nil {
		j = d.join(p, trial)
		d.joins[k] = j
	}
	return j
}

// join builds the (protocol, trial)'s join in one k-way merge over the
// sealed address columns of the trial's scans. A host enters GT when any
// scan's row for it is an L7 success; each column then records that scan's
// row for the host, or -1.
func (d *Dataset) join(p proto.Protocol, trial int) *Join {
	j := &Join{origins: d.Origins, cols: make([]Column, len(d.Origins))}
	var live []int // the columns of the origins that scanned the trial
	size := 0
	for k, o := range d.Origins {
		if s := d.Scan(o, p, trial); s != nil {
			size = max(size, s.L7Count()) // seals
			j.cols[k].Scan = s
			live = append(live, k)
		}
	}
	// GT holds at least the largest scan's successes; an eighth more leaves
	// room for the hosts only other origins saw.
	size += size / 8
	j.GT = make(ip.AddrSlice, 0, size)
	for _, k := range live {
		j.cols[k].Rows = make([]int32, 0, size)
	}
	pos := make([]int, len(j.cols))
	for {
		var h ip.Addr
		found, l7 := false, false
		for _, k := range live {
			s, i := j.cols[k].Scan, pos[k]
			if i == len(s.addrs) {
				continue
			}
			switch a, ok := s.addrs[i], s.rows[i].flags&flagL7 != 0; {
			case !found || a.Less(h):
				h, found, l7 = a, true, ok
			case a == h:
				l7 = l7 || ok
			}
		}
		if !found {
			return j
		}
		if l7 {
			j.GT = append(j.GT, h)
		}
		for _, k := range live {
			c, i := &j.cols[k], pos[k]
			if i < len(c.Scan.addrs) && c.Scan.addrs[i] == h {
				pos[k]++
			} else {
				i = -1
			}
			if l7 {
				c.Rows = append(c.Rows, int32(i))
			}
		}
	}
}

// GroundTruth returns the sorted set of hosts that completed an L7
// handshake with at least one origin in the trial: the Join's GT.
func (d *Dataset) GroundTruth(p proto.Protocol, trial int) []ip.Addr {
	return d.Join(p, trial).GT
}

// Intersection returns the number of ground-truth hosts every origin saw in
// the trial (the ∩ column of Table 4a). Origins that did not scan the trial
// (Carinet outside trial 1) are skipped, as in the paper.
func (d *Dataset) Intersection(p proto.Protocol, trial int) int {
	j, n := d.Join(p, trial), 0
	for g := range j.GT {
		all := true
		for _, c := range j.cols {
			if c.Scan != nil && !c.Success(g, false) {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

// Coverage returns the fraction of the trial's ground truth the origin saw.
func (d *Dataset) Coverage(o origin.ID, p proto.Protocol, trial int, singleProbe bool) float64 {
	return d.CoverageOfSet(origin.Set{o}, p, trial, singleProbe)
}

// CoverageOfSet returns the fraction of the trial's ground truth seen by
// any origin in the set — multi-origin coverage (§7, Figure 15) of one
// combination. The 2^n-combination analysis.MultiOrigin computes the same
// number from an origin-mask column and is tested against this.
func (d *Dataset) CoverageOfSet(origins origin.Set, p proto.Protocol, trial int, singleProbe bool) float64 {
	j := d.Join(p, trial)
	if len(j.GT) == 0 {
		return 0
	}
	n := 0
	for g := range j.GT {
		for _, o := range origins {
			if j.Of(o).Success(g, singleProbe) {
				n++
				break
			}
		}
	}
	return float64(n) / float64(len(j.GT))
}
