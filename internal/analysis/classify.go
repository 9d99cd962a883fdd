// Package analysis implements the paper's analyses over a study dataset:
// accessibility classification (transient vs long-term, host vs /24
// network), coverage tables, exclusivity, per-AS and per-country
// aggregation, packet-loss estimation, best/worst-origin stability, burst
// attribution, SSH cause breakdown, and multi-origin coverage.
package analysis

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
)

// Topology resolves hosts to networks and countries. *world.World
// satisfies it via WorldTopo; analyses of real scan data would plug a
// routing-table snapshot and geolocation database here instead.
type Topology interface {
	ASOf(a ip.Addr) (asn.ASN, bool)
	ASName(n asn.ASN) string
	CountryOf(a ip.Addr) (geo.Country, bool)
}

// Class is a host's accessibility classification from one origin (§3).
type Class uint8

const (
	// ClassAccessible: the origin completed a handshake in every trial
	// where the host was live.
	ClassAccessible Class = iota
	// ClassTransient: missed in some trials, seen in others.
	ClassTransient
	// ClassLongTerm: missed in every trial the host was live in (and it
	// was live in more than one).
	ClassLongTerm
	// ClassUnknown: the host appeared in only one trial, so transient
	// and long-term cannot be distinguished.
	ClassUnknown
)

var classNames = [...]string{"accessible", "transient", "long-term", "unknown"}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(?)"
}

// Classifier computes and caches per-host classifications for one protocol
// across all trials of a dataset: it is the report's per-protocol index.
//
// Its layout mirrors the columnar store: the sorted union of all live
// hosts is the spine, and presence bitmasks, per-origin classes and
// per-(origin, trial) success bits are columns aligned with it. Downstream
// analyses iterate the spine by index (OfAt/PresentAt), which is a straight
// array walk — no hash lookups, no searches of the scan columns. The AS and
// country columns, and the results several figures share, are built once on
// first use (with the first Topology a pass hands in) and are then safe for
// concurrent readers.
type Classifier struct {
	DS    *results.Dataset
	Proto proto.Protocol

	// union is every host live in at least one trial, sorted — the spine
	// all aligned columns index into.
	union ip.AddrSlice
	// presence[i] is a bitmask of trials union[i] was live in.
	presence []uint8
	// class[origin][i] is union[i]'s classification from the origin.
	class map[origin.ID][]Class
	// ok[origin][t] has bit i set when the origin completed an L7
	// handshake with union[i] in trial t; nil for a trial it did not scan.
	// Every success is in its trial's ground truth, so the bits answer
	// Success for any host.
	ok map[origin.ID][]bitset

	topoOnce   sync.Once
	topo       spineTopo
	exOnce     sync.Once
	ex         Exclusivity
	exAt       map[origin.ID][]int // spine indices of ex.Accessible
	spreadOnce sync.Once
	spreads    []ASLossSpread
	lossOnce   sync.Once
	loss       map[origin.ID][]*lossTally
}

// bitset holds one bit per spine host.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

// has reports bit i; a nil bitset (a trial not scanned) has none.
func (b bitset) has(i int) bool { return b != nil && b[i>>6]&(1<<(i&63)) != 0 }

// spineTopo is the spine resolved through the Topology, one lookup per host.
type spineTopo struct {
	groups  []asGroup     // every AS with a live host, by AS number
	group   []int32       // union[i]'s index into groups; -1 when unrouted
	country []geo.Country // union[i]'s country; "" when unknown
}

// asGroup is one destination AS's live hosts as spine indices, in address
// order.
type asGroup struct {
	AS    asn.ASN
	hosts []int
}

// spine returns the topology columns, resolving every union host through
// topo on first use.
func (c *Classifier) spine(topo Topology) *spineTopo {
	c.topoOnce.Do(func() {
		st := &c.topo
		st.group = make([]int32, len(c.union))
		st.country = make([]geo.Country, len(c.union))
		byAS := map[asn.ASN][]int{}
		for i, a := range c.union {
			st.group[i] = -1
			if n, ok := topo.ASOf(a); ok {
				byAS[n] = append(byAS[n], i)
			}
			if cc, ok := topo.CountryOf(a); ok {
				st.country[i] = cc
			}
		}
		for n, hosts := range byAS {
			st.groups = append(st.groups, asGroup{n, hosts})
		}
		sort.Slice(st.groups, func(i, j int) bool { return st.groups[i].AS < st.groups[j].AS })
		for g, gr := range st.groups {
			for _, i := range gr.hosts {
				st.group[i] = int32(g)
			}
		}
	})
	return &c.topo
}

// asOf returns union[i]'s AS, or 0 and false when it is unrouted.
func (st *spineTopo) asOf(i int) (asn.ASN, bool) {
	if g := st.group[i]; g >= 0 {
		return st.groups[g].AS, true
	}
	return 0, false
}

// NewClassifier classifies the dataset's hosts for one protocol. All
// per-host state is built with merge walks over the trials' sorted
// ground-truth and scan columns.
func NewClassifier(ds *results.Dataset, p proto.Protocol) *Classifier {
	gts := make([]ip.AddrSlice, ds.Trials)
	for t := range gts {
		gts[t] = ds.GroundTruth(p, t)
	}
	c := &Classifier{
		DS: ds, Proto: p,
		union: ip.Union(gts...),
		class: make(map[origin.ID][]Class, len(ds.Origins)),
		ok:    make(map[origin.ID][]bitset, len(ds.Origins)),
	}
	c.presence = make([]uint8, len(c.union))
	for t, gt := range gts {
		ui := 0
		for _, a := range gt {
			for c.union[ui].Less(a) {
				ui++
			}
			c.presence[ui] |= 1 << t
		}
	}
	for _, o := range ds.Origins {
		c.class[o], c.ok[o] = c.classifyOrigin(o, gts)
	}
	return c
}

// classifyOrigin walks each trial's ground truth against the origin's scan
// column, setting the trial's success bits and accumulating per-host
// present/missed counts along the union spine, then folds the counts into
// classes.
func (c *Classifier) classifyOrigin(o origin.ID, gts []ip.AddrSlice) ([]Class, []bitset) {
	present := make([]uint8, len(c.union))
	missed := make([]uint8, len(c.union))
	ok := make([]bitset, len(gts))
	for t, gt := range gts {
		s := c.DS.Scan(o, c.Proto, t)
		if s == nil {
			// Origin did not scan this trial (Carinet): only its
			// scanned trials count.
			continue
		}
		addrs := s.Addrs()
		ok[t] = newBitset(len(c.union))
		ui, j := 0, 0
		for _, a := range gt {
			for c.union[ui].Less(a) {
				ui++
			}
			for j < len(addrs) && addrs[j].Less(a) {
				j++
			}
			present[ui]++
			if j < len(addrs) && addrs[j] == a && s.SuccessAt(j, false) {
				ok[t].set(ui)
			} else {
				missed[ui]++
			}
		}
	}
	out := make([]Class, len(c.union))
	for i := range out {
		switch {
		case present[i] == 0:
			out[i] = ClassUnknown
		case missed[i] == 0:
			out[i] = ClassAccessible
		case present[i] == 1:
			out[i] = ClassUnknown
		case missed[i] == present[i]:
			out[i] = ClassLongTerm
		default:
			out[i] = ClassTransient
		}
	}
	return out, ok
}

// Union returns every host live in at least one trial, sorted by address.
// Indices into it are valid for OfAt, PresentAt, and TrialsPresentAt.
func (c *Classifier) Union() []ip.Addr { return c.union }

// Index returns a host's position on the union spine.
func (c *Classifier) Index(a ip.Addr) (int, bool) {
	i := c.union.Search(a)
	if i < len(c.union) && c.union[i] == a {
		return i, true
	}
	return i, false
}

// PresentAt reports whether union[i] was live in the trial.
func (c *Classifier) PresentAt(i, trial int) bool {
	return c.presence[i]&(1<<trial) != 0
}

// PresentIn reports whether the host was live in the trial.
func (c *Classifier) PresentIn(a ip.Addr, trial int) bool {
	i, ok := c.Index(a)
	return ok && c.PresentAt(i, trial)
}

// TrialsPresentAt returns the number of trials union[i] was live in.
func (c *Classifier) TrialsPresentAt(i int) int {
	return bits.OnesCount8(c.presence[i])
}

// TrialsPresent returns the number of trials the host was live in.
func (c *Classifier) TrialsPresent(a ip.Addr) int {
	i, ok := c.Index(a)
	if !ok {
		return 0
	}
	return c.TrialsPresentAt(i)
}

// OfAt returns union[i]'s classification from the origin.
func (c *Classifier) OfAt(o origin.ID, i int) Class { return c.class[o][i] }

// Of returns the host's classification from the origin.
func (c *Classifier) Of(o origin.ID, a ip.Addr) Class {
	i, ok := c.Index(a)
	if !ok {
		return ClassUnknown
	}
	return c.class[o][i]
}

// HostsOfClass returns the hosts with the given class from the origin.
func (c *Classifier) HostsOfClass(o origin.ID, cl Class) []ip.Addr {
	var out []ip.Addr
	for i, a := range c.union {
		if c.class[o][i] == cl {
			out = append(out, a)
		}
	}
	return out
}

// MissedInTrial returns the hosts live in the trial that the origin failed
// to handshake with, in address order.
func (c *Classifier) MissedInTrial(o origin.ID, trial int) []ip.Addr {
	var out []ip.Addr
	c.eachMissed(o, trial, func(i int) { out = append(out, c.union[i]) })
	return out
}

// eachMissed calls fn with the spine index of every host live in the trial
// that the origin failed to handshake with, in address order; it calls
// nothing when the origin did not scan the trial.
func (c *Classifier) eachMissed(o origin.ID, trial int, fn func(i int)) {
	oks := c.ok[o]
	if trial < 0 || trial >= len(oks) || oks[trial] == nil {
		return
	}
	for i := range c.union {
		if c.PresentAt(i, trial) && !oks[trial].has(i) {
			fn(i)
		}
	}
}
