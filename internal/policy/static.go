package policy

import (
	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/rng"
)

// OriginMatch selects which origins a rule applies to. Zero value matches
// every origin; set fields narrow the match (all set fields must hold).
type OriginMatch struct {
	// IDs, when non-empty, restricts the match to these origins.
	IDs origin.Set
	// ExcludeIDs, when non-empty, exempts these origins.
	ExcludeIDs origin.Set
	// Countries, when non-empty, restricts to origins located in these
	// countries (used by geographic fences).
	Countries []geo.Country
	// ExcludeCountries exempts origins in these countries ("blocks all
	// non-US origins").
	ExcludeCountries []geo.Country
	// MinReputation, when non-zero, matches only origins whose scan
	// reputation is at least this level (reputation-driven blocking:
	// Censys is RepHeavy).
	MinReputation origin.Reputation
	// MaxSrcIPs, when non-zero, matches only origins scanning with at
	// most this many source IPs (IDS-style detection that 64-IP origins
	// evade).
	MaxSrcIPs int
}

// Matches reports whether the query's origin is selected.
func (m *OriginMatch) Matches(q *Query) bool {
	if len(m.IDs) > 0 && !m.IDs.Contains(q.Origin) {
		return false
	}
	if m.ExcludeIDs.Contains(q.Origin) {
		return false
	}
	if len(m.Countries) > 0 && !containsCountry(m.Countries, q.SrcCountry) {
		return false
	}
	if containsCountry(m.ExcludeCountries, q.SrcCountry) {
		return false
	}
	if m.MinReputation != 0 && q.Rep < m.MinReputation {
		return false
	}
	if m.MaxSrcIPs != 0 && q.NumSrcIPs > m.MaxSrcIPs {
		return false
	}
	return true
}

func containsCountry(cs []geo.Country, c geo.Country) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// DestMatch selects which destinations a rule covers. Zero value matches
// everything; set fields narrow the match.
type DestMatch struct {
	ASes      []asn.ASN
	Countries []geo.Country
	Protocols proto.Mask // zero means all protocols
}

// Matches reports whether the query's destination is covered.
func (m *DestMatch) Matches(q *Query) bool {
	if len(m.ASes) > 0 && !containsAS(m.ASes, q.DstAS) {
		return false
	}
	if len(m.Countries) > 0 && !containsCountry(m.Countries, q.DstCountry) {
		return false
	}
	if m.Protocols != 0 && !m.Protocols.Has(q.Proto) {
		return false
	}
	return true
}

// canMatch is Matches restricted to the scan-constant gates (see
// ScanGated): the AS list and the protocol mask. An AS can span countries,
// so the country gate stays in Matches.
func (m *DestMatch) canMatch(q *Query) bool {
	if len(m.ASes) > 0 && !containsAS(m.ASes, q.DstAS) {
		return false
	}
	return m.Protocols == 0 || m.Protocols.Has(q.Proto)
}

func containsAS(as []asn.ASN, a asn.ASN) bool {
	for _, x := range as {
		if x == a {
			return true
		}
	}
	return false
}

// StaticBlock is long-term blocking: a set of destinations that always
// denies a set of origins. HostFraction restricts the block to a stable
// subset of hosts (e.g. "90% of EGI hosts block Censys in trial 1");
// FractionByTrial optionally overrides the fraction per trial.
type StaticBlock struct {
	RuleName     string
	Origins      OriginMatch
	Dests        DestMatch
	Action       Verdict
	HostFraction float64 // 0 or 1 mean "all hosts"
	// FractionByTrial[i], when set (non-nil and i in range), replaces
	// HostFraction for trial i. Models EGI's 90% → 100% progression.
	FractionByTrial []float64
	// Key scopes the host-fraction hash so different rules select
	// independent host subsets.
	Key rng.Key
}

// Name implements Rule.
func (b *StaticBlock) Name() string { return b.RuleName }

// CanMatch implements ScanGated: the origin match is scan-constant in full.
func (b *StaticBlock) CanMatch(q *Query) bool {
	return b.Origins.Matches(q) && b.Dests.canMatch(q)
}

// Evaluate implements Rule.
func (b *StaticBlock) Evaluate(q *Query) (Verdict, bool) {
	if !b.Origins.Matches(q) || !b.Dests.Matches(q) {
		return 0, false
	}
	frac := b.HostFraction
	if q.Trial >= 0 && q.Trial < len(b.FractionByTrial) {
		frac = b.FractionByTrial[q.Trial]
	}
	if frac > 0 && frac < 1 && !hostFraction(b.Key, q.Dst, frac) {
		return 0, false
	}
	return b.Action, true
}

// GeoFence is regional access control: only origins matching Allowed can
// reach the destinations; everyone else receives Action. The paper finds
// JP-only (Bekkoame, NTT, Gateway), AU-only (WebCentral, Cloudflare
// misconfiguration), and BR-only (WA K-20) networks.
type GeoFence struct {
	RuleName     string
	Allowed      OriginMatch
	Dests        DestMatch
	Action       Verdict
	HostFraction float64
	Key          rng.Key
}

// Name implements Rule.
func (g *GeoFence) Name() string { return g.RuleName }

// CanMatch implements ScanGated: an allowed origin is never fenced.
func (g *GeoFence) CanMatch(q *Query) bool {
	return g.Dests.canMatch(q) && !g.Allowed.Matches(q)
}

// Evaluate implements Rule.
func (g *GeoFence) Evaluate(q *Query) (Verdict, bool) {
	if !g.Dests.Matches(q) {
		return 0, false
	}
	if g.HostFraction > 0 && g.HostFraction < 1 && !hostFraction(g.Key, q.Dst, g.HostFraction) {
		return 0, false
	}
	if g.Allowed.Matches(q) {
		return 0, false
	}
	return g.Action, true
}

// ReputationScatter models the diffuse blocking that scales with an
// origin's scanning reputation: beyond the handful of big blockers, Censys
// still misses ~1.5× more hosts than the second-worst origin, spread thinly
// across many networks; fresh-but-unlucky origins (BR, JP) hit regional
// blocklists. Each (origin, /24) pair is blocked with a probability chosen
// by reputation tier.
type ReputationScatter struct {
	RuleName string
	// FracByRep[rep] is the fraction of /24s that long-term block an
	// origin of that reputation.
	FracByRep map[origin.Reputation]float64
	Dests     DestMatch
	Action    Verdict
	Key       rng.Key
}

// Name implements Rule.
func (r *ReputationScatter) Name() string { return r.RuleName }

// CanMatch implements ScanGated: a reputation tier with no blocked share is
// never scattered.
func (r *ReputationScatter) CanMatch(q *Query) bool {
	return r.Dests.canMatch(q) && r.FracByRep[q.Rep] > 0
}

// Evaluate implements Rule.
func (r *ReputationScatter) Evaluate(q *Query) (Verdict, bool) {
	if !r.Dests.Matches(q) {
		return 0, false
	}
	frac := r.FracByRep[q.Rep]
	if frac <= 0 {
		return 0, false
	}
	// Key by the origin and the destination /24: network-level blocking
	// decisions, stable across trials and probes.
	s24 := q.Dst.Slash24()
	if !r.Key.Bool(frac, uint64(q.Origin), s24.Base.Word64()) {
		return 0, false
	}
	return r.Action, true
}
