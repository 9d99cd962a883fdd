// Package loss models packet loss on origin→destination paths.
//
// The paper's central finding about transient loss is that it is *not*
// uniform random packet drop: in >93% of cases where one ZMap probe is lost,
// the second back-to-back probe is lost too, and the follow-up application
// handshake fails as well. We therefore model two distinct processes per
// (origin, destination-AS) path:
//
//   - a per-packet independent drop probability ("PacketDrop"), which
//     produces the hosts that answer exactly one of two probes — the signal
//     the paper's §5.2 estimator measures — and which, when extreme (40%+ on
//     Germany→Telecom Italia paths), makes hosts effectively unreachable
//     long-term; and
//
//   - a correlated loss *episode* probability ("EpisodeRate"): short windows
//     in which every packet between the origin and the host is dropped, so
//     both probes and any retry are lost together. Episodes are the dominant
//     cause of transiently missed hosts.
//
// Episode rates have a stable component proportional to the path's packet
// drop (this creates the paper's consistently-worst origins, e.g. Australia
// to Russia/Kazakhstan, where drop is 10× the second-worst origin) and a
// volatile component redrawn every trial (this makes the best origin in one
// trial the worst in the next for ~23% of ASes, as the paper observes even
// for Amazon and Google).
package loss

import (
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/rng"
)

// Params are the loss parameters of one (origin, AS, trial) path.
type Params struct {
	// PacketDrop is the independent one-way per-packet drop probability.
	PacketDrop float64
	// EpisodeRate is the probability that a given host's probe window
	// falls inside a full-loss episode.
	EpisodeRate float64
	// BadPrefixFrac marks a stable fraction of the AS's /24s whose
	// paths from this origin are pathologically lossy (BadDrop replaces
	// PacketDrop there). This models Germany's persistent lack of
	// connectivity to 36–46% of Telecom Italia (Sparkle): loss so high
	// that even retransmitting TCP rarely completes a handshake.
	BadPrefixFrac float64
	BadDrop       float64
}

// Config tunes the loss matrix. Zero values take defaults.
type Config struct {
	// BasePacketDrop is the median per-packet one-way drop probability
	// for an ordinary path (default 0.004).
	BasePacketDrop float64
	// PairCorrelation is the fraction of per-packet drop realized as
	// micro-bursts spanning a host's whole probe window (both
	// back-to-back probes and their responses), the remainder being
	// independent per packet. The paper finds that when one probe is
	// lost, the second is lost too in >93% of cases — consecutive
	// probes share fate. Default 0.85.
	PairCorrelation float64
	// OriginFactor scales packet drop per origin (default 1.0).
	// Australia, with the worst connectivity in the paper, gets >1.
	OriginFactor map[origin.ID]float64
	// StableAlpha is the stable episode component as a multiple of the
	// path's packet drop (default 2.0).
	StableAlpha float64
	// VolatileSpreadFrac is the fraction of ASes whose per-origin
	// transient loss is volatile and widely spread (default 0.20; the
	// paper finds loss-rate differences >10% for 16–25% of ASes).
	VolatileSpreadFrac float64
	// VolatileModerateFrac is the fraction of ASes with moderate
	// volatile spread (default 0.30). The remainder (~half of ASes) see
	// near-identical loss from all origins, matching Figure 9.
	VolatileModerateFrac float64
	// VolatileMax is the maximum volatile episode rate for high-spread
	// ASes (default 0.30).
	VolatileMax float64
	// TrialMultiplier scales the volatile episode component per
	// (origin, trial); models Australia's +275% HTTPS swing between
	// trials. Default 1.0.
	TrialMultiplier map[origin.ID][]float64
	// SiteAlias maps co-located origins to a shared site identity: most
	// of their volatile loss is drawn from the site key, so transient
	// losses correlate strongly — the paper's follow-up finds three
	// Tier-1 transits in one data center form the worst triad because
	// their paths converge.
	SiteAlias map[origin.ID]origin.ID
	// Overrides pins the stable parameters of named paths, e.g.
	// Germany→Telecom Italia at 40% packet drop. Overridden paths still
	// receive the volatile per-trial episode component.
	Overrides map[Pair]Params
}

// Pair names one (origin, destination AS) path.
type Pair struct {
	Origin origin.ID
	AS     asn.ASN
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BasePacketDrop == 0 {
		out.BasePacketDrop = 0.004
	}
	if out.PairCorrelation == 0 {
		out.PairCorrelation = 0.85
	}
	if out.StableAlpha == 0 {
		out.StableAlpha = 1.0
	}
	if out.VolatileSpreadFrac == 0 {
		out.VolatileSpreadFrac = 0.18
	}
	if out.VolatileModerateFrac == 0 {
		out.VolatileModerateFrac = 0.30
	}
	if out.VolatileMax == 0 {
		out.VolatileMax = 0.30
	}
	return out
}

// Matrix derives loss parameters for every (origin, AS, trial) path from a
// key, with explicit overrides for the pathological paths the paper names.
// A Matrix is immutable once NewMatrix returns, which is what makes all of
// its methods safe for concurrent use.
type Matrix struct {
	cfg Config

	// Derived sub-keys, computed once: Derive hashes its label string on
	// every call, and PacketLost alone needs four of these per packet.
	packetKey   rng.Key
	classKey    rng.Key
	volatileKey rng.Key
	badnetKey   rng.Key
	microKey    rng.Key
	pktKey      rng.Key
	episodeKey  rng.Key
	hsKey       rng.Key
}

// NewMatrix returns a loss matrix deriving from key with the given config.
// The matrix owns cfg's maps: the caller must not modify them afterwards.
func NewMatrix(key rng.Key, cfg Config) *Matrix {
	return &Matrix{
		cfg:         cfg.withDefaults(),
		packetKey:   key.Derive("packet"),
		classKey:    key.Derive("class"),
		volatileKey: key.Derive("volatile"),
		badnetKey:   key.Derive("badnet"),
		microKey:    key.Derive("micro"),
		pktKey:      key.Derive("pkt"),
		episodeKey:  key.Derive("episode"),
		hsKey:       key.Derive("hs"),
	}
}

// originFactor returns the per-origin packet-drop scale.
func (m *Matrix) originFactor(o origin.ID) float64 {
	if f, ok := m.cfg.OriginFactor[o]; ok {
		return f
	}
	return 1.0
}

func (m *Matrix) trialMultiplier(o origin.ID, trial int) float64 {
	if ms, ok := m.cfg.TrialMultiplier[o]; ok && trial >= 0 && trial < len(ms) && ms[trial] > 0 {
		return ms[trial]
	}
	return 1.0
}

// Params derives the loss parameters of the (origin, AS) path in a trial.
func (m *Matrix) Params(o origin.ID, as asn.ASN, trial int) Params {
	p, overridden := m.cfg.Overrides[Pair{o, as}]
	if !overridden {
		// Stable per-path packet drop: lognormal-ish around the base,
		// scaled by the origin's connectivity factor.
		u := m.packetKey.Float64(uint64(o), uint64(as))
		// Map u through a heavy-ish tail: most paths near base, a few
		// paths several times worse.
		mult := 0.25 + 4*u*u*u
		p.PacketDrop = m.cfg.BasePacketDrop * mult * m.originFactor(o)
		if p.PacketDrop > 0.20 {
			p.PacketDrop = 0.20
		}
	}

	// Episode rate: stable component + volatile per-trial component.
	p.EpisodeRate += m.cfg.StableAlpha * p.PacketDrop
	p.EpisodeRate += m.volatileEpisode(o, as, trial) * m.trialMultiplier(o, trial)
	if p.EpisodeRate > 0.95 {
		p.EpisodeRate = 0.95
	}
	return p
}

// volatileEpisode draws the per-trial volatile episode component. The AS's
// spread class is stable; the per-origin rate within the class is redrawn
// each trial.
func (m *Matrix) volatileEpisode(o origin.ID, as asn.ASN, trial int) float64 {
	u := m.classKey.Float64(uint64(as))
	rateKey := m.volatileKey
	draw := rateKey.Float64(uint64(o), uint64(as), uint64(trial))
	if site, ok := m.cfg.SiteAlias[o]; ok {
		// Co-located origins share most of their volatile loss.
		siteDraw := rateKey.Float64(uint64(site)+1000, uint64(as), uint64(trial))
		draw = 0.85*siteDraw + 0.15*draw
	}
	switch {
	case u < m.cfg.VolatileSpreadFrac:
		// High-spread AS: a minority of origins see large episode
		// rates this trial; most see little. The fifth power
		// concentrates mass near zero with a heavy tail.
		d2 := draw * draw
		return m.cfg.VolatileMax * d2 * d2 * draw
	case u < m.cfg.VolatileSpreadFrac+m.cfg.VolatileModerateFrac:
		// Moderate-spread AS.
		return 0.015 * draw * draw
	default:
		// Quiet AS: all origins see the same negligible rate
		// (keyed only by AS and trial, not origin, so pairwise
		// differences are exactly zero — the left half of Fig 9).
		return 0.002 * rateKey.Float64(uint64(as), uint64(trial), 7)
	}
}

// Path is the loss state of one (origin, AS, trial) path, resolved once:
// the fabric keeps it in its plan for the AS and asks it the per-probe and
// per-connection loss questions (episode, probe loss, handshake loss)
// without repeating the parameter lookup. Every draw is still a keyed hash
// of the same event coordinates, so decisions do not depend on how a caller
// groups them.
type Path struct {
	m      *Matrix
	params Params
	origin origin.ID
	site   origin.ID // the origin's loss-sharing site identity
	trial  int
}

// Path resolves the loss state of the (origin, AS) path in a trial.
func (m *Matrix) Path(o origin.ID, as asn.ASN, trial int) Path {
	return Path{m: m, params: m.Params(o, as, trial), origin: o, site: m.alias(o), trial: trial}
}

// DropFor returns the effective per-packet drop probability for a specific
// destination, accounting for pathological /24 subsets.
func (p *Path) DropFor(dst ip.Addr) float64 {
	if p.params.BadPrefixFrac > 0 {
		s24 := dst.Slash24()
		if p.m.badnetKey.Bool(p.params.BadPrefixFrac, uint64(p.origin), s24.Base.Word64()) {
			return p.params.BadDrop
		}
	}
	return p.params.PacketDrop
}

// MicroBurstWindow is the duration of a correlated micro-burst: packets to
// the same host within one window share fate. Back-to-back ZMap probes land
// in the same window; probes delayed beyond it draw independently — which
// is why the paper (§7, citing Bano et al.) recommends delaying the time
// between probes to the same host.
const MicroBurstWindow = 30 * time.Second

// alias returns the origin's loss-sharing site identity (itself unless
// co-located with others).
func (m *Matrix) alias(o origin.ID) origin.ID {
	if site, ok := m.cfg.SiteAlias[o]; ok {
		return site
	}
	return o
}

// PacketLost reports whether one specific packet is dropped, keyed by the
// full event coordinates (direction/sequence discriminator included by the
// caller via pktIdx; t locates the packet's micro-burst window). This
// applies to unretransmitted packets: ZMap probes and their responses. A
// PairCorrelation share of the drop probability is realized as micro-bursts
// covering whole windows, so consecutive probes are usually lost together.
// Micro-bursts are keyed by the origin's site: co-located origins share the
// paths that carry the burst.
func (p *Path) PacketLost(dst ip.Addr, pktIdx uint64, t time.Duration) bool {
	q := p.DropFor(dst)
	c := p.m.cfg.PairCorrelation
	window := uint64(t / MicroBurstWindow)
	if p.m.microKey.Bool(q*c, uint64(p.site)+siteKeyOffset, dst.Word64(), uint64(p.trial), window) {
		return true
	}
	return p.m.pktKey.Bool(q*(1-c), uint64(p.origin), dst.Word64(), uint64(p.trial), pktIdx)
}

// TargetDraws holds the loss draws one target's probes share on a path:
// the destination's drop probability, and the micro-burst draw of the last
// MicroBurstWindow a probe fell in. Each is a keyed hash of coordinates the
// probes have in common, so reusing it for a later probe of the same target
// is what drawing it again would give. The zero value has drawn nothing;
// one TargetDraws serves one destination on one Path.
type TargetDraws struct {
	drop     float64
	window   uint64
	hasDrop  bool
	hasBurst bool
	burst    bool
}

// ProbeLost reports whether probe probeIdx of a target elicits no response
// because the probe (packet 2·probeIdx) or its response (2·probeIdx+1) is
// dropped: PacketLost(2i) || PacketLost(2i+1), with the destination's drop
// probability and the micro-burst draw — which does not depend on the packet
// index — taken once instead of once per direction, and once per target
// (per window for the burst) when the target's probes share td. A fresh
// TargetDraws gives the per-probe draw. PacketLost remains the per-packet
// definition the tests hold this to.
func (p *Path) ProbeLost(td *TargetDraws, dst ip.Addr, probeIdx uint64, t time.Duration) bool {
	if !td.hasDrop {
		td.drop, td.hasDrop = p.DropFor(dst), true
	}
	q, c := td.drop, p.m.cfg.PairCorrelation
	d, trial := dst.Word64(), uint64(p.trial)
	if w := uint64(t / MicroBurstWindow); !td.hasBurst || td.window != w {
		td.burst = p.m.microKey.Bool(q*c, uint64(p.site)+siteKeyOffset, d, trial, w)
		td.window, td.hasBurst = w, true
	}
	if td.burst {
		return true
	}
	ind := q * (1 - c)
	return p.m.pktKey.Bool(ind, uint64(p.origin), d, trial, probeIdx*2) ||
		p.m.pktKey.Bool(ind, uint64(p.origin), d, trial, probeIdx*2+1)
}

// siteKeyOffset separates site-keyed draws from origin-keyed draws so a
// non-aliased origin's two loss components stay independent.
const siteKeyOffset = 4096

// EpisodeActive reports whether the (origin → dst) path is inside a
// full-loss episode during this host's probe window. The draw is keyed per
// host and trial: both probes and the follow-up connection share the window,
// which is what makes loss correlated. Most of the episode mass is keyed by
// the origin's site, so co-located origins miss largely the same hosts —
// the paper's follow-up finds the co-located Tier-1 triad recovers the
// least coverage of any three origins.
func (p *Path) EpisodeActive(dst ip.Addr) bool {
	rate := p.params.EpisodeRate
	if p.m.episodeKey.Bool(rate*0.85, uint64(p.site)+siteKeyOffset, dst.Word64(), uint64(p.trial)) {
		return true
	}
	return p.m.episodeKey.Bool(rate*0.15, uint64(p.origin), dst.Word64(), uint64(p.trial))
}

// ConnFailProb returns the probability a full TCP connection plus
// application handshake fails under per-packet drop q. Unlike raw probes,
// connections retransmit: the kernel retries the SYN (~3 times within a
// grab timeout) and TCP retransmits lost segments, so moderate uniform loss
// (≤20%) rarely kills a handshake — which is why the paper's lossy
// Telecom Italia paths mostly show up as ZMap probe loss (transient), while
// only the catastrophic Germany paths (40%+) become long-term inaccessible.
//
//	failSYN  = (1-(1-q)²)³   — three SYN attempts, each a round trip
//	failData = (1-(1-q)²)²   — banner exchange with one retransmission
func ConnFailProb(q float64) float64 {
	rt := 1 - (1-q)*(1-q) // round-trip loss probability
	failSYN := rt * rt * rt
	failData := rt * rt
	return 1 - (1-failSYN)*(1-failData)
}

// HandshakeFailed reports whether a connection attempt fails due to
// per-packet loss (distinct from episodes), keyed per attempt so retries
// draw independently.
func (p *Path) HandshakeFailed(dst ip.Addr, attempt int) bool {
	return p.m.hsKey.Bool(ConnFailProb(p.DropFor(dst)), uint64(p.origin), dst.Word64(), uint64(p.trial), uint64(attempt))
}
