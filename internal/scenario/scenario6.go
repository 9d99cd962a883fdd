package scenario

// The IPv6 scenario. The v4 scenario reproduces the paper's calibrated,
// profile-by-profile destination behaviours; a v6 world has no such
// published calibration (the paper scanned IPv4 only), so the v6 study
// models the same CLASSES of origin bias — reputation-driven blocking,
// origin-set blocks, geographic fences, lossy paths — drawn deterministically
// per provider AS from the scenario key. Every behaviour is keyed on the AS
// number, so the same world always gets the same blockers, and the study
// still answers the paper's question: does WHERE you scan from change WHAT
// you see?

import (
	"fmt"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/loss"
	"repro/internal/origin"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/world"
)

// buildLoss6 configures the v6 loss matrix: the same origin-level factors
// as v4 (they model the origins' connectivity, not the destinations), plus
// keyed per-provider lossy paths standing in for the profile overrides.
func (s *Scenario) buildLoss6(key rng.Key, cfg Config) {
	lcfg := originLoss()
	if !cfg.DisableLossOverrides {
		lcfg.Overrides = pathOverrides6(s.World, key)
	}
	s.Loss = loss.NewMatrix(key, lcfg)
}

// pathOverrides6 puts about a third of providers behind persistently lossy
// transit, with a stable per-(origin, AS) drop — the v6 analog of the China
// and Russia path overrides.
func pathOverrides6(w *world.World, key rng.Key) map[loss.Pair]loss.Params {
	ov := make(map[loss.Pair]loss.Params)
	ases, _ := w.ASWeights()
	pkey := key.Derive("v6paths")
	dkey := pkey.Derive("drop")
	for _, as := range ases {
		if pkey.Float64(uint64(as)) >= 0.35 {
			continue
		}
		for _, o := range allOrigins() {
			q := 0.01 + 0.07*dkey.Float64(uint64(as), uint64(o))
			ov[loss.Pair{Origin: o, AS: as}] = loss.Params{PacketDrop: q}
		}
	}
	return ov
}

// buildPolicies6 assembles the v6 rule set: each provider AS draws at most
// one destination-side behaviour from the paper's catalogue, plus the
// global reputation scatter. Moderate HostFractions (rather than full-AS
// blocks) keep every origin's coverage meaningful over a few dozen islands.
func (s *Scenario) buildPolicies6(key rng.Key, cfg Config) {
	w := s.World
	s.Engine = policy.NewEngine()
	if cfg.DisableBlocking {
		return
	}
	add := func(r policy.Rule) { s.Engine.Add(r) }
	censys := policy.OriginMatch{MinReputation: origin.RepHeavy}
	ases, _ := w.ASWeights()
	bkey := key.Derive("v6blocks")
	for _, as := range ases {
		r := bkey.Float64(uint64(as))
		switch {
		case r < 0.30:
			// Heavy-scanner blocking (§4.1's Censys blocks, matched by
			// reputation so a fresh IP would recover the hosts).
			add(&policy.StaticBlock{
				RuleName: fmt.Sprintf("v6-as%d-blocks-heavy", as),
				Origins:  censys,
				Dests:    policy.DestMatch{ASes: []asn.ASN{as}},
				Action:   policy.Silent, HostFraction: 0.90,
				Key: bkey.DeriveN("heavy", uint64(as)),
			})
		case r < 0.48:
			// Origin-set block (§4.2's Mirai-fallout shape: Brazil and
			// Japan carry regional blocklist baggage).
			add(&policy.StaticBlock{
				RuleName: fmt.Sprintf("v6-as%d-blocks-br-jp", as),
				Origins:  policy.OriginMatch{IDs: origin.Set{origin.BR, origin.JP}},
				Dests:    policy.DestMatch{ASes: []asn.ASN{as}},
				Action:   policy.Silent, HostFraction: 0.60,
				Key: bkey.DeriveN("set", uint64(as)),
			})
		case r < 0.60:
			// Geographic fence (§4.4). Fence to the provider's
			// registration country when a study origin lives there
			// (Bekkoame's JP-only shape); otherwise the fence models the
			// provider's main customer geography, drawn from the
			// single-origin countries so fenced hosts become exclusively
			// visible from one vantage point — the §4.4 result.
			c := geo.Country("")
			if a, ok := w.Routes.Get(as); ok {
				c = a.Country
			}
			if !singleOriginCountry(c) {
				pool := []geo.Country{"AU", "BR", "DE", "JP"}
				c = pool[bkey.DeriveN("fence-cc", uint64(as)).Uint64()%uint64(len(pool))]
			}
			add(&policy.GeoFence{
				RuleName: fmt.Sprintf("v6-as%d-fence-%s", as, c),
				Allowed:  policy.OriginMatch{Countries: []geo.Country{c}},
				Dests:    policy.DestMatch{ASes: []asn.ASN{as}},
				Action:   policy.Silent, HostFraction: 0.35,
				Key: bkey.DeriveN("fence", uint64(as)),
			})
		}
	}
	addScatter6(add, key)
}

// singleOriginCountry reports whether exactly one study origin scans from c
// (a fence to such a country yields exclusively accessible hosts).
func singleOriginCountry(c geo.Country) bool {
	switch c {
	case "AU", "BR", "DE", "JP":
		return true
	}
	return false
}

// addScatter6 adds the diffuse reputation-driven scatter shared with v4.
func addScatter6(add func(policy.Rule), key rng.Key) {
	add(&policy.ReputationScatter{
		RuleName: "v6-reputation-scatter",
		FracByRep: map[origin.Reputation]float64{
			origin.RepHeavy:  0.012,
			origin.RepFresh:  0.0035,
			origin.RepUsed:   0.0009,
			origin.RepSubnet: 0.0007,
		},
		Action: policy.Silent,
		Key:    key.Derive("scatter"),
	})
}
