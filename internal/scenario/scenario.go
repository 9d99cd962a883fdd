// Package scenario wires the paper's destination-side behaviours onto a
// generated world: which networks block which origins (§4), which paths are
// pathologically lossy (§4.2, §5.2), which networks run scan-detecting
// IDSes (§4.3), Alibaba's temporal SSH blocking and OpenSSH MaxStartups
// (§6), and the burst-outage schedules (§5.3). The output is everything the
// simulation fabric needs for a study.
package scenario

import (
	"time"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/hostsim"
	"repro/internal/loss"
	"repro/internal/origin"
	"repro/internal/outage"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/world"
)

// ScanDuration is the virtual length of one trial, as in the paper.
const ScanDuration = 21 * time.Hour

// Scenario bundles the per-study behaviour models.
type Scenario struct {
	World  *world.World
	Engine *policy.Engine
	IDSes  []*policy.IDS
	Loss   *loss.Matrix
	// Outages holds one schedule per protocol (scans of different
	// protocols run on different days, so their outages differ).
	Outages map[proto.Protocol]*outage.Schedule
	Hosts   *hostsim.Server
	// Churn is the between-trial host availability model (§2's
	// "temporal churn": trials weeks apart see different live hosts).
	Churn *world.Churn
	// Alibaba is the temporal SSH blocker, exposed for the Figure 12
	// timeline analysis.
	Alibaba *policy.TemporalRST
	// MaxStartups rules, exposed for §6 cause attribution.
	MaxStartupsRules []*policy.MaxStartups
}

// Config tunes scenario construction; zero values take calibrated defaults.
type Config struct {
	// Trials is the number of trials the schedules must cover.
	Trials int
	// NumOrigins is how many origins scan simultaneously.
	NumOrigins int
	// ChurnRate overrides the per-trial host-offline probability
	// (default 0.015; negative disables churn).
	ChurnRate float64
	// DisableOutages/DisableBlocking/DisableLossOverrides support
	// ablation benchmarks.
	DisableOutages       bool
	DisableBlocking      bool
	DisableLossOverrides bool
}

// New builds the default calibrated scenario for a world.
func New(w *world.World, cfg Config) *Scenario {
	if cfg.Trials == 0 {
		cfg.Trials = 3
	}
	if cfg.NumOrigins == 0 {
		cfg.NumOrigins = len(origin.StudySet())
	}
	key := rng.NewKey(w.Spec.Seed).Derive("scenario")
	churnRate := cfg.ChurnRate
	if churnRate == 0 {
		// Calibrated so hosts live in only one of three trials make
		// up the paper's "unknown" share of missing hosts (~15%).
		churnRate = 0.08
	}
	if churnRate < 0 {
		churnRate = 0
	}
	s := &Scenario{
		World: w,
		Hosts: hostsim.NewServer(key.Derive("hosts")),
		Churn: world.NewChurn(key.Derive("churn"), churnRate, cfg.Trials),
	}
	if w.Family == world.FamilyIPv6 {
		// v6 worlds have no calibrated profile ASes; see scenario6.go.
		s.buildLoss6(key.Derive("loss"), cfg)
		s.buildPolicies6(key.Derive("policy"), cfg)
	} else {
		s.buildLoss(key.Derive("loss"), cfg)
		s.buildPolicies(key.Derive("policy"), cfg)
	}
	s.buildOutages(key.Derive("outage"), cfg)
	return s
}

func asnOf(w *world.World, name string) asn.ASN { return w.MustProfileASN(name) }

// originLoss is the loss configuration of the origins themselves — their
// connectivity, trial-to-trial swings and shared sites — which v4 and v6
// studies share.
func originLoss() loss.Config {
	return loss.Config{
		OriginFactor: map[origin.ID]float64{
			// Australia has the worst connectivity (§5.2: highest
			// global packet loss, 0.44–1.6% band's top).
			origin.AU: 2.6,
			origin.BR: 1.3,
		},
		TrialMultiplier: map[origin.ID][]float64{
			// Australia's transient loss jumps 2.75× between trials
			// 1 and 2 (§3).
			origin.AU: {1.0, 2.75, 1.4},
			// Censys flips from high host loss / low packet loss to
			// the reverse in trial 3 (§5.2).
			origin.CEN: {1.5, 1.4, 0.6},
		},
		// Follow-up co-located Tier-1s share a site.
		SiteAlias: map[origin.ID]origin.ID{
			origin.HE: origin.HE, origin.NTTC: origin.HE, origin.TELIA: origin.HE,
		},
	}
}

// buildLoss configures the loss matrix: global defaults plus the named
// pathological paths.
func (s *Scenario) buildLoss(key rng.Key, cfg Config) {
	lcfg := originLoss()
	if !cfg.DisableLossOverrides {
		lcfg.Overrides = pathOverrides(s.World, key)
	}
	s.Loss = loss.NewMatrix(key, lcfg)
}

// pathOverrides pins the pathological paths the paper names.
func pathOverrides(w *world.World, key rng.Key) map[loss.Pair]loss.Params {
	ov := make(map[loss.Pair]loss.Params)
	set := func(o origin.ID, as asn.ASN, p loss.Params) { ov[loss.Pair{Origin: o, AS: as}] = p }

	ti := asnOf(w, world.ProfTelecomIT)
	sparkle := asnOf(w, world.ProfSparkle)
	for _, o := range origin.StudySet() {
		switch o {
		case origin.BR:
			// TIM Brasil is a Telecom Italia subsidiary: clean paths.
			set(o, ti, loss.Params{PacketDrop: 0.003})
			set(o, sparkle, loss.Params{PacketDrop: 0.004})
		case origin.DE:
			// Germany: persistent lack of connectivity to a large,
			// stable subset of both networks (40%+ loss there).
			set(o, ti, loss.Params{PacketDrop: 0.16, BadPrefixFrac: 0.36, BadDrop: 0.55})
			set(o, sparkle, loss.Params{PacketDrop: 0.20, BadPrefixFrac: 0.46, BadDrop: 0.60})
		default:
			// Everyone else: very lossy (µ=16%) but TCP completes;
			// shows up as ZMap probe loss, i.e. transient.
			set(o, ti, loss.Params{PacketDrop: 0.16})
			set(o, sparkle, loss.Params{PacketDrop: 0.20})
		}
	}

	// Paths into China are unusually lossy from everywhere (3–14%), and
	// proximity does not help Japan (§5.2). Stable per (origin, AS).
	cnASes := []asn.ASN{
		asnOf(w, world.ProfAlibabaHZ), asnOf(w, world.ProfAlibabaCN),
		asnOf(w, world.ProfTencent), asnOf(w, world.ProfChinaTel),
	}
	cnKey := key.Derive("china")
	for _, as := range cnASes {
		for _, o := range allOrigins() {
			q := 0.03 + 0.06*cnKey.Float64(uint64(o), uint64(as))
			set(o, as, loss.Params{PacketDrop: q})
		}
	}

	// Australia's consistently-worst destinations: Russia and Kazakhstan
	// (§5.1: AU's drop is >10× the second-worst origin there).
	for _, as := range []asn.ASN{
		asnOf(w, world.ProfRostelecom), asnOf(w, world.ProfRUNet2), asnOf(w, world.ProfKazTel),
	} {
		set(origin.AU, as, loss.Params{PacketDrop: 0.045})
	}

	// ABCDE Group: huge transient spread across origins (Table 3: Δ62%,
	// flip-prone). High stable drop from a couple of origins plus a large
	// volatile component handled by the generic model.
	abcde := asnOf(w, world.ProfABCDE)
	set(origin.AU, abcde, loss.Params{PacketDrop: 0.06})
	set(origin.DE, abcde, loss.Params{PacketDrop: 0.04})
	return ov
}

// buildPolicies assembles the rule set in priority order.
func (s *Scenario) buildPolicies(key rng.Key, cfg Config) {
	w := s.World
	s.Engine = policy.NewEngine()
	if cfg.DisableBlocking {
		return
	}
	add := func(r policy.Rule) { s.Engine.Add(r) }

	censys := policy.OriginMatch{MinReputation: origin.RepHeavy}

	// --- §4.1: the heavy Censys blockers (match on reputation: the
	// blocks follow Censys's well-known IP ranges, which is why a fresh
	// IP recovered >5.5% coverage in the follow-up). ---
	add(&policy.StaticBlock{
		RuleName: "dxtl-blocks-censys", Origins: censys,
		Dests:  policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfDXTL)}},
		Action: policy.Silent,
	})
	add(&policy.StaticBlock{
		RuleName: "enzu-blocks-censys", Origins: censys,
		Dests:  policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfEnzu)}},
		Action: policy.Silent,
	})
	add(&policy.StaticBlock{
		RuleName: "egi-blocks-censys", Origins: censys,
		Dests:           policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfEGI)}},
		Action:          policy.Silent,
		HostFraction:    0.90,
		FractionByTrial: []float64{0.90, 0.97, 1.0},
		Key:             key.Derive("egi"),
	})

	// Government and consumer networks block Censys wholesale (§4.2:
	// 40% of Censys-blocked networks are government, 22% consumer).
	var censysASes []asn.ASN
	for _, name := range w.ProfileNames() {
		if world.IsUSGov(name) || world.IsUSConsumer(name) {
			censysASes = append(censysASes, asnOf(w, name))
		}
	}
	censysASes = append(censysASes, asnOf(w, world.ProfJackBox))
	add(&policy.StaticBlock{
		RuleName: "gov-consumer-block-censys", Origins: censys,
		Dests:  policy.DestMatch{ASes: censysASes},
		Action: policy.Silent,
	})

	// --- §4.2: ABCDE Group blocks a stable quarter of its network for
	// US, Brazil, and Censys. ---
	add(&policy.StaticBlock{
		RuleName: "abcde-blocks-us-br-cen",
		Origins:  policy.OriginMatch{IDs: origin.Set{origin.US1, origin.US64, origin.BR, origin.CEN}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfABCDE)}},
		Action:   policy.Silent, HostFraction: 0.25,
		Key: key.Derive("abcde"),
	})

	// Eastern-European hosting blocks Brazil and Japan (§4.2: 12.2% of
	// Estonia, 1.4% of Russia, 3% of Ukraine/Romania).
	add(&policy.StaticBlock{
		RuleName: "eastern-eu-blocks-br-jp",
		Origins:  policy.OriginMatch{IDs: origin.Set{origin.BR, origin.JP}},
		Dests: policy.DestMatch{ASes: []asn.ASN{
			asnOf(w, world.ProfSantaPlus), asnOf(w, world.ProfEEHost),
			asnOf(w, world.ProfUAHost), asnOf(w, world.ProfROHost),
		}},
		Action: policy.Silent, HostFraction: 0.85,
		Key: key.Derive("ee"),
	})

	// US financial/healthcare networks block Brazil entirely (§4.2:
	// about half of Brazil-only full-AS blocks; Mirai fallout).
	var brASes []asn.ASN
	for _, name := range w.ProfileNames() {
		if world.IsUSFinancial(name) || world.IsUSHealthcare(name) {
			brASes = append(brASes, asnOf(w, name))
		}
	}
	add(&policy.StaticBlock{
		RuleName: "us-fin-health-block-brazil",
		Origins:  policy.OriginMatch{IDs: origin.Set{origin.BR}},
		Dests:    policy.DestMatch{ASes: brASes},
		Action:   policy.Silent,
	})

	// Tegna blocks every non-US origin (§4.2).
	add(&policy.StaticBlock{
		RuleName: "tegna-blocks-non-us",
		Origins:  policy.OriginMatch{ExcludeCountries: []geo.Country{"US"}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfTegna)}},
		Action:   policy.Silent,
	})

	// --- §4.4: geographic fences. ---
	add(&policy.GeoFence{
		RuleName: "bekkoame-jp-only",
		Allowed:  policy.OriginMatch{Countries: []geo.Country{"JP"}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfBekkoame)}},
		Action:   policy.Silent, HostFraction: 0.025,
		Key: key.Derive("bekkoame"),
	})
	add(&policy.GeoFence{
		RuleName: "ntt-jp-only",
		Allowed:  policy.OriginMatch{Countries: []geo.Country{"JP"}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfNTTJP)}},
		Action:   policy.Silent, HostFraction: 0.03,
		Key: key.Derive("ntt"),
	})
	add(&policy.GeoFence{
		RuleName: "gateway-jp-only",
		Allowed:  policy.OriginMatch{Countries: []geo.Country{"JP"}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfGatewayInc)}},
		Action:   policy.Silent, HostFraction: 0.30,
		Key: key.Derive("gateway"),
	})
	add(&policy.GeoFence{
		RuleName: "webcentral-au-only",
		Allowed:  policy.OriginMatch{Countries: []geo.Country{"AU"}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfWebCentral)}},
		Action:   policy.Silent, HostFraction: 0.12,
		Key: key.Derive("webcentral"),
	})
	add(&policy.GeoFence{
		RuleName: "cloudflare-anycast-misconfig-au",
		Allowed:  policy.OriginMatch{Countries: []geo.Country{"AU"}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfCloudflare)}},
		Action:   policy.Silent, HostFraction: 0.004,
		Key: key.Derive("cloudflare"),
	})
	add(&policy.GeoFence{
		RuleName: "wa-k20-br-only",
		Allowed:  policy.OriginMatch{Countries: []geo.Country{"BR"}},
		Dests:    policy.DestMatch{ASes: []asn.ASN{asnOf(w, world.ProfWAK20)}},
		Action:   policy.Silent, HostFraction: 0.70,
		Key: key.Derive("wak20"),
	})

	// --- Diffuse reputation-driven blocking: Censys's remaining ~1%
	// spread thinly, plus the fresh-IP regional blocklists that hit
	// Brazil and Japan (§4.2). ---
	add(&policy.ReputationScatter{
		RuleName: "reputation-scatter",
		FracByRep: map[origin.Reputation]float64{
			origin.RepHeavy:  0.012,
			origin.RepFresh:  0.0035,
			origin.RepUsed:   0.0009,
			origin.RepSubnet: 0.0007,
		},
		Action: policy.Silent,
		Key:    key.Derive("scatter"),
	})

	// --- §4.3: rate-triggered IDSes, evaded by 64-IP scanning. ---
	ruhr := &policy.IDS{
		RuleName: "ruhr-uni-ids", AS: asnOf(w, world.ProfRuhrUni),
		Threshold:  thresholdFor(w, world.ProfRuhrUni, 0.10),
		Persistent: true, Action: policy.Silent,
	}
	// SK Broadband's detector watches SSH brute-force traffic; §4.3
	// finds it accounts for over half of the SSH hosts exclusively
	// visible to the 64-IP origin.
	sk := &policy.IDS{
		RuleName: "sk-broadband-ids", AS: asnOf(w, world.ProfSKBroadband),
		Threshold:  thresholdFor(w, world.ProfSKBroadband, 0.20),
		Protos:     policy.DestMatch{Protocols: proto.Bit(proto.SSH)},
		Persistent: true, Action: policy.Silent,
	}
	s.IDSes = []*policy.IDS{ruhr, sk}

	// --- §6: Alibaba's temporal network-wide SSH RSTs. ---
	s.Alibaba = &policy.TemporalRST{
		RuleName: "alibaba-ssh-temporal",
		ASes:     []asn.ASN{asnOf(w, world.ProfAlibabaHZ), asnOf(w, world.ProfAlibabaCN)},
		Proto:    proto.SSH, MaxSrcIPs: 8,
		ScanDuration: ScanDuration,
		DetectMin:    0.45, DetectMax: 0.85,
		BlockedWindow: 3 * time.Hour, ClearWindow: 90 * time.Minute,
		Key: key.Derive("alibaba"),
	}
	add(s.Alibaba)

	// --- §6: OpenSSH MaxStartups. Heavily loaded hosting providers
	// (EGI, Psychz) first, then a thinner global population. ---
	heavy := &policy.MaxStartups{
		RuleName:     "maxstartups-hosting",
		HostFraction: 0.55,
		Dests: policy.DestMatch{ASes: []asn.ASN{
			asnOf(w, world.ProfEGI), asnOf(w, world.ProfPsychz),
			asnOf(w, world.ProfDigitalOcn), asnOf(w, world.ProfOVH),
		}},
		Start: 6, Rate: 0.5, Full: 40, MeanLoad: 7,
		Key: key.Derive("ms-heavy"),
	}
	global := &policy.MaxStartups{
		RuleName:     "maxstartups-global",
		HostFraction: 0.055,
		Start:        8, Rate: 0.5, Full: 60, MeanLoad: 6,
		Key: key.Derive("ms-global"),
	}
	s.MaxStartupsRules = []*policy.MaxStartups{heavy, global}
	add(heavy)
	add(global)
}

// thresholdFor sizes an IDS trigger relative to the AS's announced space:
// frac of the probes a 2-probe single-IP scan sends its way. A 64-IP origin
// sends 1/64 per source and stays far below.
func thresholdFor(w *world.World, profile string, frac float64) int {
	a, _ := w.Routes.Get(w.MustProfileASN(profile))
	n := int(float64(a.NumAddrs()) * 2 * frac)
	if n < 8 {
		n = 8
	}
	return n
}

// buildOutages generates one burst schedule per protocol, including the
// Brazil HTTPS trial-3 wide event (§5.3).
func (s *Scenario) buildOutages(key rng.Key, cfg Config) {
	s.Outages = make(map[proto.Protocol]*outage.Schedule)
	if cfg.DisableOutages {
		return
	}
	ases, weights := s.World.ASWeights()
	for _, p := range proto.All() {
		ocfg := outage.Config{
			ScanDuration:   ScanDuration,
			EventsPerTrial: 6 + s.World.Routes.Len()/30,
		}
		if p == proto.HTTPS {
			ocfg.WideEvents = []outage.WideEvent{{
				Trial: 2, Origin: origin.BR,
				Start: 9 * time.Hour, Duration: time.Hour,
				ASFraction: 0.39, Severity: 0.5,
			}}
		}
		s.Outages[p] = outage.Generate(key.DeriveN("proto", uint64(p)), ocfg, cfg.Trials, allOrigins(), ases, weights)
	}
}

// allOrigins returns every origin the scenario must model, including the
// follow-up Tier-1s and Carinet.
func allOrigins() origin.Set {
	return origin.Set{
		origin.AU, origin.BR, origin.DE, origin.JP, origin.US1, origin.US64,
		origin.CEN, origin.CARINET, origin.HE, origin.NTTC, origin.TELIA,
	}
}
