// Deterministic parallel execution support: precomputing IDS detection
// schedules so the study's scans can run concurrently yet produce a dataset
// bit-identical to the serial reference path.
//
// The IDSes are the only cross-scan mutable state in the simulation (every
// other behaviour is a pure keyed hash of the event coordinates). But their
// inputs are fully determined before any scan runs: all origins share the
// per-(protocol, trial) ZMap seed, so the exact sequence of probes each IDS
// sees — and therefore the exact probe at which each source IP crosses the
// detection threshold — can be computed up front by replaying the scan
// schedule against clones of the live IDS machines. Each scan then runs
// against a read-only ScheduledIDS view, and the clones' end states are
// merged back into the live IDSes afterwards so sub-experiments observe the
// same post-study state a serial run leaves. Source IPs are disjoint across
// origins (detection is per source IP), which is what makes the per-origin
// replays independent and the merge order-free.
package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/telemetry"
	"repro/internal/zmap"
)

// scanKey identifies one (origin, protocol, trial) scan of the study.
type scanKey struct {
	o     origin.ID
	p     proto.Protocol
	trial int
}

// idsPlan holds the precomputed per-scan IDS views and the per-origin
// simulated end states.
type idsPlan struct {
	views map[scanKey][]policy.Detector
	sims  [][]*policy.IDS // per origin, aligned with the live IDS slice
}

// detectors returns the scan's IDS views (nil when the scenario has none).
func (pl *idsPlan) detectors(k scanKey) []policy.Detector { return pl.views[k] }

// commit folds the simulated per-origin detection states into the live
// IDSes, leaving them exactly as a serial run would have.
func (pl *idsPlan) commit(live []*policy.IDS) {
	for i, d := range live {
		d.Reset()
		for _, sims := range pl.sims {
			if sims != nil {
				d.MergeStateFrom(sims[i])
			}
		}
	}
}

// walkEntry is one probe target inside an IDS-monitored AS, with the
// coordinates the IDS's match logic reads.
type walkEntry struct {
	dst     ip.Addr
	t       time.Duration
	as      asn.ASN
	country geo.Country
}

// planIDS replays every scan's probe schedule against clones of the live
// IDSes, in the serial study order, and returns per-scan ScheduledIDS views.
// The clones start empty, i.e. the plan assumes the live IDSes are in their
// initial state — Run is called once per Study (as everywhere in this repo);
// sub-experiments that continue from the post-Run state use the live path.
func (st *Study) planIDS(ctx context.Context, dsOrigins origin.Set) (*idsPlan, error) {
	cfg := st.Config
	live := st.Scenario.IDSes
	plan := &idsPlan{views: make(map[scanKey][]policy.Detector)}
	if len(live) == 0 {
		return plan, nil
	}

	monitored := make(map[asn.ASN]bool, len(live))
	for _, d := range live {
		monitored[d.AS] = true
	}

	// One walk per (protocol, trial), shared by every origin: the paper
	// starts all origins' scans from the same ZMap seed, so they probe
	// identical addresses at identical scan positions. Only targets that
	// reach an IDS (routed, inside a monitored AS, not churned offline —
	// the fabric's gates ahead of RecordProbe) are kept.
	type walkKey struct {
		p     proto.Protocol
		trial int
	}
	walks := make(map[walkKey][]walkEntry, len(cfg.Protocols)*cfg.Trials)
	walkErrs := make([]error, len(cfg.Protocols)*cfg.Trials)
	var mu sync.Mutex
	var wg sync.WaitGroup
	wi := 0
	for _, p := range cfg.Protocols {
		for trial := 0; trial < cfg.Trials; trial++ {
			wg.Add(1)
			go func(p proto.Protocol, trial, wi int) {
				defer wg.Done()
				entries, err := st.monitoredTargets(ctx, p, trial, monitored)
				if err != nil {
					walkErrs[wi] = err
					return
				}
				mu.Lock()
				walks[walkKey{p, trial}] = entries
				mu.Unlock()
			}(p, trial, wi)
			wi++
		}
	}
	wg.Wait()
	for _, err := range walkErrs {
		if err != nil {
			return nil, err
		}
	}

	// Replay per origin: a fresh set of IDS clones walks this origin's
	// scans in serial study order (trial-major, then protocol — detection
	// state persists across trials for Persistent IDSes). Origins don't
	// share source IPs, so the replays are independent of each other.
	plan.sims = make([][]*policy.IDS, len(dsOrigins))
	locals := make([]map[scanKey][]policy.Detector, len(dsOrigins))
	for oi, o := range dsOrigins {
		wg.Add(1)
		go func(oi int, o origin.ID) {
			defer wg.Done()
			org := st.originRecord(o)
			sims := make([]*policy.IDS, len(live))
			for i, d := range live {
				sims[i] = d.CloneEmpty()
			}
			local := make(map[scanKey][]policy.Detector)
			for trial := 0; trial < cfg.Trials; trial++ {
				if o == origin.CARINET && trial != 0 {
					continue
				}
				if ctx.Err() != nil {
					return // canceled: the post-Wait check reports it
				}
				for _, p := range cfg.Protocols {
					schedules := st.replayScan(org, p, trial, sims, walks[walkKey{p, trial}])
					dets := make([]policy.Detector, len(live))
					labels := scanLabels(st.World.Family, o, p, trial)
					for i, d := range live {
						sids := policy.NewScheduledIDS(d, cfg.ProbeDelay, schedules[i])
						sids.Metrics = telemetry.NewIDSMetrics(cfg.Telemetry,
							append(labels, telemetry.L("ids", d.RuleName))...)
						dets[i] = sids
					}
					local[scanKey{o: o, p: p, trial: trial}] = dets
				}
			}
			plan.sims[oi] = sims
			locals[oi] = local
		}(oi, o)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, pipeline.Canceled(err)
	}
	for _, local := range locals {
		for k, v := range local {
			plan.views[k] = v
		}
	}
	return plan, nil
}

// monitoredTargets computes the scan-order schedule of probe targets inside
// monitored ASes for one (protocol, trial), using the scanner's own sweep
// so the planner cannot diverge from what the scan will actually send.
func (st *Study) monitoredTargets(ctx context.Context, p proto.Protocol, trial int, monitored map[asn.ASN]bool) ([]walkEntry, error) {
	zcfg := st.sweepConfig(p, trial)
	zcfg.SourceIPs = []ip.Addr{ip.AddrFrom4(1)} // unused: Targets never sends
	sc, err := zmap.NewScanner(zcfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: ids plan %v/trial %d: %w", p, trial, err)
	}
	var entries []walkEntry
	fib := st.World.FIB()
	err = sc.Targets(ctx, func(dst ip.Addr, t time.Duration) {
		// Targets visits dark space too, and most of a sweep is dark: ask
		// the one-bit question first, not for a whole Dest.
		if !fib.Routed(dst) {
			return
		}
		as, _ := st.World.ASOf(dst)
		if !monitored[as.Number] {
			return
		}
		if _, isHost := st.World.Lookup(dst); isHost && st.Scenario.Churn.Offline(dst, trial) {
			return
		}
		country, _ := st.World.CountryOf(dst)
		entries = append(entries, walkEntry{dst: dst, t: t, as: as.Number, country: country})
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// replayScan drives one scan's probes through the origin's IDS clones and
// returns, per IDS, the detection schedule of each source IP: blocked
// before the scan started, or first blocked at a specific (time, probe).
func (st *Study) replayScan(org *origin.Origin, p proto.Protocol, trial int, sims []*policy.IDS, entries []walkEntry) []map[ip.Addr]*policy.SrcSchedule {
	cfg := st.Config
	schedules := make([]map[ip.Addr]*policy.SrcSchedule, len(sims))
	for i, sim := range sims {
		schedules[i] = make(map[ip.Addr]*policy.SrcSchedule)
		for _, src := range org.SourceIPs {
			if sim.BlockedState(src, trial) {
				schedules[i][src] = &policy.SrcSchedule{BlockedAtStart: true}
			}
		}
	}
	q := policy.Query{
		Origin:            org.ID,
		SrcCountry:        org.Country,
		NumSrcIPs:         len(org.SourceIPs),
		Rep:               org.ScanReputation,
		Proto:             p,
		Trial:             trial,
		ConcurrentOrigins: len(cfg.Origins),
	}
	for _, e := range entries {
		src := origin.SourceFor(org.SourceIPs, e.dst)
		q.SrcIP = src
		q.Dst = e.dst
		q.DstAS = e.as
		q.DstCountry = e.country
		for probe := 0; probe < cfg.Probes; probe++ {
			q.Time = e.t + time.Duration(probe)*cfg.ProbeDelay
			q.Probe = probe
			for i, sim := range sims {
				if sim.RecordProbe(&q) {
					if schedules[i][src] == nil {
						schedules[i][src] = &policy.SrcSchedule{Detected: true, T: e.t, Probe: probe}
					}
					break // the fabric drops the probe at the first blocking IDS
				}
			}
		}
	}
	return schedules
}
