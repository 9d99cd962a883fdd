package experiment

import (
	"context"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/asn"
	"repro/internal/fabric"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
	"repro/internal/zgrab"
)

// RetryCurve is Figure 13's output for one AS: the fraction of responding
// IPs that completed an SSH handshake within each retry budget.
type RetryCurve struct {
	AS      asn.ASN
	ASName  string
	Hosts   int
	Success []float64 // Success[r]: success fraction with r retries allowed
}

// sshRetryTime is the virtual time of every retry-experiment grab: mid-scan,
// away from temporal-blocking windows' detection edges.
const sshRetryTime = 5 * time.Hour

// SSHRetry reproduces the §6 retry experiment: from US1, iteratively grab
// all SSH hosts in a candidate sub-network of each of the top ASes by
// transiently missed SSH hosts, increasing the retry budget each pass.
// Cancellation is checked between retry-budget passes; a canceled run
// returns the curves completed so far with pipeline.ErrCanceled.
func (st *Study) SSHRetry(ctx context.Context, ds *results.Dataset, topASes int, maxRetries int) ([]RetryCurve, error) {
	org := st.World.Origins.Get(origin.US1)
	// The sub-experiment runs after the main study; use a fresh trial
	// index past the main trials so the draws are independent.
	trial := st.Config.Trials
	fab := fabric.New(&fabric.Config{
		World:      st.World,
		Engine:     st.Scenario.Engine,
		IDSes:      policy.Detectors(st.Scenario.IDSes),
		Loss:       st.Scenario.Loss,
		Outages:    st.Scenario.Outages[proto.SSH],
		NumOrigins: 1, // the retry experiment scans alone
		Hosts:      st.Scenario.Hosts,
	}, org, trial)

	var curves []RetryCurve
	for _, sp := range st.retryCandidates(ds, topASes) {
		// Candidate sub-network: the AS's busiest /24 by SSH hosts.
		hosts := st.sshHostsOfBusiest24(sp.AS)
		if len(hosts) == 0 {
			continue
		}
		curve := RetryCurve{AS: sp.AS, ASName: sp.ASName, Hosts: len(hosts)}
		for r := 0; r <= maxRetries; r++ {
			if err := ctx.Err(); err != nil {
				return curves, pipeline.Canceled(err)
			}
			grabber := &zgrab.Grabber{
				Dialer:  fab,
				Retries: r,
			}
			succ := 0
			for _, h := range hosts {
				v := fab.Predial(h, proto.SSH.Port(), sshRetryTime, 0)
				if g := grabber.GrabFast(ctx, proto.SSH, h, sshRetryTime, v); g.Success {
					succ++
				}
			}
			curve.Success = append(curve.Success, float64(succ)/float64(len(hosts)))
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// retryCandidates ranks ASes by transiently missed SSH hosts from US1 and
// returns the top n; ties go by AS number, so the same dataset always yields
// the same curves in the same order.
func (st *Study) retryCandidates(ds *results.Dataset, n int) []analysis.ASLossSpread {
	cls := analysis.NewClassifier(ds, proto.SSH)
	spreads := analysis.TransientLossSpread(cls, analysis.WorldTopo{W: st.World}, 3)
	sort.Slice(spreads, func(i, j int) bool {
		ti := spreads[i].Rate[origin.US1] * float64(spreads[i].Hosts)
		tj := spreads[j].Rate[origin.US1] * float64(spreads[j].Hosts)
		if ti != tj {
			return ti > tj
		}
		return spreads[i].AS < spreads[j].AS
	})
	return spreads[:min(n, len(spreads))]
}

// sshHostsOfBusiest24 returns the SSH hosts of the AS's /24 with the most
// SSH hosts.
func (st *Study) sshHostsOfBusiest24(as asn.ASN) []ip.Addr {
	by24 := map[ip.Prefix][]ip.Addr{}
	for _, idx := range st.World.HostsInAS(as) {
		h := st.World.Hosts()[idx]
		if !h.Services.Has(proto.SSH) {
			continue
		}
		k := h.Addr.Slash24()
		by24[k] = append(by24[k], h.Addr)
	}
	var best []ip.Addr
	var bestKey ip.Prefix
	for k, hs := range by24 {
		if len(hs) > len(best) || (len(hs) == len(best) && k.First().Less(bestKey.First())) {
			best, bestKey = hs, k
		}
	}
	return best
}

// FollowUp runs the September 2020 follow-up experiment (§7, Table 4b,
// Figure 18): two HTTP trials from AU, DE, JP, US1, Censys (with a fresh
// IP), and three co-located Tier-1 transits at Equinix CHI4.
func FollowUp(ctx context.Context, spec world.Spec) (*Study, *results.Dataset, error) {
	st, err := NewStudy(ctx, Config{
		WorldSpec:     spec,
		Trials:        2,
		Origins:       origin.FollowUpSet(),
		Protocols:     []proto.Protocol{proto.HTTP},
		Probes:        2,
		FreshCensysIP: true,
	})
	if err != nil {
		return nil, nil, err
	}
	ds, err := st.Run(ctx)
	if err != nil {
		return st, ds, err
	}
	return st, ds, nil
}
