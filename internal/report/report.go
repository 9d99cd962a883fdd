// Package report renders every table and figure of the paper as text, in
// the same rows/series the paper reports, from a completed core.Study.
package report

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/origin"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/world"
)

// All renders every table and figure to w. It runs as the lifecycle's
// Report stage (the study config's Hooks observe it); ctx is checked
// between sections, so canceling mid-report stops after the section in
// flight with an error matching core.ErrCanceled.
func All(ctx context.Context, w io.Writer, s *core.Study) error {
	runner := pipeline.Runner{Hooks: s.Exp.Config.Hooks}
	return runner.Run(ctx, pipeline.StageFunc{
		Stage: pipeline.StageReport,
		Run:   func(ctx context.Context) error { return all(ctx, w, s) },
	})
}

func all(ctx context.Context, w io.Writer, s *core.Study) error {
	plain := func(fn func(io.Writer, *core.Study)) func() error {
		return func() error { fn(w, s); return nil }
	}
	sections := []func() error{
		plain(Tab4Coverage),
		plain(Fig1),
		plain(Fig2),
		plain(Fig3),
		plain(Fig4),
		plain(Fig5),
		func() error { Fig6(w, s, proto.HTTP); return nil },
		plain(Fig7),
		plain(Fig8),
		plain(Fig9),
		plain(Fig10),
		plain(Fig11),
		plain(Fig12),
		func() error { return Fig13(ctx, w, s) },
		plain(Fig14),
		func() error { return Fig15(ctx, w, s, proto.HTTP) },
		plain(Fig16),
		func() error { return Fig17(ctx, w, s) },
		plain(Tab1),
		func() error { Tab2(w, s, proto.HTTP); return nil },
		plain(Tab3),
		plain(Tab5),
		plain(Sec3McNemar),
		plain(Sec44Spearman),
		plain(Sec52PacketLoss),
		plain(Sec53Bursts),
		plain(Sec7Probes),
		plain(Sec8Agreement),
		plain(BannerCensus),
	}
	for _, fn := range sections {
		if err := ctx.Err(); err != nil {
			return err // the Runner normalizes this to ErrCanceled
		}
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func pct(f float64) string { return fmt.Sprintf("%6.2f%%", 100*f) }

// Tab4Coverage renders Table 4a: ground-truth coverage per origin/trial.
func Tab4Coverage(w io.Writer, s *core.Study) {
	header(w, "Table 4a: Ground-truth coverage by origin and trial (2 probes)")
	for _, p := range proto.All() {
		tab := s.Fig1Coverage(p)
		fmt.Fprintf(w, "\n[%s]\n%-6s", p, "trial")
		origins := originsOf(tab)
		for _, o := range origins {
			fmt.Fprintf(w, "%9s", o)
		}
		fmt.Fprintf(w, "%10s%12s\n", "∩", "∪")
		for trial := range tab.Union {
			fmt.Fprintf(w, "%-6d", trial+1)
			for _, o := range origins {
				v := -1.0
				for _, c := range tab.Cells {
					if c.Origin == o && c.Trial == trial {
						v = c.Coverage
					}
				}
				if v < 0 {
					fmt.Fprintf(w, "%9s", "-")
				} else {
					fmt.Fprintf(w, "%9s", pct(v))
				}
			}
			fmt.Fprintf(w, "%10s%12d\n", pct(tab.Intersection[trial]), tab.Union[trial])
		}
		fmt.Fprintf(w, "%-6s", "mean")
		for _, o := range origins {
			fmt.Fprintf(w, "%9s", pct(tab.Mean(o, false)))
		}
		fmt.Fprintln(w)
	}
}

func originsOf(tab analysis.CoverageTable) origin.Set {
	seen := map[origin.ID]bool{}
	var out origin.Set
	for _, c := range tab.Cells {
		if !seen[c.Origin] {
			seen[c.Origin] = true
			out = append(out, c.Origin)
		}
	}
	return out
}

// Fig1 renders Figure 1: mean coverage by origin per protocol.
func Fig1(w io.Writer, s *core.Study) {
	header(w, "Figure 1: IPv4 host coverage by scan origin (2 probes)")
	for _, p := range proto.All() {
		tab := s.Fig1Coverage(p)
		fmt.Fprintf(w, "%-6s", p)
		for _, o := range originsOf(tab) {
			fmt.Fprintf(w, "  %s=%s", o, strings.TrimSpace(pct(tab.Mean(o, false))))
		}
		fmt.Fprintln(w)
	}
}

// Fig2 renders Figure 2: missing-host breakdown by origin and trial.
func Fig2(w io.Writer, s *core.Study) {
	header(w, "Figure 2: Breakdown of missing hosts by scan origin and trial")
	for _, p := range proto.All() {
		fmt.Fprintf(w, "\n[%s]  (%% of ground truth)\n", p)
		fmt.Fprintf(w, "%-7s%-7s%15s%15s%15s%15s%12s\n",
			"origin", "trial", "transient-host", "transient-net", "longterm-host", "longterm-net", "unknown")
		for _, b := range s.Fig2MissingBreakdown(p) {
			fmt.Fprintf(w, "%-7s%-7d%15s%15s%15s%15s%12s\n",
				b.Origin, b.Trial+1,
				pct(b.Frac(analysis.CatTransientHost)), pct(b.Frac(analysis.CatTransientNet)),
				pct(b.Frac(analysis.CatLongTermHost)), pct(b.Frac(analysis.CatLongTermNet)),
				pct(b.Frac(analysis.CatUnknown)))
		}
	}
}

// Fig3 renders Figure 3: long-term inaccessibility overlap among origins.
func Fig3(w io.Writer, s *core.Study) {
	header(w, "Figure 3: Long-term inaccessibility among origins")
	for _, p := range proto.All() {
		hist := s.Fig3LongTermOverlap(p, nil)
		histNoCEN := s.Fig3LongTermOverlap(p, origin.Set{origin.CEN})
		fmt.Fprintf(w, "[%s] hosts long-term inaccessible from exactly k origins:\n", p)
		fmt.Fprintf(w, "  all origins:     %v\n", hist)
		fmt.Fprintf(w, "  excluding CEN:   %v\n", histNoCEN)
	}
}

// Fig4 renders Figure 4: AS concentration of long-term inaccessible hosts.
func Fig4(w io.Writer, s *core.Study) {
	header(w, "Figure 4: Distribution of long-term inaccessible hosts by AS")
	for _, p := range proto.All() {
		fmt.Fprintf(w, "\n[%s] cumulative share held by top-k ASes (k=1,3,10):\n", p)
		for _, conc := range s.Fig4ASDistribution(p) {
			share := func(k int) float64 {
				if k > len(conc.TopShares) {
					if len(conc.TopShares) == 0 {
						return 0
					}
					return conc.TopShares[len(conc.TopShares)-1]
				}
				return conc.TopShares[k-1]
			}
			fmt.Fprintf(w, "  %-6s total=%-7d top1=%s top3=%s top10=%s\n",
				conc.Origin, conc.Total, pct(share(1)), pct(share(3)), pct(share(10)))
		}
	}
}

// Fig5 renders Figure 5: long-term inaccessible ASes.
func Fig5(w io.Writer, s *core.Study) {
	header(w, "Figure 5: Long-term inaccessible ASes (count by threshold)")
	for _, p := range proto.All() {
		fmt.Fprintf(w, "\n[%s]\n%-7s%8s%8s%8s\n", p, "origin", "100%", ">=75%", ">=50%")
		for _, r := range s.Fig5LostASes(p) {
			fmt.Fprintf(w, "%-7s%8d%8d%8d\n", r.Origin, r.Full, r.AtLeast75, r.AtLeast50)
		}
	}
}

// Fig6 renders Figure 6: exclusively accessible hosts by country.
func Fig6(w io.Writer, s *core.Study, p proto.Protocol) {
	header(w, fmt.Sprintf("Figure 6: Exclusively accessible %s hosts by country", p))
	cells := s.Fig6ExclusiveByCountry(p)
	fmt.Fprintf(w, "%-7s%-9s%8s%12s%12s\n", "origin", "country", "hosts", "ctry-frac", "in-country")
	for _, c := range cells {
		if c.Hosts == 0 {
			continue
		}
		mark := ""
		if c.InCountry {
			mark = "   <== within-country"
		}
		fmt.Fprintf(w, "%-7s%-9s%8d%12s%12v%s\n", c.Origin, c.DestCountry, c.Hosts, pct(c.CountryFrac), c.InCountry, mark)
	}
}

// Fig7 renders Figure 7: AS distribution of exclusively accessible hosts.
func Fig7(w io.Writer, s *core.Study) {
	header(w, "Figure 7: AS distribution of exclusively accessible HTTP hosts")
	for _, sh := range s.Fig7ExclusiveByAS(proto.HTTP, 3) {
		fmt.Fprintf(w, "  %-6s AS%-7d %-34s %6d hosts (%s of origin's exclusives)\n",
			sh.Origin, sh.AS, sh.ASName, sh.Hosts, pct(sh.Share))
	}
}

// Fig8 renders Figure 8: transient inaccessibility overlap.
func Fig8(w io.Writer, s *core.Study) {
	header(w, "Figure 8: Transient inaccessibility among origins")
	for _, p := range proto.All() {
		fmt.Fprintf(w, "[%s] hosts transiently inaccessible from exactly k origins: %v\n",
			p, s.Fig8TransientOverlap(p))
	}
}

// Fig9 renders Figure 9: CDF of transient-loss-rate differences.
func Fig9(w io.Writer, s *core.Study) {
	header(w, "Figure 9: Distribution of differences in transient loss rate among origins")
	for _, p := range proto.All() {
		_, plain, weighted := s.Fig9LossSpread(p)
		fmt.Fprintf(w, "\n[%s] CDF of max pairwise transient-loss difference per AS:\n", p)
		for _, x := range []float64{0.0, 0.01, 0.05, 0.10, 0.25} {
			fmt.Fprintf(w, "  P(Δ <= %4.0f%%): plain=%s weighted=%s\n",
				100*x, pct(cdfAt(plain, x)), pct(cdfAt(weighted, x)))
		}
	}
}

func cdfAt(points []stats.CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range points {
		if p.X <= x {
			f = p.F
		} else {
			break
		}
	}
	return f
}

// Fig10 renders Figure 10: transient host loss vs packet loss for the
// paper's three spotlight ASes.
func Fig10(w io.Writer, s *core.Study) {
	header(w, "Figure 10: Transient host loss vs packet loss")
	for _, spotlight := range []struct {
		profile string
		p       proto.Protocol
	}{
		{world.ProfAlibabaHZ, proto.HTTP},
		{world.ProfTelecomIT, proto.HTTP},
		{world.ProfABCDE, proto.HTTP},
	} {
		fmt.Fprintf(w, "\n[%s / %s]\n", spotlight.profile, spotlight.p)
		for _, pt := range s.Fig10LossVsDrop(spotlight.p, spotlight.profile) {
			fmt.Fprintf(w, "  %-6s transient=%s packet-drop=%s\n", pt.Origin, pct(pt.Transient), pct(pt.Drop))
		}
	}
}

// Fig11 renders Figure 11: consistent best and worst scan origins.
func Fig11(w io.Writer, s *core.Study) {
	header(w, "Figure 11: Consistent best and worst scan origins per destination AS")
	for _, p := range proto.All() {
		rep := s.Fig11BestWorst(p)
		fmt.Fprintf(w, "\n[%s] ASes considered: %d, best-to-worst flips: %d (%.1f%%)\n",
			p, rep.ASesConsidered, rep.Flips, 100*float64(rep.Flips)/float64(max(rep.ASesConsidered, 1)))
		fmt.Fprintf(w, "  consistent best:  %v\n", fmtOriginCounts(rep.ConsistentBest))
		fmt.Fprintf(w, "  consistent worst: %v\n", fmtOriginCounts(rep.ConsistentWorst))
	}
}

func fmtOriginCounts(m map[origin.ID]int) string {
	type kv struct {
		o origin.ID
		n int
	}
	var kvs []kv
	for o, n := range m {
		kvs = append(kvs, kv{o, n})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].n != kvs[j].n {
			return kvs[i].n > kvs[j].n
		}
		return kvs[i].o < kvs[j].o
	})
	var b strings.Builder
	for _, e := range kvs {
		fmt.Fprintf(&b, "%v:%d ", e.o, e.n)
	}
	if b.Len() == 0 {
		return "(none)"
	}
	return b.String()
}

// Fig12 renders Figure 12: Alibaba's temporal SSH blocking timeline.
func Fig12(w io.Writer, s *core.Study) {
	header(w, "Figure 12: Temporal blocking by SSH hosts in Alibaba networks (trial 1)")
	for _, o := range []origin.ID{origin.US1, origin.US64, origin.AU, origin.CEN} {
		tl := s.Fig12AlibabaTimeline(o, 0)
		fmt.Fprintf(w, "  %-5s |", o)
		for _, h := range tl {
			c := "."
			if h.Attempted > 0 {
				frac := float64(h.Reset) / float64(h.Attempted)
				switch {
				case frac > 0.8:
					c = "#"
				case frac > 0.3:
					c = "+"
				case frac > 0.05:
					c = "-"
				}
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w, "|  (hour 0..20; # = network-wide RSTs)")
	}
}

// Fig13 renders Figure 13: SSH retry success curves.
func Fig13(ctx context.Context, w io.Writer, s *core.Study) error {
	header(w, "Figure 13: Scanning probabilistic temporarily blocking hosts (SSH retries)")
	curves, err := s.Fig13SSHRetry(ctx, 5, 8)
	if err != nil {
		return err
	}
	for _, c := range curves {
		fmt.Fprintf(w, "  AS%-7d %-30s hosts=%-4d success by retries:", c.AS, c.ASName, c.Hosts)
		for r, f := range c.Success {
			fmt.Fprintf(w, " %d:%s", r, strings.TrimSpace(pct(f)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig14 renders Figure 14: SSH missing-host cause breakdown.
func Fig14(w io.Writer, s *core.Study) {
	header(w, "Figure 14: Further breakdown of missing SSH hosts")
	fmt.Fprintf(w, "%-7s%12s%18s%22s%10s\n", "origin", "missing", "alibaba-temporal", "probabilistic-block", "other")
	for _, b := range s.Fig14SSHCauses() {
		if b.Missing == 0 {
			continue
		}
		f := func(c analysis.SSHCause) string {
			return pct(float64(b.Counts[c]) / float64(b.Missing))
		}
		fmt.Fprintf(w, "%-7s%12d%18s%22s%10s\n", b.Origin, b.Missing,
			f(analysis.CauseAlibabaTemporal), f(analysis.CauseProbabilistic), f(analysis.CauseOther))
	}
}

// Fig15 renders Figure 15/17/18: multi-origin coverage.
func Fig15(ctx context.Context, w io.Writer, s *core.Study, p proto.Protocol) error {
	header(w, fmt.Sprintf("Figure 15: Multi-origin coverage of %s hosts", p))
	var twoProbe []analysis.MultiOriginLevel
	for _, single := range []bool{true, false} {
		probes := "2 probes"
		if single {
			probes = "1 probe"
		}
		lvls, err := s.Fig15MultiOrigin(ctx, p, single)
		if err != nil {
			return err
		}
		if !single {
			twoProbe = lvls
		}
		fmt.Fprintf(w, "\n[%s]\n%-4s%10s%10s%10s%10s%10s\n", probes, "k", "median", "mean", "min", "max", "sigma")
		for _, lvl := range lvls {
			fmt.Fprintf(w, "%-4d%10s%10s%10s%10s%9.3f%%\n", lvl.K,
				pct(lvl.Median), pct(lvl.Mean), pct(lvl.Min), pct(lvl.Max), 100*lvl.Sigma)
		}
	}
	if len(twoProbe) >= 3 && len(twoProbe[2].All) > 0 {
		fmt.Fprintf(w, "best triad: %v %s; worst triad: %v %s\n",
			twoProbe[2].Best.Origins, pct(twoProbe[2].Best.Coverage),
			twoProbe[2].Worst.Origins, pct(twoProbe[2].Worst.Coverage))
	}
	return nil
}

// Fig16 renders Figure 16: exclusive accessibility for HTTPS and SSH.
func Fig16(w io.Writer, s *core.Study) {
	Fig6(w, s, proto.HTTPS)
	Fig6(w, s, proto.SSH)
}

// Fig17 renders Figure 17: multi-origin coverage for HTTPS and SSH.
func Fig17(ctx context.Context, w io.Writer, s *core.Study) error {
	if err := Fig15(ctx, w, s, proto.HTTPS); err != nil {
		return err
	}
	return Fig15(ctx, w, s, proto.SSH)
}

// Tab1 renders Table 1: exclusive (in)accessibility attribution.
func Tab1(w io.Writer, s *core.Study) {
	header(w, "Table 1: Hosts exclusively (in)accessible from a single origin")
	for _, p := range proto.All() {
		rows := s.Tab1ExclusiveShare(p)
		fmt.Fprintf(w, "\n[%s]\n%-7s%14s%16s\n", p, "origin", "acc. share", "inacc. share")
		for _, r := range rows {
			fmt.Fprintf(w, "%-7s%13.1f%%%15.1f%%\n", r.Origin, r.AccessiblePct, r.InaccessiblePct)
		}
	}
}

// Tab2 renders Table 2 (HTTP) / Table 5 (other protocols): countries with
// the most long-term inaccessible hosts.
func Tab2(w io.Writer, s *core.Study, p proto.Protocol) {
	header(w, fmt.Sprintf("Table 2/5: Countries with most long-term inaccessible %s hosts", p))
	rows := s.Tab2Countries(p)
	fmt.Fprintf(w, "%-7s%-9s%10s%14s%14s\n", "origin", "country", "inacc.", "ctry hosts", "dominant ASes")
	n := 0
	for _, r := range rows {
		if r.Pct < 1 || r.CountryHosts < 5 {
			continue
		}
		fmt.Fprintf(w, "%-7s%-9s%9.1f%%%14d%14d\n", r.Origin, r.Country, r.Pct, r.CountryHosts, r.DominantASes)
		n++
		if n >= 40 {
			break
		}
	}
}

// Tab3 renders Table 3: ASes with the largest transient-loss spread.
func Tab3(w io.Writer, s *core.Study) {
	header(w, "Table 3: ASes with the largest range of transient host loss rates")
	for _, p := range proto.All() {
		spreads, _, _ := s.Fig9LossSpread(p)
		fmt.Fprintf(w, "\n[%s]\n%-36s%8s%8s%8s\n", p, "AS", "Δ(%)", "Diff", "Ratio")
		for i, sp := range spreads {
			if i >= 6 {
				break
			}
			fmt.Fprintf(w, "%-36s%7.1f%%%8d%8.1f\n", fmt.Sprintf("%s (AS%d)", sp.ASName, sp.AS), 100*sp.Delta, sp.Diff, sp.Ratio)
		}
	}
}

// Tab5 renders the HTTPS and SSH country tables.
func Tab5(w io.Writer, s *core.Study) {
	Tab2(w, s, proto.HTTPS)
	Tab2(w, s, proto.SSH)
}

// Sec3McNemar renders §3's pairwise significance summary.
func Sec3McNemar(w io.Writer, s *core.Study) {
	header(w, "§3: McNemar's test between origin pairs (trial 1, Bonferroni-corrected)")
	for _, p := range proto.All() {
		pairs := s.McNemar(p, 0)
		sig := 0
		for _, pr := range pairs {
			if pr.PAdjusted < 0.001 {
				sig++
			}
		}
		fmt.Fprintf(w, "[%s] %d/%d pairs significant at p<0.001\n", p, sig, len(pairs))
	}
}

// Sec44Spearman renders §4.4's country-size correlation.
func Sec44Spearman(w io.Writer, s *core.Study) {
	header(w, "§4.4: Spearman correlation, country host count vs long-term inaccessible count")
	for _, p := range proto.All() {
		r := s.CountryCorrelation(p)
		fmt.Fprintf(w, "[%s] rho=%.2f p=%.2g n=%d (paper: rho=0.92, p<0.001)\n", p, r.Rho, r.P, r.N)
	}
}

// Sec52PacketLoss renders §5.2's estimator and correlation.
func Sec52PacketLoss(w io.Writer, s *core.Study) {
	header(w, "§5.2: Packet drop estimates and correlation with transient loss")
	for _, p := range proto.All() {
		fmt.Fprintf(w, "\n[%s]\n", p)
		corr := s.DropVsTransient(p)
		for _, o := range studyOrigins(s) {
			var rates []string
			for t := 0; t < s.DS.Trials; t++ {
				est := s.PacketLoss(p, o, t)
				rates = append(rates, strings.TrimSpace(pct(est.Rate)))
			}
			c := corr[o]
			fmt.Fprintf(w, "  %-6s drop by trial: %-28v drop↔transient rho=%.2f\n",
				o, rates, c.Rho)
		}
	}
}

// Sec53Bursts renders §5.3's burst attribution.
func Sec53Bursts(w io.Writer, s *core.Study) {
	header(w, "§5.3: Burst outages")
	for _, p := range proto.All() {
		rep := s.Bursts(p)
		fmt.Fprintf(w, "\n[%s] ASes with ≥1 burst: %s; single-origin bursts: %s; within 3 origins: %s\n",
			p, pct(rep.ASesWithBurst), pct(rep.SingleOriginBursts), pct(rep.WithinThree))
		fmt.Fprintf(w, "  single-origin burst counts: %v\n", fmtOriginCounts(rep.SingleOriginByOrigin))
		for _, o := range studyOrigins(s) {
			fmt.Fprintf(w, "  %-6s transient loss in bursts by trial:", o)
			for _, f := range rep.PerOriginTrial[o] {
				fmt.Fprintf(w, " %s", strings.TrimSpace(pct(f)))
			}
			fmt.Fprintln(w)
		}
	}
}

// Sec7Probes renders §7's probe-level statistics.
func Sec7Probes(w io.Writer, s *core.Study) {
	header(w, "§7: Single- vs double-probe coverage and probe-loss correlation")
	for _, p := range proto.All() {
		fmt.Fprintf(w, "\n[%s]\n", p)
		for _, o := range studyOrigins(s) {
			ps := s.Probes(p, o, 0)
			fmt.Fprintf(w, "  %-6s 1-probe=%s 2-probe=%s both-lost|any-lost=%s\n",
				o, pct(ps.Coverage1Probe), pct(ps.Coverage2Probe), pct(ps.BothLostPortion))
		}
	}
}

// Sec8Agreement renders the §8 comparison with Heidemann et al.: /24
// response-rate agreement between origin pairs.
func Sec8Agreement(w io.Writer, s *core.Study) {
	header(w, "§8: /24 response-rate agreement between origin pairs (tolerance 5%)")
	for _, p := range proto.All() {
		agg := s.Agreement(p, 0)
		if len(agg.PerPair) == 0 {
			fmt.Fprintf(w, "[%s] no origin pair to compare over %d /24 blocks\n", p, agg.Blocks)
			continue
		}
		fmt.Fprintf(w, "[%s] mean agreement %s over %d /24 blocks (paper: 87%%; Heidemann '08: 96%% for two US origins)\n",
			p, pct(agg.Mean), agg.Blocks)
	}
}

// BannerCensus renders the captured-banner tallies (the search-engine view
// of the scan data).
func BannerCensus(w io.Writer, s *core.Study) {
	header(w, "Banner census (US1, trial 1)")
	for _, p := range proto.All() {
		counts, total := s.Banners(p, origin.US1, 0, 6)
		fmt.Fprintf(w, "\n[%s] %d hosts with banners\n", p, total)
		for _, c := range counts {
			fmt.Fprintf(w, "  %-40s %7d hosts (%s)\n", c.Banner, c.Hosts, pct(c.Share))
		}
	}
}

func studyOrigins(s *core.Study) origin.Set {
	var out origin.Set
	for _, o := range s.DS.Origins {
		if o != origin.CARINET {
			out = append(out, o)
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
