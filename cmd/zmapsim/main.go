// Command zmapsim runs a single-origin ZMap+ZGrab scan against a generated
// synthetic Internet — the building block of the study, exposed as a
// standalone tool with ZMap-flavoured output.
//
// Usage:
//
//	zmapsim [-seed N] [-scale F] [-origin AU|BR|DE|JP|US1|US64|CEN]
//	        [-proto http|https|ssh] [-trial N] [-probes N] [-retries N] [-v]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/experiment"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/pcap"
	"repro/internal/pipeline"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
	"repro/internal/zgrab"
	"repro/internal/zmap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, pipeline.ErrCanceled) {
			exitf(130, "interrupted")
		}
		exitf(1, "%v", err)
	}
}

// run is the command: flags in args, the report on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("zmapsim", flag.ExitOnError)
	var (
		seed      = fs.Uint64("seed", 2020, "study seed")
		scale     = fs.Float64("scale", 0.0002, "world scale")
		originStr = fs.String("origin", "US1", "scan origin (AU, BR, DE, JP, US1, US64, CEN)")
		protoStr  = fs.String("proto", "http", "protocol (http, https, ssh)")
		trial     = fs.Int("trial", 0, "trial index (0-based)")
		probes    = fs.Int("probes", 2, "SYN probes per target")
		retries   = fs.Int("retries", 0, "application-handshake retry budget")
		verbose   = fs.Bool("v", false, "print every responsive host")
		pcapPath  = fs.String("pcap", "", "write probe/response packets to this pcap file")
		blocklist = fs.String("blocklist", "", "ZMap-style blocklist file (CIDRs, # comments)")
		banners   = fs.Bool("banners", false, "print the top captured banners")
		shard     = fs.Int("shard", 0, "this scanner's shard index (0-based)")
		shards    = fs.Int("shards", 1, "total cooperating shards")
	)
	fs.Parse(args) // ExitOnError: does not return on a bad flag

	o, ok := parseOrigin(*originStr)
	if !ok {
		return fmt.Errorf("unknown origin %q", *originStr)
	}
	p, ok := parseProto(*protoStr)
	if !ok {
		return fmt.Errorf("unknown protocol %q", *protoStr)
	}

	cfg := experiment.Config{
		WorldSpec: world.Spec{Seed: *seed, Scale: *scale},
		Trials:    *trial + 1,
		Probes:    *probes,
		Retries:   *retries,
		Shard:     *shard,
		Shards:    *shards,
	}
	if *blocklist != "" {
		f, err := os.Open(*blocklist)
		if err != nil {
			return err
		}
		set, err := ip.ParseBlocklist(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Blocklist = set
		fmt.Fprintf(stdout, "blocklist: %d prefixes covering %d addresses\n", set.Len(), set.NumAddrs())
	}
	var capture *pcap.Writer
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		capture, err = pcap.NewWriter(f, pcap.LinkTypeRaw)
		if err != nil {
			return err
		}
		cfg.SinkWrapper = func(inner zmap.PacketSink) zmap.PacketSink {
			return pcap.NewSink(inner, capture)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := experiment.NewStudy(ctx, cfg)
	if err != nil {
		return err
	}
	w := st.World
	fmt.Fprintf(stdout, "zmapsim: scanning %s (port %d) from %s over 2^%d addresses\n",
		p, p.Port(), w.Origins.Get(o).Name, w.SpaceBits)

	res, err := st.ScanOne(ctx, o, p, *trial)
	if err != nil {
		return err
	}
	printScan(stdout, res, w, *verbose)
	if capture != nil {
		fmt.Fprintf(stdout, "pcap: %d packets written to %s\n", capture.Count(), *pcapPath)
	}
	if *banners {
		printBanners(stdout, res)
	}
	return nil
}

// printBanners tallies the captured banners of one scan.
func printBanners(stdout io.Writer, res *results.ScanResult) {
	counts := map[string]int{}
	res.Each(func(r results.HostRecord) {
		if r.L7 && r.Banner != "" {
			counts[r.Banner]++
		}
	})
	type kv struct {
		b string
		n int
	}
	var kvs []kv
	for b, n := range counts {
		kvs = append(kvs, kv{b, n})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].n != kvs[j].n {
			return kvs[i].n > kvs[j].n
		}
		return kvs[i].b < kvs[j].b
	})
	fmt.Fprintln(stdout, "top banners:")
	for i, e := range kvs {
		if i >= 10 {
			break
		}
		fmt.Fprintf(stdout, "  %-40s %6d\n", e.b, e.n)
	}
}

func parseOrigin(s string) (origin.ID, bool) {
	for _, o := range append(origin.StudySet(), origin.CARINET) {
		if strings.EqualFold(o.String(), s) {
			return o, true
		}
	}
	return 0, false
}

func parseProto(s string) (proto.Protocol, bool) {
	for _, p := range proto.All() {
		if strings.EqualFold(p.String(), s) {
			return p, true
		}
	}
	return 0, false
}

func printScan(stdout io.Writer, res *results.ScanResult, w *world.World, verbose bool) {
	l4, l7, rstOnly := 0, 0, 0
	var failCounts [zgrab.FailProto + 1]int
	res.Each(func(r results.HostRecord) {
		if r.L4() {
			l4++
		} else if r.RST {
			rstOnly++
		}
		if r.L7 {
			l7++
		} else if r.L4() {
			failCounts[r.Fail]++
		}
		if verbose && r.L4() {
			status := "ok"
			if !r.L7 {
				status = r.Fail.String()
			}
			as := "?"
			if a, okAS := w.ASOf(r.Addr); okAS {
				as = fmt.Sprintf("AS%d %s", a.Number, a.Name)
			}
			fmt.Fprintf(stdout, "  %-15s probes=%02b %-8s %s\n", r.Addr, r.ProbeMask, status, as)
		}
	})
	fmt.Fprintf(stdout, "targets probed:    %d\n", res.Targets)
	fmt.Fprintf(stdout, "probes sent:       %d\n", res.ProbesSent)
	fmt.Fprintf(stdout, "SYN-ACKs (valid):  %d\n", res.SynAcks)
	fmt.Fprintf(stdout, "RSTs (valid):      %d\n", res.Rsts)
	fmt.Fprintf(stdout, "invalid responses: %d\n", res.Invalid)
	fmt.Fprintf(stdout, "hosts L4-alive:    %d\n", l4)
	fmt.Fprintf(stdout, "hosts RST-only:    %d\n", rstOnly)
	fmt.Fprintf(stdout, "handshakes OK:     %d\n", l7)
	for mode, n := range failCounts {
		if n > 0 {
			fmt.Fprintf(stdout, "  grab failed (%s): %d\n", zgrab.FailMode(mode), n)
		}
	}
	hitRate := 0.0
	if res.Targets > 0 {
		hitRate = float64(l7) / float64(res.Targets)
	}
	fmt.Fprintf(stdout, "hit rate:          %.4f%%\n", 100*hitRate)
}

func exitf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zmapsim: "+format+"\n", args...)
	os.Exit(code)
}
