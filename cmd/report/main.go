// Command report re-runs the paper's analyses over a previously saved
// dataset (written by originscan -dataset). The world is regenerated from
// the same seed and scale so topology lookups (AS, country) match the scans,
// so -seed and -scale must be the ones the dataset was collected with; the
// trial count is the dataset's own. A dataset the regenerated world cannot
// have produced — a handshake with a host the world does not have, or scans
// that swept more targets than the world's space or disagree on how many —
// is refused with exit status 1.
//
// Usage:
//
//	report -in dataset.json [-seed N] [-scale F]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/proto"
	"repro/internal/report"
	"repro/internal/results"
	"repro/internal/world"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, reports to stdout and returns the
// exit status, with any complaint on stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in    = fs.String("in", "", "dataset JSON written by originscan -dataset (required)")
		seed  = fs.Uint64("seed", 2020, "study seed the dataset was collected with")
		scale = fs.Float64("scale", 0.001, "world scale the dataset was collected with")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "report: -in is required")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "report: %v\n", err)
		return 1
	}

	f, err := os.Open(*in)
	if err != nil {
		return fail(err)
	}
	ds, err := results.ReadJSON(f)
	f.Close()
	if err != nil {
		return fail(err)
	}

	study, err := core.New(ctx, experiment.Config{
		WorldSpec: world.Spec{Seed: *seed, Scale: *scale},
		Trials:    ds.Trials,
	})
	if err != nil {
		return fail(err)
	}
	if err := checkWorld(study.World(), ds); err != nil {
		return fail(fmt.Errorf("%s was not collected in the world of -seed %d -scale %g: %v; pass the -seed and -scale originscan ran with",
			*in, *seed, *scale, err))
	}
	study.UseDataset(ds)
	if err := report.All(ctx, stdout, study); err != nil {
		if errors.Is(err, core.ErrCanceled) {
			fmt.Fprintln(stderr, "report: interrupted")
			return 130
		}
		return fail(err)
	}
	return 0
}

// checkWorld reports the first sign that ds was not collected in w. The
// dataset records neither seed nor scale, but every host a scan completed a
// handshake with is a host of w offering the scan's protocol, and every scan
// probed the same targets: w's address space less what a blocklist took out,
// so no more than w.SpaceSize().
func checkWorld(w *world.World, ds *results.Dataset) error {
	fib := w.FIB()
	var targets uint64 // the first scan's count, which every other must match
	first := true
	for _, o := range ds.Origins {
		for _, p := range proto.All() {
			for trial := 0; trial < ds.Trials; trial++ {
				s := ds.Scan(o, p, trial)
				if s == nil {
					continue
				}
				if first {
					targets, first = s.Targets, false
					if space := w.SpaceSize(); targets > space {
						return fmt.Errorf("the %v %v scan of trial %d probed %d targets, the world has %d",
							o, p, trial, targets, space)
					}
				} else if s.Targets != targets {
					return fmt.Errorf("the %v %v scan of trial %d probed %d targets, an earlier scan %d",
						o, p, trial, s.Targets, targets)
				}
				for i := range s.Len() {
					if !s.SuccessAt(i, false) {
						continue
					}
					a := s.AddrAt(i)
					if d := fib.Resolve(a); !d.Host || !d.Services.Has(p) {
						return fmt.Errorf("the %v %v scan of trial %d completed a handshake with %v, which is no %v host of the world",
							o, p, trial, a, p)
					}
				}
			}
		}
	}
	return nil
}
