// Command report re-runs the paper's analyses over a previously saved
// dataset (written by originscan -dataset). The world is regenerated from
// the same seed and scale so topology lookups (AS, country) match the scans,
// so -seed and -scale must be the ones the dataset was collected with; the
// trial count is the dataset's own.
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
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/results"
	"repro/internal/world"
)

func main() {
	var (
		in    = flag.String("in", "", "dataset JSON written by originscan -dataset (required)")
		seed  = flag.Uint64("seed", 2020, "study seed the dataset was collected with")
		scale = flag.Float64("scale", 0.001, "world scale the dataset was collected with")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "report: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatalf("%v", err)
	}
	ds, err := results.ReadJSON(f)
	f.Close()
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	study, err := core.New(ctx, experiment.Config{
		WorldSpec: world.Spec{Seed: *seed, Scale: *scale},
		Trials:    ds.Trials,
	})
	if err != nil {
		fatalf("%v", err)
	}
	study.UseDataset(ds)
	if err := report.All(ctx, os.Stdout, study); err != nil {
		if errors.Is(err, core.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "report: interrupted")
			os.Exit(130)
		}
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "report: "+format+"\n", args...)
	os.Exit(1)
}
