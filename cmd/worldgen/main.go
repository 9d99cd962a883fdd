// Command worldgen generates and inspects the synthetic Internet: country
// populations, AS size distribution, and the paper's named profile
// networks.
//
// Usage:
//
//	worldgen [-seed N] [-scale F] [-top N] [-countries] [-profiles]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"

	"repro/internal/geo"
	"repro/internal/proto"
	"repro/internal/world"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
		os.Exit(1)
	}
}

// run is the command: flags in args, the inventory on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worldgen", flag.ExitOnError)
	var (
		seed      = fs.Uint64("seed", 2020, "world seed")
		scale     = fs.Float64("scale", 0.001, "world scale")
		top       = fs.Int("top", 15, "number of top ASes to list")
		countries = fs.Bool("countries", true, "print country populations")
		profiles  = fs.Bool("profiles", true, "print the paper's profile networks")
	)
	fs.Parse(args) // ExitOnError: does not return on a bad flag

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	w, err := world.Build(ctx, world.Spec{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "seed %d, scale %g → %d hosts over 2^%d addresses, %d ASes\n",
		*seed, *scale, w.NumHosts(), w.SpaceBits, w.Routes.Len())
	for _, p := range proto.All() {
		fmt.Fprintf(stdout, "  %-6s %d hosts\n", p, w.HostCount(p))
	}

	if *countries {
		fmt.Fprintln(stdout, "\ncountry populations (HTTP hosts):")
		type row struct {
			c geo.Country
			n int
		}
		var rows []row
		for _, ci := range w.Countries.Countries() {
			if n := w.CountryHostCount(ci.Code, proto.HTTP); n > 0 {
				rows = append(rows, row{ci.Code, n})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
		for _, r := range rows {
			fmt.Fprintf(stdout, "  %-3s %7d\n", r.c, r.n)
		}
	}

	fmt.Fprintf(stdout, "\ntop %d ASes by host count:\n", *top)
	type asRow struct {
		name  string
		num   uint32
		hosts int
	}
	var ases []asRow
	for _, a := range w.Routes.All() {
		ases = append(ases, asRow{a.Name, uint32(a.Number), len(w.HostsInAS(a.Number))})
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i].hosts > ases[j].hosts })
	for i, a := range ases {
		if i >= *top {
			break
		}
		fmt.Fprintf(stdout, "  AS%-7d %-40s %7d hosts\n", a.num, a.name, a.hosts)
	}

	if *profiles {
		fmt.Fprintln(stdout, "\npaper profile networks:")
		for _, name := range w.ProfileNames() {
			n := w.MustProfileASN(name)
			a, _ := w.Routes.Get(n)
			fmt.Fprintf(stdout, "  AS%-7d %-40s %-3s %-11s %6d hosts\n",
				n, name, a.Country, a.Kind, len(w.HostsInAS(n)))
		}
	}
	return nil
}
