package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/world"
)

// reportKind selects what a workload's report phase runs after the dataset
// round trip — the part of cmd/originscan's output path the workload's
// family and shape actually reach.
type reportKind int

const (
	// reportRoundTrip: WriteJSON → ReadJSON → Equal only (single-scan
	// workloads have no cross-origin analysis to run).
	reportRoundTrip reportKind = iota
	// reportFull: round trip, then UseDataset + report.All — every table
	// and figure, as `originscan` prints for an IPv4 study.
	reportFull
	// reportV6: round trip, then Coverage + NewClassifier + Exclusive per
	// protocol, as `originscan -family ipv6` prints.
	reportV6
)

// workload is one named input of the benchmark. Names are cited by later
// issues and by BENCHMARK.json; do not rename.
type workload struct {
	name string
	why  string
	// config builds the experiment config for a seed. dir is a scratch
	// directory the config may point its spill store at.
	config func(seed uint64, smoke bool, dir string) experiment.Config
	report reportKind
	// poolRuns is how many times the traced pass reruns the study on the
	// scan pool (Parallelism = GOMAXPROCS); shardRun adds one run with the
	// sweep sharded. Only workloads where the answer is interesting pay.
	poolRuns int
	shardRun bool
}

// spillBudget is bigscan's study-wide result-memory budget: small enough
// that its 100 k-row scan flushes four segments and Seal runs the external
// merge, which is the whole point of the workload.
const spillBudget = 1 << 20

var workloads = []workload{
	{
		name: "matrix",
		why:  "the paper's experiment shape: 66 small dense scans (3 trials x 3 protocols x 7 origins + Carinet); fabric.Send per probe dominates; the only report phase that runs the full analysis + report.All",
		config: func(seed uint64, smoke bool, _ string) experiment.Config {
			scale := 0.00003
			if smoke {
				scale = 0.00001
			}
			return experiment.Config{
				WorldSpec:      world.Spec{Seed: seed, Scale: scale},
				Trials:         3,
				IncludeCarinet: true,
			}
		},
		report:   reportFull,
		poolRuns: 3,
	},
	{
		name: "bigscan",
		why:  "scaled twin of the Scale=1.0 study: one streamed-world US1/HTTP scan, 100 k rows through the spill store (4 segments + external merge); sweep and grab are balanced",
		config: func(seed uint64, smoke bool, dir string) experiment.Config {
			scale, budget := 0.0015, int64(spillBudget)
			if smoke {
				// ~2k rows; a 16 KiB budget still forces several segments.
				scale, budget = 0.00004, 16<<10
			}
			return experiment.Config{
				WorldSpec: world.Spec{Seed: seed, Scale: scale, StreamHosts: true},
				Trials:    1,
				Origins:   origin.Set{origin.US1},
				Protocols: []proto.Protocol{proto.HTTP},
				SpillDir:  dir,
				MemBudget: budget,
			}
		},
		report: reportRoundTrip,
	},
	{
		name: "sparse",
		why:  "ZMap's real job: 2^26 targets, almost all dark; permutation walk, filter and routed short-circuit do the work; fabric, grab and store are bypassed",
		config: func(seed uint64, smoke bool, _ string) experiment.Config {
			scale, bits := 0.00005, uint8(26)
			if smoke {
				scale, bits = 0.00003, 22
			}
			return experiment.Config{
				WorldSpec: world.Spec{Seed: seed, Scale: scale, SpaceBits: bits, StreamHosts: true},
				Trials:    1,
				Origins:   origin.Set{origin.US1},
				Protocols: []proto.Protocol{proto.HTTP},
			}
		},
		report:   reportRoundTrip,
		shardRun: true,
	},
	{
		name: "hitlist",
		why:  "IPv6 hitlist walk, 21 scans over 12 k hosts in 64 providers: no permutation sweep, no dark space; grab + seal + store are the largest share of a scan any input reaches",
		config: func(seed uint64, smoke bool, _ string) experiment.Config {
			spec := world.V6Spec{Seed: seed, Providers: 64, IslandsPerProvider: 8, HostsPerIsland: 24}
			if smoke {
				spec = world.TestV6Spec(seed)
			}
			return experiment.Config{
				WorldSpec: world.Spec{Seed: seed},
				Family:    world.FamilyIPv6,
				V6Spec:    spec,
				Trials:    1,
			}
		},
		report: reportV6,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// studyConfig is the workload's config with the run conditions every
// workload shares: one scan at a time (the two-worker pool does not repeat
// within a tenth on this box; see README), and the live telemetry registry
// cmd/originscan always attaches — no recorder, no progress line.
func (w *workload) studyConfig(seed uint64, smoke bool, dir string) experiment.Config {
	cfg := w.config(seed, smoke, dir)
	cfg.Parallelism = 1
	cfg.Telemetry = core.NewTelemetry()
	return cfg
}
