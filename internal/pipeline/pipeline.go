// Package pipeline defines the study's execution lifecycle: the named
// stages a run moves through (Worldgen → Sweep → Grab → Seal → Analyze →
// Report), a Runner that executes stages under a context with per-stage
// before/after hooks, and the typed error layer (sentinels plus the
// ScanError and StageError wrappers) every layer of the scanner reports
// through.
//
// The package sits below experiment, results, and analysis so that all of
// them can share one error vocabulary; internal/core re-exports the
// sentinels for callers outside the internal tree.
//
// Cancellation contract: an uncancelled run is bit-identical to a run
// without any context plumbing (the checks are pure reads), and a canceled
// run stops at the next stage boundary or sweep batch, returning an error
// chain that contains ErrCanceled and the Stage it was interrupted in.
package pipeline

import (
	"context"
	"errors"
)

// Stage names one phase of the study lifecycle. Worldgen, Analyze, and
// Report run once per study; Sweep, Grab, and Seal run once per (origin,
// protocol, trial) scan.
type Stage uint8

const (
	// StageWorldgen generates the synthetic Internet.
	StageWorldgen Stage = iota
	// StageSweep is the L4 ZMap sweep of one scan, with the L7 handshakes
	// on its replies running under it (ZMap piped into ZGrab).
	StageSweep
	// StageGrab is what is left of the L7 ZGrab pass once the sweep has
	// returned and the replies it handed off are grabbed: the partial last
	// slot, and the replies held back because a detector watches their
	// network.
	StageGrab
	// StageSeal commits the scan's columns (sort + dedup; for a
	// spill-backed store, the external merge of on-disk segments plus
	// segment cleanup) and tears down the scan's fabric connections.
	StageSeal
	// StageAnalyze runs the paper's analyses over the sealed dataset.
	StageAnalyze
	// StageReport renders tables and figures.
	StageReport
	numStages
)

// NumStages is the number of defined lifecycle stages — the array size for
// per-stage state (telemetry keeps per-stage start times in one).
const NumStages = int(numStages)

var stageNames = [numStages]string{
	"worldgen", "sweep", "grab", "seal", "analyze", "report",
}

// String returns the stage name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage(?)"
}

// Hooks are optional callbacks fired around every stage a Runner executes —
// the seam for progress reporting, tracing, and tests. One scan's stages
// may run on different goroutines, and several scans' at once (one Runner
// per scan); the caller that runs them says whether it serializes the
// calls (experiment.Study.Run does).
type Hooks struct {
	// Before fires immediately before the stage runs.
	Before func(ctx context.Context, s Stage)
	// After fires when the stage returns, with its error (nil on success).
	After func(ctx context.Context, s Stage, err error)
}

// StageFunc binds a stage label to the work it performs.
type StageFunc struct {
	Stage Stage
	Run   func(ctx context.Context) error
}

// Runner executes stages in order under a context. The context is checked
// at every stage boundary, so cancellation between stages costs nothing and
// is reported against the stage that never started; cancellation inside a
// stage is the stage's own responsibility (the sweep checks per batch, the
// grab stage per host).
type Runner struct {
	Hooks Hooks
}

// Run executes the stages in order, stopping at the first error. The
// returned error is a *StageError naming the interrupted stage; context
// errors are normalized so errors.Is(err, ErrCanceled) holds for any
// canceled run regardless of which layer observed the cancellation first.
func (r Runner) Run(ctx context.Context, stages ...StageFunc) error {
	for _, sf := range stages {
		if err := ctx.Err(); err != nil {
			return &StageError{Stage: sf.Stage, Err: Canceled(err)}
		}
		if r.Hooks.Before != nil {
			r.Hooks.Before(ctx, sf.Stage)
		}
		err := normalize(sf.Run(ctx))
		if r.Hooks.After != nil {
			r.Hooks.After(ctx, sf.Stage, err)
		}
		if err != nil {
			return &StageError{Stage: sf.Stage, Err: err}
		}
	}
	return nil
}

// normalize maps raw context errors onto ErrCanceled so every layer's
// cancellation surfaces through the one sentinel.
func normalize(err error) error {
	if err == nil || errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Canceled(err)
	}
	return err
}

// InterruptedStage extracts the stage a failed or canceled run stopped in:
// the stage whose hooks were open when the error was observed (or, for a
// cancellation seen at a stage boundary, the stage that never started) —
// not the layer that raised it. Work may run under a stage that is not its
// namesake: a scan grabs while it sweeps, so a cancellation raised from a
// grab stage's dial during the walk is observed by the sweep and reported
// as StageSweep; raised once the walk has returned, as StageGrab.
func InterruptedStage(err error) (Stage, bool) {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage, true
	}
	return 0, false
}
