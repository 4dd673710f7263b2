// Package eval defines the uniform model-evaluation abstraction: operating
// points in, performance measures out, positionally, behind a single
// Evaluator interface with one method.
//
// Everything that can answer "what does the model do at these
// configurations?" implements it — the in-process analytical solvers
// (Solver, one lockstep batch per call, warm-started from the previous
// call), the serving layer's cached evaluator (LRU → surrogate → worker
// pool), and the replicated simulators — so higher layers compose them
// freely. The inverse (capacity-planning) subsystem is the forcing function:
// a root-finder probes an Evaluator many times and neither knows nor cares
// whether each probe is a fresh AMVA solve, a cache hit, or a replicated
// estimate. One point is a one-config batch (One).
package eval

import (
	"context"

	"lattol/internal/mms"
)

// Config is one operating point: the model configuration plus the solution
// procedure. It is a plain comparable value, so evaluators may memoize on
// it.
type Config struct {
	// Model is the workload/architecture configuration to evaluate.
	Model mms.Config
	// Solver selects the solution procedure (default SymmetricAMVA).
	Solver mms.Solver
}

// Options tunes one evaluation. The zero value requests the plain
// performance measures of the real system, exactly.
type Options struct {
	// TolNetwork requests the network tolerance index (one extra solve of
	// the ZeroRemote ideal system).
	TolNetwork bool
	// TolMemory requests the memory tolerance index (one extra solve of the
	// ZeroDelay ideal system).
	TolMemory bool
	// MaxError, when positive, permits certified-approximate answers: an
	// evaluator with an interpolation tier may serve any answer whose
	// relative error it can bound by MaxError. Zero demands exact solves.
	MaxError float64
}

// Metrics is the uniform evaluation result: the paper's measures plus the
// tolerance indices that were requested.
type Metrics struct {
	mms.Metrics

	// TolNetwork and TolMemory are the tolerance indices; valid only when
	// the corresponding Options flag was set.
	TolNetwork float64
	TolMemory  float64

	// Solves counts the model solves this evaluation actually ran (0 when
	// every answer came from a cache or an interpolation tier). Inverse
	// solvers surface it for probe accounting.
	Solves int
	// Bound is the certified relative error bound of the answer: 0 for
	// exact results, at most Options.MaxError for interpolated ones.
	Bound float64
}

// Outcome is the positional product of one batch element.
type Outcome struct {
	Metrics Metrics
	Err     error
}

// Evaluator evaluates many operating points in one call. The analytical
// implementations back it with mms.SolveBatch, which elaborates each
// distinct geometry once and solves each distinct system once on one
// workspace, so a frontier's per-round probe fan-out costs less than
// len(cfgs) independent solves. A failing element never affects
// its neighbors; out must have len(cfgs). Implementations must be safe for
// the concurrency they document: Solver is single-goroutine, the serving
// layer's evaluator is fully concurrent.
type Evaluator interface {
	EvaluateBatch(ctx context.Context, cfgs []Config, opts Options, out []Outcome)
}

// One evaluates a single operating point as a one-config batch.
func One(ctx context.Context, ev Evaluator, cfg Config, opts Options) (Metrics, error) {
	var out [1]Outcome
	ev.EvaluateBatch(ctx, []Config{cfg}, opts, out[:])
	return out[0].Metrics, out[0].Err
}
