// Package eval defines the uniform model-evaluation abstraction: one
// operating point in, one set of performance measures out, behind a single
// Evaluator interface.
//
// Everything that can answer "what does the model do at this configuration?"
// implements it — the in-process analytical solvers (Solver, with
// warm-started continuation between calls), the serving layer's cached
// evaluator (LRU → surrogate → worker pool), and the surrogate grid itself —
// so higher layers compose them freely. The inverse (capacity-planning)
// subsystem is the forcing function: a root-finder probes an Evaluator many
// times and neither knows nor cares whether each probe is a fresh AMVA solve,
// a cache hit, or a certified interpolation.
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

// Evaluator answers one operating point. Implementations must be safe for
// the concurrency they document: Solver is single-goroutine, the serving
// layer's evaluator is fully concurrent.
type Evaluator interface {
	Evaluate(ctx context.Context, cfg Config, opts Options) (Metrics, error)
}

// Outcome is the positional product of one batch element.
type Outcome struct {
	Metrics Metrics
	Err     error
}

// BatchEvaluator evaluates many operating points in one call. Implementations
// back it with the lockstep batch kernel (mms.SolveBatch over
// mva.BatchWorkspace), so a frontier sweep's per-round probe fan-out costs
// far less than len(cfgs) one-point solves. A failing element never affects its
// neighbors; out must have len(cfgs).
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(ctx context.Context, cfgs []Config, opts Options, out []Outcome)
}
