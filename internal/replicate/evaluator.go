package replicate

import (
	"context"
	"math"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/sweep"
	"lattol/internal/tolerance"
)

// Evaluator serves replicated simulation estimates through the uniform
// eval.Evaluator interface, so everything written against it — the inverse
// planner, frontier sweeps, the conformance harness — can run on a simulated
// backend instead of the analytical solvers.
//
// Every evaluation derives its seed from the configuration's own field bits
// (seedFor), so every answer is a pure function of its configuration:
// identical configurations replay identical random-number streams (common random
// numbers across evaluators and across probes), and a fresh Evaluator
// reproduces another's answers bit for bit. That purity is what lets
// conformance.CheckPlanOn certify a simulated plan against fresh forward
// evaluations with a tight agreement band.
//
// Tolerance indices replicate the ideal system too (Definition 4.3 as a
// ratio of two simulated utilizations). Ideal results are memoized on the
// ideal configuration — planner probe sequences that share an ideal system
// (e.g. a premote knob under the ZeroRemote ideal) pay for it once.
//
// Bound reports the achieved relative confidence half-width of U_p. Unlike
// the solver tiers' certified bounds it is statistical — a Student-t
// confidence statement, not a guarantee. Options.MaxError, when positive,
// tightens the replication precision target to it.
//
// An Evaluator is not safe for concurrent use (the replication runner
// parallelizes internally); give each goroutine its own.
type Evaluator struct {
	opts  Options
	ideal map[mms.Config]idealEstimate
}

type idealEstimate struct {
	up     float64
	solves int
}

// NewEvaluator returns a simulation-backed evaluator. opts.Sim.Seed is the
// base seed: two evaluators with equal Options agree bit for bit.
func NewEvaluator(opts Options) *Evaluator {
	return &Evaluator{opts: opts, ideal: make(map[mms.Config]idealEstimate)}
}

// seedFor mixes the base seed with the configuration's field bits, giving
// each operating point its own deterministic seed coordinate.
func seedFor(base int64, cfg mms.Config) int64 {
	return sweep.DeriveSeed(base,
		int64(cfg.K),
		int64(cfg.Threads),
		int64(math.Float64bits(cfg.Runlength)),
		int64(math.Float64bits(cfg.ContextSwitch)),
		int64(math.Float64bits(cfg.MemoryTime)),
		int64(math.Float64bits(cfg.SwitchTime)),
		int64(math.Float64bits(cfg.PRemote)),
		int64(math.Float64bits(cfg.Psw)),
		int64(cfg.GeometricMode),
		int64(cfg.MemoryPorts),
		int64(cfg.SwitchPorts),
	)
}

// run replicates one configuration with its derived seed.
func (e *Evaluator) run(ctx context.Context, cfg mms.Config, precision float64) (Result, error) {
	opts := e.opts
	opts.Sim.Seed = seedFor(e.opts.Sim.Seed, cfg)
	opts.Precision = precision
	return Run(ctx, cfg, opts)
}

// idealUp returns the replicated U_p of cfg's ideal system for one
// subsystem, memoized on the ideal configuration so repeated probes sharing
// an ideal system simulate it once.
func (e *Evaluator) idealUp(ctx context.Context, cfg mms.Config, sub tolerance.Subsystem, mode tolerance.IdealMode, precision float64) (idealEstimate, error) {
	idealCfg, err := tolerance.IdealConfig(cfg, sub, mode)
	if err != nil {
		return idealEstimate{}, err
	}
	if est, ok := e.ideal[idealCfg]; ok {
		return est, nil
	}
	res, err := e.run(ctx, idealCfg, precision)
	if err != nil {
		return idealEstimate{}, err
	}
	est := idealEstimate{up: res.Up.Mean, solves: res.Reps}
	e.ideal[idealCfg] = est
	return est, nil
}

// EvaluateBatch implements eval.Evaluator by replication, positionally.
// Each element is replicated independently (the parallelism lives inside
// the replication runner); a failing element never affects its neighbors.
// The Solver field of each config is ignored: the "solution procedure" here
// is always simulation.
func (e *Evaluator) EvaluateBatch(ctx context.Context, cfgs []eval.Config, opts eval.Options, out []eval.Outcome) {
	precision := e.opts.Precision
	if opts.MaxError > 0 && (precision <= 0 || opts.MaxError < precision) {
		precision = opts.MaxError
	}
	for i, cfg := range cfgs {
		m, err := e.evaluate(ctx, cfg.Model, opts, precision)
		out[i] = eval.Outcome{Metrics: m, Err: err}
	}
}

// evaluate replicates one element: the real system, then each requested
// ideal system through the memo.
func (e *Evaluator) evaluate(ctx context.Context, cfg mms.Config, opts eval.Options, precision float64) (eval.Metrics, error) {
	res, err := e.run(ctx, cfg, precision)
	if err != nil {
		return eval.Metrics{}, err
	}
	m := eval.Metrics{
		Metrics: res.Metrics(cfg),
		Solves:  res.Reps,
		Bound:   res.Up.Rel(),
	}
	if opts.TolNetwork {
		est, err := e.idealUp(ctx, cfg, tolerance.Network, tolerance.ZeroRemote, precision)
		if err != nil {
			return eval.Metrics{}, err
		}
		m.TolNetwork = tolerance.Ratio(res.Up.Mean, est.up)
		m.Solves += est.solves
	}
	if opts.TolMemory {
		est, err := e.idealUp(ctx, cfg, tolerance.Memory, tolerance.ZeroDelay, precision)
		if err != nil {
			return eval.Metrics{}, err
		}
		m.TolMemory = tolerance.Ratio(res.Up.Mean, est.up)
		m.Solves += est.solves
	}
	return m, nil
}

var _ eval.Evaluator = (*Evaluator)(nil)
