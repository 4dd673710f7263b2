package serve

import (
	"context"

	"lattol/internal/eval"
	"lattol/internal/tolerance"
)

// planEvaluator adapts the serving Evaluator onto eval.Evaluator, so an
// inverse plan's probes flow through the exact
// same machinery as /v1/solve and /v1/tolerance traffic: canonical keys, the
// sharded LRU, in-flight coalescing and the bounded worker pool. Two plans
// against the same model share probe results with each other and with plain
// forward requests — repeating a plan costs zero solves.
//
// The canonical key derives from the probe configuration. Probes are always
// exact: the surrogate tier is never consulted, so every answer a plan is
// built from carries bound 0.
type planEvaluator struct {
	e *Evaluator

	// Batch scratch, reused across lockstep frontier rounds.
	keys []Key
	outs []keyOutcome
}

// solveCost converts a cache outcome into the number of model solves the
// probe actually ran: cache hits and coalesced waits cost nothing; only a
// lead ran the solver (once for a solve key, real+ideal for a tolerance key).
func solveCost(st cacheState, solves int) int {
	if st == stateLead {
		return solves
	}
	return 0
}

// keysFor appends the canonical keys one probe needs: a solve key when no
// ideal system is requested, else one tolerance key per requested subsystem
// (each of which co-solves the real system).
func (pe *planEvaluator) keysFor(keys []Key, cfg eval.Config, opts eval.Options) []Key {
	m := cfg.Model
	if !opts.TolNetwork && !opts.TolMemory {
		return append(keys, canonicalKey(m, cfg.Solver, opSolve, 0, 0))
	}
	if opts.TolNetwork {
		keys = append(keys, canonicalKey(m, cfg.Solver, opTolerance, tolerance.Network, tolerance.ZeroRemote))
	}
	if opts.TolMemory {
		keys = append(keys, canonicalKey(m, cfg.Solver, opTolerance, tolerance.Memory, tolerance.ZeroDelay))
	}
	return keys
}

// assemble folds the per-key outcomes of one probe into its metrics. The
// first key always carries the real-system metrics (tolerance evaluations
// co-solve the real system).
func assemble(opts eval.Options, outs []keyOutcome) (eval.Metrics, error) {
	var met eval.Metrics
	for i := range outs {
		if outs[i].err != nil {
			return eval.Metrics{}, outs[i].err
		}
	}
	met.Metrics = outs[0].res.real
	if !opts.TolNetwork && !opts.TolMemory {
		met.Solves = solveCost(outs[0].st, 1)
		return met, nil
	}
	i := 0
	if opts.TolNetwork {
		met.TolNetwork = outs[i].res.tol
		met.Solves += solveCost(outs[i].st, 2)
		i++
	}
	if opts.TolMemory {
		met.TolMemory = outs[i].res.tol
		met.Solves += solveCost(outs[i].st, 2)
	}
	return met, nil
}

// EvaluateBatch satisfies eval.Evaluator: one lockstep planner round (a
// plan's one probe, or a frontier's probes) through the cache. Hits resolve inline; all remaining misses are submitted
// as one batch task, exactly like /v1/batch items. out must have len(cfgs).
func (pe *planEvaluator) EvaluateBatch(ctx context.Context, cfgs []eval.Config, opts eval.Options, out []eval.Outcome) {
	if len(out) != len(cfgs) {
		panic("serve: planEvaluator.EvaluateBatch: len(out) != len(cfgs)")
	}
	keys := pe.keys[:0]
	for i := range cfgs {
		keys = pe.keysFor(keys, cfgs[i], opts)
	}
	pe.keys = keys
	perCfg := len(keys) / max(len(cfgs), 1)
	if cap(pe.outs) < len(keys) {
		pe.outs = make([]keyOutcome, len(keys))
	}
	outs := pe.outs[:len(keys)]
	pe.e.evalKeys(ctx, keys, nil, outs)
	for i := range cfgs {
		met, err := assemble(opts, outs[i*perCfg:(i+1)*perCfg])
		out[i] = eval.Outcome{Metrics: met, Err: err}
	}
}
