package eval

import (
	"context"

	"lattol/internal/mms"
	"lattol/internal/tolerance"
)

// Solver is the direct, in-process Evaluator over the analytical solvers.
// Each call is one batch on a reusable workspace, solved with the
// options lattold's workers use: warm starting, so a run of nearby
// evaluations — exactly what an inverse solve's probe sequence is —
// converges from the previous call's fixed point instead of from scratch.
// A plan on a fresh Solver therefore answers exactly as /v1/plan does on a
// fresh single-worker daemon.
//
// A Solver may be used by one goroutine at a time (the workspace contract).
// MaxError is ignored: every answer is exact (Bound 0).
type Solver struct {
	ws mms.Workspace

	// Batch scratch, reused across calls.
	items []mms.BatchItem
	res   []mms.BatchResult
}

// NewSolver returns a ready Solver. The zero value is also ready.
func NewSolver() *Solver { return &Solver{} }

// EvaluateBatch solves every element as one batch: per element a
// real-system item plus one item per requested ideal system, all handed to
// mms.SolveBatch, whose kernel solves equal-shape lanes in one run, each
// seeded from the workspace's previous converged solution. out must have
// len(cfgs).
func (s *Solver) EvaluateBatch(ctx context.Context, cfgs []Config, opts Options, out []Outcome) {
	if len(out) != len(cfgs) {
		panic("eval: EvaluateBatch: len(out) != len(cfgs)")
	}
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i] = Outcome{Err: err}
		}
		return
	}
	perCfg := 1
	if opts.TolNetwork {
		perCfg++
	}
	if opts.TolMemory {
		perCfg++
	}
	if cap(s.items) < perCfg*len(cfgs) {
		s.items = make([]mms.BatchItem, perCfg*len(cfgs))
		s.res = make([]mms.BatchResult, perCfg*len(cfgs))
	}
	items, res := s.items[:0], s.res[:perCfg*len(cfgs)]
	for i := range cfgs {
		items = append(items, mms.BatchItem{Config: cfgs[i].Model, Solver: cfgs[i].Solver})
		if opts.TolNetwork {
			items = append(items, idealItem(cfgs[i], tolerance.Network, tolerance.ZeroRemote))
		}
		if opts.TolMemory {
			items = append(items, idealItem(cfgs[i], tolerance.Memory, tolerance.ZeroDelay))
		}
	}
	s.items = items
	mms.SolveBatchInto(res, items, mms.SolveOptions{Workspace: &s.ws, WarmStart: true})
	pos := 0
	for i := range cfgs {
		real := res[pos]
		pos++
		o := Outcome{Metrics: Metrics{Metrics: real.Metrics, Solves: 1}, Err: real.Err}
		if opts.TolNetwork {
			ideal := res[pos]
			pos++
			o.Metrics.Solves++
			if o.Err == nil {
				if ideal.Err != nil {
					o.Err = ideal.Err
				} else {
					o.Metrics.TolNetwork = tolerance.Ratio(real.Metrics.Up, ideal.Metrics.Up)
				}
			}
		}
		if opts.TolMemory {
			ideal := res[pos]
			pos++
			o.Metrics.Solves++
			if o.Err == nil {
				if ideal.Err != nil {
					o.Err = ideal.Err
				} else {
					o.Metrics.TolMemory = tolerance.Ratio(real.Metrics.Up, ideal.Metrics.Up)
				}
			}
		}
		if o.Err != nil {
			o.Metrics = Metrics{}
		}
		out[i] = o
	}
}

// idealItem derives the batch item of one ideal system. An invalid
// subsystem/mode pair cannot occur for the fixed pairs used here, so the
// fallback (real config in place of the ideal) is unreachable.
func idealItem(cfg Config, sub tolerance.Subsystem, mode tolerance.IdealMode) mms.BatchItem {
	ideal, err := tolerance.IdealConfig(cfg.Model, sub, mode)
	if err != nil {
		ideal = cfg.Model
	}
	return mms.BatchItem{Config: ideal, Solver: cfg.Solver}
}
