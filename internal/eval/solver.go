package eval

import (
	"context"

	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/tolerance"
)

// Solver is the direct, in-process Evaluator over the analytical solvers.
// It keeps one reusable workspace per solve stream (real system, ZeroRemote
// ideal, ZeroDelay ideal) with warm starting and Anderson acceleration always
// on, so a run of nearby evaluations — exactly what an inverse solve's probe
// sequence is — converges from continuation guesses instead of from scratch.
// Ideal-system answers are memoized on their full configuration: when a probe
// sequence varies a knob the ideal system does not depend on (e.g. p_remote
// under the ZeroRemote ideal), the ideal side costs one solve total.
//
// A Solver may be used by one goroutine at a time (the workspace contract).
// MaxError is ignored: every answer is exact (Bound 0).
type Solver struct {
	real, idealNet, idealMem stream

	// Ideal-result memos, one per stream: valid when ok and the stream's
	// last ideal configuration equals the one requested.
	memoNetCfg, memoMemCfg Config
	memoNet, memoMem       mms.Metrics
	memoNetOK, memoMemOK   bool

	// Batch scratch (EvaluateBatch), reused across calls.
	items []mms.BatchItem
	res   []mms.BatchResult
}

// NewSolver returns a ready Solver. The zero value is also ready.
func NewSolver() *Solver { return &Solver{} }

// stream is one continuation chain: a reusable workspace plus the last
// elaborated model, rebased (mms.Model.Rebase) instead of rebuilt when
// consecutive configurations differ only in a visit-preserving knob.
type stream struct {
	ws    mms.Workspace
	model *mms.Model
}

// solveOpts are the per-stream solve options: warm-started, accelerated —
// the same fixed point as a plain solve (see mva.Accel).
func solveOpts(ws *mms.Workspace, solver mms.Solver) mms.SolveOptions {
	return mms.SolveOptions{Solver: solver, Workspace: ws, WarmStart: true, Accel: mva.AccelAnderson}
}

// solve elaborates (or rebases) and solves one configuration on the stream.
func (st *stream) solve(cfg mms.Config, solver mms.Solver) (mms.Metrics, error) {
	if st.model != nil {
		if m, ok := st.model.Rebase(cfg); ok {
			st.model = m
			return m.Solve(solveOpts(&st.ws, solver))
		}
	}
	model, err := mms.Build(cfg)
	if err != nil {
		return mms.Metrics{}, err
	}
	st.model = model
	return model.Solve(solveOpts(&st.ws, solver))
}

// Evaluate solves the real system and any requested ideal systems.
func (s *Solver) Evaluate(ctx context.Context, cfg Config, opts Options) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	real, err := s.real.solve(cfg.Model, cfg.Solver)
	if err != nil {
		return Metrics{}, err
	}
	out := Metrics{Metrics: real, Solves: 1}
	if opts.TolNetwork {
		ideal, err := s.idealFor(ctx, cfg, tolerance.Network, tolerance.ZeroRemote, &out)
		if err != nil {
			return Metrics{}, err
		}
		out.TolNetwork = tolerance.Ratio(real.Up, ideal.Up)
	}
	if opts.TolMemory {
		ideal, err := s.idealFor(ctx, cfg, tolerance.Memory, tolerance.ZeroDelay, &out)
		if err != nil {
			return Metrics{}, err
		}
		out.TolMemory = tolerance.Ratio(real.Up, ideal.Up)
	}
	return out, nil
}

// idealFor returns the ideal-system metrics for one subsystem, from the memo
// when the ideal configuration is unchanged since the stream's last solve.
func (s *Solver) idealFor(ctx context.Context, cfg Config, sub tolerance.Subsystem, mode tolerance.IdealMode, out *Metrics) (mms.Metrics, error) {
	idealModel, err := tolerance.IdealConfig(cfg.Model, sub, mode)
	if err != nil {
		return mms.Metrics{}, err
	}
	ideal := Config{Model: idealModel, Solver: cfg.Solver}
	ws, memoCfg, memo, memoOK := &s.idealNet, &s.memoNetCfg, &s.memoNet, &s.memoNetOK
	if sub == tolerance.Memory {
		ws, memoCfg, memo, memoOK = &s.idealMem, &s.memoMemCfg, &s.memoMem, &s.memoMemOK
	}
	if *memoOK && *memoCfg == ideal {
		return *memo, nil
	}
	if err := ctx.Err(); err != nil {
		return mms.Metrics{}, err
	}
	met, err := ws.solve(idealModel, cfg.Solver)
	if err != nil {
		return mms.Metrics{}, err
	}
	*memoCfg, *memo, *memoOK = ideal, met, true
	out.Solves++
	return met, nil
}

// EvaluateBatch solves every element as one lockstep batch: per element a
// real-system item plus one item per requested ideal system, all handed to
// mms.SolveBatch, whose kernel iterates equal-shape lanes in lockstep with
// continuation seeding between them. out must have len(cfgs).
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
	mms.SolveBatchInto(res, items, mms.SolveOptions{Workspace: &s.real.ws, WarmStart: true})
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
