package inverse

import (
	"context"
	"math"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/validate"
)

// Solve runs one inverse plan over ev: the lockstep driver of Frontier over
// a single planner, so each probe is a one-config batch. A warm-starting
// evaluator (eval.Solver, or the serving layer's cached evaluator) continues
// each probe from the previous fixed point.
//
// Infeasible targets return *InfeasibleError; invalid specs return
// field-named errors (*validate.FieldError).
func Solve(ctx context.Context, ev eval.Evaluator, spec Spec) (Result, error) {
	p, err := newPlanner(spec)
	if err != nil {
		return Result{}, err
	}
	if err := drive(ctx, ev, spec.Metric.Options(), []*planner{p}); err != nil {
		return Result{}, err
	}
	return p.finish()
}

// FrontierSpec is the two-knob version of a plan: re-solve the Spec at every
// value of a second swept parameter. The result traces the feasibility
// frontier — e.g. "threads needed for tolerance ≥ 0.95, as p_remote grows".
type FrontierSpec struct {
	Spec
	// Sweep is the second parameter (required; must differ from Knob).
	Sweep mms.Param
	// From, To, Steps define the swept grid (see mms.Param.Grid).
	From, To float64
	Steps    int
}

// maxFrontierSteps bounds a single frontier request.
const maxFrontierSteps = 4096

// Validate reports the first invalid field as a field-named error.
func (fs FrontierSpec) Validate() error {
	if fs.Sweep.String() == "" {
		return validate.Fieldf("inverse.FrontierSpec", "Sweep", "required, want one of %s", paramNameList())
	}
	if fs.Sweep.String() == fs.Knob.String() {
		return validate.Fieldf("inverse.FrontierSpec", "Sweep", "= %q, must differ from Knob", fs.Sweep)
	}
	if fs.Steps < 1 || fs.Steps > maxFrontierSteps {
		return validate.Fieldf("inverse.FrontierSpec", "Steps", "= %d, want in [1, %d]", fs.Steps, maxFrontierSteps)
	}
	if math.IsNaN(fs.From) || math.IsInf(fs.From, 0) {
		return validate.Fieldf("inverse.FrontierSpec", "From", "= %v, want finite", fs.From)
	}
	if math.IsNaN(fs.To) || math.IsInf(fs.To, 0) {
		return validate.Fieldf("inverse.FrontierSpec", "To", "= %v, want finite", fs.To)
	}
	return fs.Spec.Validate()
}

// FrontierPoint is one swept point of a frontier. Points fail independently:
// a sweep value whose plan is infeasible (or invalid) carries its error
// without affecting its neighbors.
type FrontierPoint struct {
	// Sweep is the swept parameter's value at this point.
	Sweep float64
	// Result is the plan's answer at this point; valid when Err is nil.
	Result Result
	// Err is the per-point failure (e.g. *InfeasibleError).
	Err error
}

// Frontier solves the inverse plan at every swept value. The points advance
// in lockstep rounds — each round gathers every unfinished point's next
// probe into one EvaluateBatch call (one batch-kernel call on the analytical
// evaluators) — so a frontier costs rounds, not points × probes, of kernel
// dispatches.
func Frontier(ctx context.Context, ev eval.Evaluator, fs FrontierSpec) ([]FrontierPoint, error) {
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	values := fs.Sweep.Grid(fs.From, fs.To, fs.Steps)
	pts := make([]FrontierPoint, len(values))
	planners := make([]*planner, len(values))
	for i, v := range values {
		pts[i].Sweep = v
		sp := fs.Spec
		fs.Sweep.Apply(&sp.Base, v)
		p, err := newPlanner(sp)
		if err != nil {
			pts[i].Err = err
			continue
		}
		planners[i] = p
	}
	if err := drive(ctx, ev, fs.Spec.Metric.Options(), planners); err != nil {
		return nil, err
	}
	for i, p := range planners {
		if p != nil {
			pts[i].Result, pts[i].Err = p.finish()
		}
	}
	return pts, nil
}

// drive runs the planners (nil entries are skipped) to completion in
// lockstep rounds: each round is one EvaluateBatch call holding every
// unfinished planner's next probe. It fails only when ctx expires.
func drive(ctx context.Context, ev eval.Evaluator, opts eval.Options, planners []*planner) error {
	var (
		idx  []int
		cfgs []eval.Config
		out  []eval.Outcome
	)
	for {
		idx, cfgs = idx[:0], cfgs[:0]
		for i, p := range planners {
			if p != nil && !p.done() {
				idx = append(idx, i)
				cfgs = append(cfgs, p.config())
			}
		}
		if len(idx) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if cap(out) < len(cfgs) {
			out = make([]eval.Outcome, len(cfgs))
		}
		out = out[:len(cfgs)]
		ev.EvaluateBatch(ctx, cfgs, opts, out)
		for j, i := range idx {
			planners[i].observe(out[j].Metrics, out[j].Err)
		}
	}
}

// paramNameList joins the sweepable parameter names for error messages.
func paramNameList() string {
	names := mms.ParamNames()
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
