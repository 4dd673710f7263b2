package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lattol/internal/eval"
	"lattol/internal/inverse"
	"lattol/internal/mms"
	"lattol/internal/sweep"
)

// PlanDiffOptions configures a plan-consistency run: randomized inverse
// problems whose answers are re-verified against independent forward solves.
type PlanDiffOptions struct {
	// Trials is the number of randomized plans. Default 500.
	Trials int
	// Seed is the base seed; each trial derives its own RNG via
	// sweep.DeriveSeed, so one failure line reproduces locally. Default 1.
	Seed int64
	// Band is the relative agreement band between the plan's reported values
	// and the fresh forward solves. Default 1e-6.
	Band float64
}

func (o PlanDiffOptions) withDefaults() PlanDiffOptions {
	if o.Trials <= 0 {
		o.Trials = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Band <= 0 {
		o.Band = 1e-6
	}
	return o
}

// planMargin returns how far a metric value is inside the target relation:
// positive satisfies, negative violates, in absolute metric units.
func planMargin(spec inverse.Spec, v float64) float64 {
	if spec.Relation == inverse.AtMost {
		return spec.Target - v
	}
	return v - spec.Target
}

// planForward evaluates the spec's metric at one knob value on ev.
func planForward(ctx context.Context, ev eval.Evaluator, spec inverse.Spec, knob float64) (float64, error) {
	cfg := spec.Base
	spec.Knob.Apply(&cfg, knob)
	m, err := eval.One(ctx, ev, eval.Config{Model: cfg, Solver: spec.Solver}, spec.Metric.Options())
	if err != nil {
		return 0, fmt.Errorf("forward solve at %s=%v: %w", spec.Knob, knob, err)
	}
	return spec.Metric.Read(m), nil
}

// CheckPlan solves one inverse problem and certifies the answer against
// independent forward solves on a fresh evaluator (so the plan's warm-started
// continuation path cannot vouch for itself):
//
//   - An answered plan's knob value must be feasible: the fresh metric value
//     there satisfies the relation within band, and agrees with the reported
//     Achieved within band.
//   - An Interior answer must be extremal: the final bracket's other end —
//     the nearest probed knob value on the infeasible side, within the
//     convergence width of the answer — must NOT satisfy the relation by
//     more than band. The bracket width itself must be within the
//     convergence tolerance (1 for integer knobs).
//   - AtLo/AtHi answers must sit exactly on the search endpoint.
//   - An *inverse.InfeasibleError must be truthful: fresh solves at both
//     endpoints must miss the target (within band), and the endpoint values
//     it reports must match them.
//
// The scale of every band comparison is max(1, |target|): the plannable
// metrics are O(1) ratios or latencies in cycle units, and an absolute floor
// keeps targets near zero checkable.
func CheckPlan(ctx context.Context, spec inverse.Spec, band float64) error {
	return CheckPlanOn(ctx, eval.NewSolver(), eval.NewSolver(), spec, band)
}

// CheckPlanOn is CheckPlan parameterized by the evaluation backend: the plan
// is solved on planEv and certified against forward evaluations on fresh —
// which must be an independent instance of the same backend, so the plan's
// warm-started or memoized state cannot vouch for itself. Any deterministic
// backend works: the analytical solvers (CheckPlan), or a replication-backed
// simulated evaluator, whose per-configuration seed derivation makes a fresh
// instance reproduce the plan's evaluations bit for bit.
func CheckPlanOn(ctx context.Context, planEv, fresh eval.Evaluator, spec inverse.Spec, band float64) error {
	if band <= 0 {
		band = 1e-6
	}
	scale := math.Max(1, math.Abs(spec.Target))
	tol := band * scale

	res, err := inverse.Solve(ctx, planEv, spec)
	var inf *inverse.InfeasibleError
	if errors.As(err, &inf) {
		for _, end := range []struct {
			knob, reported float64
		}{{inf.Lo, inf.LoValue}, {inf.Hi, inf.HiValue}} {
			v, ferr := planForward(ctx, fresh, spec, end.knob)
			if ferr != nil {
				return ferr
			}
			if relErr(v, end.reported) > band {
				return violatef("plan-infeasible", "endpoint %s=%v: reported %v, fresh forward solve %v",
					spec.Knob, end.knob, end.reported, v)
			}
			if planMargin(spec, v) > tol {
				return violatef("plan-infeasible", "reported infeasible, but %s=%v satisfies %s %s %v (fresh value %v)",
					spec.Knob, end.knob, spec.Metric, spec.Relation, spec.Target, v)
			}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}

	v, ferr := planForward(ctx, fresh, spec, res.Knob)
	if ferr != nil {
		return ferr
	}
	if relErr(v, res.Achieved) > band {
		return violatef("plan-answer", "achieved %v at %s=%v, fresh forward solve %v",
			res.Achieved, spec.Knob, res.Knob, v)
	}
	if planMargin(spec, v) < -tol {
		return violatef("plan-answer", "answer %s=%v misses %s %s %v: fresh value %v",
			spec.Knob, res.Knob, spec.Metric, spec.Relation, spec.Target, v)
	}

	switch res.Binding {
	case inverse.Interior:
		width := res.Hi - res.Lo
		maxWidth := spec.KnobTol
		if maxWidth == 0 {
			maxWidth = 1e-6
		}
		// The planner judges convergence relative to the search interval's
		// scale (see Spec.Bracket), not the final bracket's.
		slo, shi := spec.Bracket()
		maxWidth *= math.Max(1, math.Max(math.Abs(slo), math.Abs(shi)))
		if spec.Knob.Integer() {
			maxWidth = 1
		}
		if width > maxWidth*(1+1e-12) {
			return violatef("plan-bracket", "final bracket [%v, %v] wider than the convergence tolerance %v",
				res.Lo, res.Hi, maxWidth)
		}
		// The bracket end that is not the answer is the nearest probed knob
		// value on the infeasible side: the answer is extremal only if the
		// target genuinely fails there.
		other := res.Lo
		if other == res.Knob {
			other = res.Hi
		}
		ov, ferr := planForward(ctx, fresh, spec, other)
		if ferr != nil {
			return ferr
		}
		if planMargin(spec, ov) > tol {
			return violatef("plan-extremal", "answer %s=%v is not extremal: %s=%v also satisfies %s %s %v (fresh value %v)",
				spec.Knob, res.Knob, spec.Knob, other, spec.Metric, spec.Relation, spec.Target, ov)
		}
	case inverse.AtLo:
		if res.Knob != res.Lo {
			return violatef("plan-binding", "binding at-lo but answer %v != lo %v", res.Knob, res.Lo)
		}
	case inverse.AtHi:
		if res.Knob != res.Hi {
			return violatef("plan-binding", "binding at-hi but answer %v != hi %v", res.Knob, res.Hi)
		}
	}
	return nil
}

// RandomPlanSpec draws one randomized inverse problem over the conformance
// configuration domain: a RandomConfig base, a knob/metric pair with a proven
// monotone direction (the pairs /v1/plan traffic actually uses), either
// relation, and a target spanning feasible, boundary and infeasible regimes.
func RandomPlanSpec(rng *rand.Rand) inverse.Spec {
	cfg := RandomConfig(rng)
	knobs := []string{"nt", "r"}
	if cfg.K > 1 {
		knobs = append(knobs, "premote")
	}
	knob, err := mms.ParseParam(knobs[rng.Intn(len(knobs))])
	if err != nil {
		panic(err)
	}
	spec := inverse.Spec{Base: cfg, Knob: knob}
	if rng.Intn(2) == 0 {
		spec.Metric, _ = inverse.ParseMetric("u_p")
		// U_p spans (0, 1]; the band [0.05, 1.02] covers easy targets, tight
		// ones, and impossible ones (> 1).
		spec.Target = 0.05 + 0.97*rng.Float64()
	} else {
		spec.Metric, _ = inverse.ParseMetric("tol_network")
		spec.Target = 0.3 + 0.75*rng.Float64()
	}
	if rng.Intn(4) == 0 {
		spec.Relation = inverse.AtMost
	}
	return spec
}

// PlanFailure reports one failed plan-consistency trial with the seed
// coordinates that reproduce it.
type PlanFailure struct {
	Seed  int64
	Trial int
	Spec  inverse.Spec
	Err   error
}

func (f *PlanFailure) Error() string {
	return fmt.Sprintf("conformance: plan trial %d (seed %d) failed on {base %+v, %s for %s %s %v}: %v",
		f.Trial, f.Seed, f.Spec.Base, f.Spec.Knob, f.Spec.Metric, f.Spec.Relation, f.Spec.Target, f.Err)
}

func (f *PlanFailure) Unwrap() error { return f.Err }

// RunPlanDiff runs the plan-consistency harness: opts.Trials randomized
// inverse problems fanned out over the sweep runner, each certified with
// CheckPlan. Failures are reported as *PlanFailure (joined when several
// trials fail).
func RunPlanDiff(ctx context.Context, opts PlanDiffOptions) error {
	opts = opts.withDefaults()
	trials := make([]int, opts.Trials)
	for i := range trials {
		trials[i] = i
	}
	_, err := sweep.Run(ctx, trials, sweep.Options{}, func(trial int) (struct{}, error) {
		rng := rand.New(rand.NewSource(sweep.DeriveSeed(opts.Seed, int64(trial), 77)))
		spec := RandomPlanSpec(rng)
		if err := CheckPlan(ctx, spec, opts.Band); err != nil {
			return struct{}{}, &PlanFailure{Seed: opts.Seed, Trial: trial, Spec: spec, Err: err}
		}
		return struct{}{}, nil
	})
	return err
}
