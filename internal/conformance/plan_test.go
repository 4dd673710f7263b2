package conformance

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"lattol/internal/eval"
	"lattol/internal/inverse"
	"lattol/internal/mms"
	"lattol/internal/serve"
	"lattol/internal/sweep"
)

// TestPlanConsistencyGolden runs one inverse problem per golden corpus
// operating point: "the minimum thread count reaching the network tolerance
// this very point achieves". Monotonicity in n_t makes the answer well
// defined and at most the point's own thread count, and targeting a value
// the model attains exactly stresses the boundary case of the bracket
// refinement. Every answer is certified by CheckPlan's independent forward
// solves at the 1e-6 band.
func TestPlanConsistencyGolden(t *testing.T) {
	ctx := context.Background()
	for _, spec := range goldenPlanSpecs(t) {
		cfg := spec.Base
		if err := CheckPlan(ctx, spec, 1e-6); err != nil {
			t.Errorf("%+v: %v", cfg, err)
			continue
		}
		res, err := inverse.Solve(ctx, eval.NewSolver(), spec)
		if err != nil {
			t.Errorf("%+v: %v", cfg, err)
			continue
		}
		if res.Knob > float64(cfg.Threads) {
			t.Errorf("%+v: minimal nt for its own tolerance = %v, want <= %d", cfg, res.Knob, cfg.Threads)
		}
	}
}

// goldenPlanSpecs is one plan per golden corpus point: the minimum thread
// count reaching the network tolerance the point itself attains.
func goldenPlanSpecs(t *testing.T) []inverse.Spec {
	t.Helper()
	ctx := context.Background()
	ev := eval.NewSolver()
	metric, err := inverse.ParseMetric("tol_network")
	if err != nil {
		t.Fatal(err)
	}
	knob, err := mms.ParseParam("nt")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := GoldenConfigs()
	if len(cfgs) != 51 {
		t.Fatalf("golden corpus has %d points, want 51", len(cfgs))
	}
	specs := make([]inverse.Spec, len(cfgs))
	for i, cfg := range cfgs {
		m, err := eval.One(ctx, ev, eval.Config{Model: cfg}, metric.Options())
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		// Target a hair below the attained value: the point's own thread
		// count must then be feasible regardless of the ~1e-13 path
		// difference between warm-started and cold solves, while the target
		// still sits essentially on the boundary.
		specs[i] = inverse.Spec{Base: cfg, Knob: knob, Metric: metric, Target: metric.Read(m) * (1 - 1e-9)}
	}
	return specs
}

// TestPlanAgreementAcrossStack runs every plan two ways, through a fresh
// single-worker serving evaluator (the /v1/plan path) and through
// inverse.Solve on a fresh eval.Solver (the lattolplan path), and demands
// the same answer bit for bit: knob, bracket, achieved value and the probe
// and solve counts, or the same infeasibility diagnosis. The plans are the
// golden-corpus plans plus 300 seeded RandomPlanSpec draws.
func TestPlanAgreementAcrossStack(t *testing.T) {
	ctx := context.Background()
	specs := goldenPlanSpecs(t)
	for i := 0; i < 300; i++ {
		specs = append(specs, RandomPlanSpec(rand.New(rand.NewSource(sweep.DeriveSeed(1, int64(i), 0)))))
	}
	var feasible, infeasible int
	for i, spec := range specs {
		served, serr := servedPlan(ctx, spec)
		direct, derr := inverse.Solve(ctx, eval.NewSolver(), spec)
		var sinf, dinf *inverse.InfeasibleError
		switch {
		case errors.As(serr, &sinf) && errors.As(derr, &dinf):
			infeasible++
			if sinf.Lo != dinf.Lo || sinf.Hi != dinf.Hi || sinf.LoValue != dinf.LoValue || sinf.HiValue != dinf.HiValue {
				t.Errorf("spec %d %+v: infeasible endpoints differ: served %+v, direct %+v", i, spec, sinf, dinf)
			}
		case serr != nil || derr != nil:
			t.Errorf("spec %d %+v: served error %v, direct error %v", i, spec, serr, derr)
		default:
			feasible++
			if served.Knob != direct.Knob || served.Lo != direct.Lo || served.Hi != direct.Hi ||
				served.Achieved != direct.Achieved || served.Probes != direct.Probes || served.Solves != direct.Solves {
				t.Errorf("spec %d %+v: served plan %v in [%v, %v] achieving %v (%d probes, %d solves), "+
					"direct %v in [%v, %v] achieving %v (%d probes, %d solves)", i, spec,
					served.Knob, served.Lo, served.Hi, served.Achieved, served.Probes, served.Solves,
					direct.Knob, direct.Lo, direct.Hi, direct.Achieved, direct.Probes, direct.Solves)
			}
		}
	}
	t.Logf("%d feasible, %d infeasible plans agree", feasible, infeasible)
}

// servedPlan answers spec as /v1/plan does, on a fresh single-worker
// serving evaluator.
func servedPlan(ctx context.Context, spec inverse.Spec) (inverse.Result, error) {
	e := serve.NewEvaluator(serve.Config{Workers: 1})
	defer e.Close()
	cfg := spec.Base
	return e.Plan(ctx, serve.PlanRequest{
		ModelRequest: serve.ModelRequest{
			K: cfg.K, Threads: cfg.Threads, Runlength: cfg.Runlength,
			ContextSwitch: cfg.ContextSwitch, MemoryTime: cfg.MemoryTime,
			SwitchTime: cfg.SwitchTime, PRemote: cfg.PRemote, Psw: cfg.Psw,
			MemoryPorts: cfg.MemoryPorts, SwitchPorts: cfg.SwitchPorts,
		},
		Knob:     spec.Knob.String(),
		Metric:   spec.Metric.String(),
		Target:   spec.Target,
		Relation: spec.Relation.String(),
	})
}

// TestPlanConsistencyRandom is the seeded plan-consistency harness: 500
// randomized inverse problems (knob, metric, relation, target) certified
// against independent forward solves at the 1e-6 band. The nightly workflow
// widens the budget through LATTOL_CONFORMANCE_PLAN_TRIALS.
func TestPlanConsistencyRandom(t *testing.T) {
	opts := PlanDiffOptions{
		Trials: envInt("LATTOL_CONFORMANCE_PLAN_TRIALS", 500),
		Seed:   int64(envInt("LATTOL_CONFORMANCE_SEED", 1)),
	}
	if err := RunPlanDiff(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
}

// TestCheckPlanRejectsWrongAnswers drives CheckPlan's own failure detection:
// a doctored evaluator that misreports the answer must be caught. (A checker
// that cannot fail certifies nothing.)
func TestCheckPlanCatchesInconsistency(t *testing.T) {
	ctx := context.Background()
	spec := inverse.Spec{Base: mms.DefaultConfig()}
	var err error
	if spec.Knob, err = mms.ParseParam("nt"); err != nil {
		t.Fatal(err)
	}
	if spec.Metric, err = inverse.ParseMetric("tol_network"); err != nil {
		t.Fatal(err)
	}
	spec.Target = 0.95

	// Sanity: the honest plan passes.
	if err := CheckPlan(ctx, spec, 1e-6); err != nil {
		t.Fatalf("honest plan failed consistency: %v", err)
	}

	// A hand-built "result" one thread short of the true answer must trip
	// the feasibility check when re-derived through the same margin logic.
	res, err := inverse.Solve(ctx, eval.NewSolver(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh := eval.NewSolver()
	v, err := planForward(ctx, fresh, spec, res.Knob-1)
	if err != nil {
		t.Fatal(err)
	}
	if planMargin(spec, v) >= 0 {
		t.Errorf("metric at answer-1 = %v still satisfies target %v; the plan answer %v was not minimal",
			v, spec.Target, res.Knob)
	}
}

// TestRandomPlanSpecAlwaysValid mirrors TestRandomConfigAlwaysValid for the
// plan domain: every drawn spec must validate.
func TestRandomPlanSpecAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		spec := RandomPlanSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("draw %d: RandomPlanSpec produced invalid spec %+v: %v", i, spec, err)
		}
	}
}
