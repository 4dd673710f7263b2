package inverse

import (
	"context"
	"errors"
	"math"
	"testing"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/validate"
)

func defaultSpec() Spec {
	knob, err := mms.ParseParam("nt")
	if err != nil {
		panic(err)
	}
	metric, err := ParseMetric("tol_network")
	if err != nil {
		panic(err)
	}
	return Spec{Base: mms.DefaultConfig(), Knob: knob, Metric: metric, Target: 0.95, Relation: AtLeast}
}

func mustParam(t *testing.T, name string) mms.Param {
	t.Helper()
	p, err := mms.ParseParam(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustMetric(t *testing.T, name string) Metric {
	t.Helper()
	m, err := ParseMetric(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// forward evaluates the spec's metric at one knob value, independently of
// the planner.
func forward(t *testing.T, spec Spec, knob float64) float64 {
	t.Helper()
	m, err := eval.One(context.Background(), eval.NewSolver(), spec.configAt(knob), spec.Metric.Options())
	if err != nil {
		t.Fatalf("forward solve at %s=%v: %v", spec.Knob, knob, err)
	}
	return spec.Metric.Read(m)
}

// TestSolveThreadsForTolerance is the headline plan: the minimum thread
// count reaching network tolerance 0.95 on the default system. The answer is
// verified against forward solves on both sides of the boundary.
func TestSolveThreadsForTolerance(t *testing.T) {
	spec := defaultSpec()
	res, err := Solve(context.Background(), eval.NewSolver(), spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Binding != Interior {
		t.Fatalf("Binding = %v, want interior", res.Binding)
	}
	if res.Objective != Minimize {
		t.Errorf("Objective = %v, want min (tolerance grows with threads)", res.Objective)
	}
	nt := res.Knob
	if nt != math.Trunc(nt) || nt < 2 {
		t.Fatalf("Knob = %v, want an integer >= 2", nt)
	}
	if at := forward(t, spec, nt); at < spec.Target {
		t.Errorf("metric(%v) = %v, want >= %v", nt, at, spec.Target)
	}
	if below := forward(t, spec, nt-1); below >= spec.Target {
		t.Errorf("metric(%v) = %v, want < %v (answer not minimal)", nt-1, below, spec.Target)
	}
	if fwd := forward(t, spec, nt); math.Abs(res.Achieved-fwd) > 1e-9*math.Abs(fwd) {
		t.Errorf("Achieved = %v, forward = %v", res.Achieved, fwd)
	}
	if res.Probes != len(res.Trace) || res.Probes < 2 {
		t.Errorf("Probes = %d, len(Trace) = %d", res.Probes, len(res.Trace))
	}
	if res.Hi-res.Lo != 1 {
		t.Errorf("final bracket [%v, %v], want width 1", res.Lo, res.Hi)
	}
	t.Logf("answer nt=%v after %d probes (%d solves)", nt, res.Probes, res.Solves)
}

// TestSolveCriticalPRemote finds the maximum p_remote keeping U_p at 0.8 —
// the paper's critical-p_remote question — and cross-checks the continuous
// bracket against forward solves just outside it.
func TestSolveCriticalPRemote(t *testing.T) {
	spec := defaultSpec()
	spec.Knob = mustParam(t, "premote")
	spec.Metric = mustMetric(t, "u_p")
	spec.Target = 0.8
	res, err := Solve(context.Background(), eval.NewSolver(), spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Binding != Interior {
		t.Fatalf("Binding = %v, want interior", res.Binding)
	}
	if res.Objective != Maximize {
		t.Errorf("Objective = %v, want max (U_p falls with p_remote)", res.Objective)
	}
	if res.Knob <= 0 || res.Knob >= 1 {
		t.Fatalf("Knob = %v, want in (0,1)", res.Knob)
	}
	if at := forward(t, spec, res.Knob); at < spec.Target {
		t.Errorf("u_p(%v) = %v, want >= %v", res.Knob, at, spec.Target)
	}
	eps := 1e-4
	if beyond := forward(t, spec, res.Knob+eps); beyond >= spec.Target {
		t.Errorf("u_p(%v) = %v, want < %v (answer not maximal)", res.Knob+eps, beyond, spec.Target)
	}
	if w := res.Hi - res.Lo; w > 2e-6 {
		t.Errorf("final bracket width %v, want <= KnobTol scale", w)
	}
}

// TestSolveAtMost exercises the AtMost relation with an inferred (unproven)
// direction: the maximum thread count keeping observed network latency at
// most a bound.
func TestSolveAtMost(t *testing.T) {
	spec := defaultSpec()
	spec.Metric = mustMetric(t, "s_obs")
	spec.Relation = AtMost
	base := forward(t, spec, 1)
	limit := forward(t, spec, 64)
	if base >= limit {
		t.Skipf("s_obs not increasing on this range (%v -> %v)", base, limit)
	}
	spec.Target = (base + limit) / 2
	res, err := Solve(context.Background(), eval.NewSolver(), spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Objective != Maximize {
		t.Errorf("Objective = %v, want max (s_obs grows with threads, relation <=)", res.Objective)
	}
	if at := forward(t, spec, res.Knob); at > spec.Target {
		t.Errorf("s_obs(%v) = %v, want <= %v", res.Knob, at, spec.Target)
	}
	if beyond := forward(t, spec, res.Knob+1); beyond <= spec.Target {
		t.Errorf("s_obs(%v) = %v, want > %v (answer not maximal)", res.Knob+1, beyond, spec.Target)
	}
}

// TestSolveNotBinding verifies the degenerate cases where the whole interval
// satisfies the target: the answer is the objective's endpoint.
func TestSolveNotBinding(t *testing.T) {
	spec := defaultSpec()
	spec.Target = 0 // tolerance >= 0 holds everywhere
	res, err := Solve(context.Background(), eval.NewSolver(), spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Binding != AtLo || res.Knob != 1 {
		t.Errorf("Binding = %v, Knob = %v; want at-lo at 1", res.Binding, res.Knob)
	}
	if res.Probes != 1 {
		t.Errorf("Probes = %d, want 1 (the proven direction makes one endpoint decisive)", res.Probes)
	}

	// Maximize side: u_p >= 0 along premote holds everywhere; the max
	// feasible premote is the high endpoint.
	spec = defaultSpec()
	spec.Knob = mustParam(t, "premote")
	spec.Metric = mustMetric(t, "u_p")
	spec.Target = 0
	res, err = Solve(context.Background(), eval.NewSolver(), spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Binding != AtHi || res.Knob != 1 {
		t.Errorf("Binding = %v, Knob = %v; want at-hi at 1", res.Binding, res.Knob)
	}
}

// TestSolveInfeasible verifies the infeasible diagnosis: network tolerance
// cannot exceed 1.
func TestSolveInfeasible(t *testing.T) {
	spec := defaultSpec()
	spec.Target = 1.01
	_, err := Solve(context.Background(), eval.NewSolver(), spec)
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want *InfeasibleError", err)
	}
	if inf.Knob != "nt" || inf.Metric != "tol_network" || inf.Target != 1.01 {
		t.Errorf("error fields: %+v", inf)
	}
}

// TestSolveProbeBudget verifies the budget is a hard stop.
func TestSolveProbeBudget(t *testing.T) {
	spec := defaultSpec()
	spec.MaxProbes = 3
	spec.Lo, spec.Hi = 1, 16384
	if _, err := Solve(context.Background(), eval.NewSolver(), spec); err == nil {
		t.Fatal("Solve with 3-probe budget succeeded")
	}
}

// TestSolveSeedEfficiency pins the continuation claim deterministically: the
// seeded, warm-started headline plan answers in few probes, and its total
// fixed-point iterations stay within 5x a cold tolerance solve's.
func TestSolveSeedEfficiency(t *testing.T) {
	spec := defaultSpec()
	ev := eval.NewSolver()
	res, err := Solve(context.Background(), ev, spec)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Probes > 12 {
		t.Errorf("Probes = %d, want <= 12 for the seeded default plan", res.Probes)
	}
	cold, err := eval.One(context.Background(), eval.NewSolver(), spec.configAt(float64(spec.Base.Threads)), spec.Metric.Options())
	if err != nil {
		t.Fatal(err)
	}
	// Iterations of the real-system solves along the plan, from a replay on
	// a fresh warm-started evaluator (the trace does not carry iterations).
	var planIters int
	replay := eval.NewSolver()
	for _, pr := range res.Trace {
		m, err := eval.One(context.Background(), replay, spec.configAt(pr.Knob), spec.Metric.Options())
		if err != nil {
			t.Fatal(err)
		}
		planIters += m.Iterations
	}
	if cold.Iterations > 0 && planIters > 10*cold.Iterations {
		t.Errorf("plan iterations %d exceed 10x one cold solve's (%d)", planIters, cold.Iterations)
	}
	t.Logf("plan: %d probes, %d replay iterations; cold solve: %d iterations", res.Probes, planIters, cold.Iterations)
}

// TestSolveValidation verifies the field-named errors.
func TestSolveValidation(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Spec)
		field string
	}{
		{"missing-knob", func(s *Spec) { s.Knob = mms.Param{} }, "Knob"},
		{"missing-metric", func(s *Spec) { s.Metric = Metric{} }, "Metric"},
		{"nan-target", func(s *Spec) { s.Target = math.NaN() }, "Target"},
		{"bad-relation", func(s *Spec) { s.Relation = Relation(7) }, "Relation"},
		{"inverted-bracket", func(s *Spec) { s.Lo, s.Hi = 8, 2 }, "Lo"},
		{"out-of-domain", func(s *Spec) { s.Lo, s.Hi = 1, 1e9 }, "Lo"},
		{"neg-tol", func(s *Spec) { s.KnobTol = -1 }, "KnobTol"},
		{"neg-budget", func(s *Spec) { s.MaxProbes = -1 }, "MaxProbes"},
		{"premote-k1", func(s *Spec) {
			s.Base.K = 1
			s.Base.PRemote = 0
			s.Knob = mustParamPanic("premote")
		}, "Knob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := defaultSpec()
			tc.mut(&spec)
			_, err := Solve(context.Background(), eval.NewSolver(), spec)
			if f := validate.Field(err); f != tc.field {
				t.Errorf("err = %v, field %q, want field %q", err, f, tc.field)
			}
		})
	}
}

func mustParamPanic(name string) mms.Param {
	p, err := mms.ParseParam(name)
	if err != nil {
		panic(err)
	}
	return p
}

// TestFrontier maps "threads needed for tolerance >= 0.9 as p_remote grows"
// and checks each point against an independent single-plan Solve plus the
// paper-level expectation that the required thread count never falls as the
// remote fraction rises.
func TestFrontier(t *testing.T) {
	// Sweep within the processor-busy/latency-limited regimes: beyond the
	// Eq. 5 saturation p_remote (0.25 at R=10) no thread count reaches 0.9.
	fs := FrontierSpec{Spec: defaultSpec(), Sweep: mustParam(t, "premote"), From: 0.05, To: 0.2, Steps: 4}
	fs.Target = 0.9
	pts, err := Frontier(context.Background(), eval.NewSolver(), fs)
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	if len(pts) != 4 {
		t.Fatalf("len(points) = %d, want 4", len(pts))
	}
	prev := 0.0
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("point %v: %v", pt.Sweep, pt.Err)
		}
		sp := fs.Spec
		fs.Sweep.Apply(&sp.Base, pt.Sweep)
		single, err := Solve(context.Background(), eval.NewSolver(), sp)
		if err != nil {
			t.Fatalf("single plan at %v: %v", pt.Sweep, err)
		}
		if single.Knob != pt.Result.Knob {
			t.Errorf("point %v: frontier %v != single plan %v", pt.Sweep, pt.Result.Knob, single.Knob)
		}
		if pt.Result.Knob < prev {
			t.Errorf("frontier not monotone: nt(%v) = %v after %v", pt.Sweep, pt.Result.Knob, prev)
		}
		prev = pt.Result.Knob
	}
}

// TestFrontierPointErrors verifies a per-point infeasibility doesn't fail
// its neighbors: at high p_remote a very high tolerance target is
// unreachable even with many threads.
func TestFrontierPointErrors(t *testing.T) {
	fs := FrontierSpec{Spec: defaultSpec(), Sweep: mustParam(t, "premote"), From: 0.05, To: 0.95, Steps: 4}
	fs.Target = 0.999
	pts, err := Frontier(context.Background(), eval.NewSolver(), fs)
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	var ok, infeasible int
	for _, pt := range pts {
		switch {
		case pt.Err == nil:
			ok++
		default:
			var inf *InfeasibleError
			if errors.As(pt.Err, &inf) {
				infeasible++
			} else {
				t.Errorf("point %v: unexpected error %v", pt.Sweep, pt.Err)
			}
		}
	}
	if ok == 0 {
		t.Error("no feasible points (expected low p_remote to succeed)")
	}
	t.Logf("%d feasible, %d infeasible points", ok, infeasible)
}

// TestFrontierValidation verifies the frontier-specific field errors.
func TestFrontierValidation(t *testing.T) {
	base := FrontierSpec{Spec: defaultSpec(), Sweep: mustParamPanic("premote"), From: 0.1, To: 0.4, Steps: 4}
	cases := []struct {
		name  string
		mut   func(*FrontierSpec)
		field string
	}{
		{"missing-sweep", func(f *FrontierSpec) { f.Sweep = mms.Param{} }, "Sweep"},
		{"sweep-is-knob", func(f *FrontierSpec) { f.Sweep = mustParamPanic("nt") }, "Sweep"},
		{"zero-steps", func(f *FrontierSpec) { f.Steps = 0 }, "Steps"},
		{"nan-from", func(f *FrontierSpec) { f.From = math.NaN() }, "From"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := base
			tc.mut(&fs)
			_, err := Frontier(context.Background(), eval.NewSolver(), fs)
			if f := validate.Field(err); f != tc.field {
				t.Errorf("err = %v, field %q, want %q", err, f, tc.field)
			}
		})
	}
}

// BenchmarkPlanThreadsForTolerance measures the headline inverse solve with
// warm-started continuation; probes/op and solves/op are reported so the
// "a root-find costs a few cold solves" claim stays measurable against
// BenchmarkColdToleranceSolve.
func BenchmarkPlanThreadsForTolerance(b *testing.B) {
	spec := defaultSpec()
	ev := eval.NewSolver()
	ctx := context.Background()
	var probes, solves int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(ctx, ev, spec)
		if err != nil {
			b.Fatal(err)
		}
		probes, solves = res.Probes, res.Solves
	}
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(solves), "solves/op")
}

// BenchmarkColdToleranceSolve is the comparator: one tolerance evaluation on
// a fresh evaluator (no warm start to inherit).
func BenchmarkColdToleranceSolve(b *testing.B) {
	spec := defaultSpec()
	cfg := spec.configAt(float64(spec.Base.Threads))
	opts := spec.Metric.Options()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.One(ctx, eval.NewSolver(), cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontier measures the lockstep frontier path.
func BenchmarkFrontier(b *testing.B) {
	fs := FrontierSpec{Spec: defaultSpec(), Sweep: mustParamPanic("premote"), From: 0.1, To: 0.4, Steps: 8}
	fs.Target = 0.9
	ev := eval.NewSolver()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Frontier(ctx, ev, fs); err != nil {
			b.Fatal(err)
		}
	}
}
