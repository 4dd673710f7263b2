package mms

import (
	"math"
	"testing"

	"lattol/internal/validate"
)

// batchCompareMetrics asserts two metric sets agree within relTol on every
// measure (|a-b| / max(|a|,|b|,1)).
func batchCompareMetrics(t *testing.T, label string, got, want Metrics, relTol float64) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Up", got.Up, want.Up},
		{"LambdaProc", got.LambdaProc, want.LambdaProc},
		{"LambdaNet", got.LambdaNet, want.LambdaNet},
		{"SObs", got.SObs, want.SObs},
		{"LObs", got.LObs, want.LObs},
		{"CycleTime", got.CycleTime, want.CycleTime},
		{"MemUtilization", got.MemUtilization, want.MemUtilization},
		{"OutUtilization", got.OutUtilization, want.OutUtilization},
		{"InUtilization", got.InUtilization, want.InUtilization},
	} {
		scale := math.Max(math.Max(math.Abs(c.got), math.Abs(c.want)), 1)
		if math.Abs(c.got-c.want)/scale > relTol {
			t.Errorf("%s: %s = %v, want %v (rel %g)", label, c.name, c.got, c.want,
				math.Abs(c.got-c.want)/scale)
		}
	}
}

// TestSolveBatchMatchesSolve pins SolveBatch to item-by-item Model.Solve over
// a mixed batch: two station shapes (K=2 and K=4), varying thread counts and
// remote fractions, a multiported point, and items solved one by one
// (FullAMVA and ExactMVA). The symmetric items, seeded from one another,
// run against cold Model.Solve calls on the same kernel. Both sides
// iterate to a 1e-12 residual and must agree at 1e-9.
func TestSolveBatchMatchesSolve(t *testing.T) {
	mk := func(k, nt int, p float64) Config {
		cfg := DefaultConfig()
		cfg.K = k
		cfg.Threads = nt
		cfg.PRemote = p
		return cfg
	}
	multi := mk(4, 6, 0.5)
	multi.MemoryPorts = 2
	multi.SwitchPorts = 2
	items := []BatchItem{
		{Config: mk(4, 8, 0.2)},
		{Config: mk(2, 3, 0.4)},
		{Config: mk(4, 1, 0.05)},
		{Config: mk(2, 1, 0.9), Solver: ExactMVA},
		{Config: mk(4, 10, 0.7)},
		{Config: mk(2, 5, 0.2), Solver: FullAMVA},
		{Config: multi},
		{Config: mk(4, 8, 0)}, // no remote accesses at all
	}
	opts := SolveOptions{Tolerance: 1e-12}
	results := SolveBatch(items, opts)
	if len(results) != len(items) {
		t.Fatalf("results = %d, want %d", len(results), len(items))
	}
	for i, it := range items {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		model, err := Build(it.Config)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Solve(SolveOptions{Solver: it.Solver, Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("Model.Solve item %d: %v", i, err)
		}
		batchCompareMetrics(t, "item", results[i].Metrics, want, 1e-9)
		if it.Solver != ExactMVA && results[i].Metrics.Iterations <= 0 {
			t.Errorf("item %d: Iterations = %d, want > 0", i, results[i].Metrics.Iterations)
		}
	}
}

// TestSolveBatchSeededLaneConverges is the regression test of a seeded
// kernel solve that stalled: seeded from the nt = 261 solution, the
// nt = 262 point cycled between Aitken extrapolants until the iteration
// cap, while a cold solve converges in a few hundred iterations. Both the
// two-item batch and two successive one-item batches with WarmStart
// (lattold's worker) must converge to the cold solve's fixed point.
func TestSolveBatchSeededLaneConverges(t *testing.T) {
	first := Config{K: 3, Threads: 261, Runlength: 8.76883659885128, MemoryTime: 9.319930398174666,
		SwitchTime: 2.862123160064671, PRemote: 0.19765654443546032, Psw: 0.6320301951794056}
	second := first
	second.Threads = 262
	model, err := Build(second)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := SolveBatch([]BatchItem{{Config: first}, {Config: second}}, SolveOptions{Workspace: new(Workspace)})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
	}
	batchCompareMetrics(t, "batch", res[1].Metrics, want, 1e-9)

	ws := new(Workspace)
	for _, cfg := range []Config{first, second} {
		res = SolveBatch([]BatchItem{{Config: cfg}}, SolveOptions{Workspace: ws, WarmStart: true})
		if res[0].Err != nil {
			t.Fatalf("nt=%d, continued: %v", cfg.Threads, res[0].Err)
		}
	}
	batchCompareMetrics(t, "continued", res[0].Metrics, want, 1e-9)
}

// TestWarmStartAcrossRowCounts continues between two Figure 4 snake points
// whose merged layouts differ (n_t = 8 at p_remote = 0.65 has 21 kernel
// rows, at 0.55 it has 23): seeded from the first point's role totals, the
// second must land on its cold fixed point in fewer iterations than the
// cold solve, both as the second item of one warm batch and as a Model.Solve
// after the first on one workspace.
func TestWarmStartAcrossRowCounts(t *testing.T) {
	var models [2]*Model
	for i, p := range []float64{0.65, 0.55} {
		cfg := DefaultConfig()
		cfg.Threads = 8
		cfg.PRemote = p
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	rows := func(m *Model) int { return 1 + len(m.mergeVals[0]) + len(m.mergeVals[1]) + len(m.mergeVals[2]) }
	if rows(models[0]) != 21 || rows(models[1]) != 23 {
		t.Fatalf("kernel rows = %d, %d, want 21 and 23", rows(models[0]), rows(models[1]))
	}
	cold, err := models[1].Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{Workspace: new(Workspace), WarmStart: true}
	res := SolveBatch([]BatchItem{{Model: models[0]}, {Model: models[1]}}, opts)
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("batch: %v, %v", res[0].Err, res[1].Err)
	}
	opts.Workspace = new(Workspace)
	if _, err := models[0].Solve(opts); err != nil {
		t.Fatal(err)
	}
	solo, err := models[1].Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		warm  Metrics
	}{{"batch", res[1].Metrics}, {"Model.Solve", solo}} {
		batchCompareMetrics(t, c.label, c.warm, cold, 1e-9)
		if c.warm.Iterations >= cold.Iterations {
			t.Errorf("%s: warm solve took %d iterations, cold %d; want fewer", c.label, c.warm.Iterations, cold.Iterations)
		}
	}
}

// TestSolveBatchPositionalErrors mixes an invalid configuration and a
// zero-thread point into a healthy batch: errors land on their own index and
// nowhere else.
func TestSolveBatchPositionalErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.K = -1
	zero := DefaultConfig()
	zero.Threads = 0
	items := []BatchItem{
		{Config: DefaultConfig()},
		{Config: bad},
		{Config: zero},
		{Config: DefaultConfig(), Solver: Solver(99)},
		{Config: DefaultConfig()},
	}
	results := SolveBatch(items, SolveOptions{})
	if results[0].Err != nil || results[4].Err != nil {
		t.Errorf("healthy items failed: [0]=%v [4]=%v", results[0].Err, results[4].Err)
	}
	if validate.Field(results[1].Err) != "K" {
		t.Errorf("invalid config: field = %q (err %v), want K", validate.Field(results[1].Err), results[1].Err)
	}
	if results[2].Err != nil || results[2].Metrics != (Metrics{}) {
		t.Errorf("zero threads: metrics %+v err %v, want zero metrics and nil", results[2].Metrics, results[2].Err)
	}
	if validate.Field(results[3].Err) != "Solver" {
		t.Errorf("bad solver: field = %q (err %v), want Solver", validate.Field(results[3].Err), results[3].Err)
	}
	if results[0].Metrics.Up <= 0 || results[4].Metrics.Up <= 0 {
		t.Errorf("healthy U_p = %v, %v, want > 0", results[0].Metrics.Up, results[4].Metrics.Up)
	}
}

// TestSolveBatchIntoAllocates0 pins the steady-state contract: with prebuilt
// models, a reused workspace and caller-provided result storage, a batch
// solve allocates nothing.
func TestSolveBatchIntoAllocates0(t *testing.T) {
	items := make([]BatchItem, 12)
	for i := range items {
		cfg := DefaultConfig()
		cfg.Threads = 1 + i
		model, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{Model: model}
	}
	ws := new(Workspace)
	dst := make([]BatchResult, len(items))
	opts := SolveOptions{Workspace: ws}
	SolveBatchInto(dst, items, opts)
	allocs := testing.AllocsPerRun(50, func() {
		SolveBatchInto(dst, items, opts)
		if dst[0].Err != nil {
			t.Fatal(dst[0].Err)
		}
	})
	if allocs != 0 {
		t.Errorf("batch solve allocates %v allocs/op, want 0", allocs)
	}
}

// TestSolveAllocates0: a symmetric Model.Solve runs the workspace's kernel,
// and on a reused workspace it allocates nothing, cold or warm-started.
func TestSolveAllocates0(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 6
	model, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		opts := SolveOptions{Workspace: new(Workspace), WarmStart: warm}
		if _, err := model.Solve(opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := model.Solve(opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("WarmStart %v: Model.Solve allocates %v allocs/op, want 0", warm, allocs)
		}
	}
}

// TestSolveBatchIntoLengthMismatch documents the misuse panic.
func TestSolveBatchIntoLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dst/items length mismatch")
		}
	}()
	SolveBatchInto(make([]BatchResult, 1), make([]BatchItem, 2), SolveOptions{})
}
