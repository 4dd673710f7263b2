package eval

import (
	"context"
	"math"
	"testing"

	"lattol/internal/mms"
	"lattol/internal/tolerance"
)

var _ Evaluator = (*Solver)(nil)

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	if scale == 0 {
		return 0
	}
	return math.Abs(got-want) / scale
}

// testConfigs spans the operating range: the Table 1 default plus corners of
// the Figure 4–5 axes.
func testConfigs() []mms.Config {
	cfgs := []mms.Config{mms.DefaultConfig()}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		for _, nt := range []int{1, 4, 10} {
			cfg := mms.DefaultConfig()
			cfg.PRemote = p
			cfg.Threads = nt
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestSolverMatchesDirectSolve pins the Solver adapter to the underlying
// packages: the metrics must equal a plain mms solve and the tolerance
// indices must equal tolerance.Compute, at the golden corpus tolerance.
func TestSolverMatchesDirectSolve(t *testing.T) {
	s := NewSolver()
	ctx := context.Background()
	for _, cfg := range testConfigs() {
		got, err := One(ctx, s, Config{Model: cfg}, Options{TolNetwork: true, TolMemory: true})
		if err != nil {
			t.Fatalf("Evaluate(%+v): %v", cfg, err)
		}
		want, err := mms.Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(got.Up, want.Up) > 1e-9 || relErr(got.SObs, want.SObs) > 1e-9 {
			t.Errorf("cfg %+v: metrics diverge: got Up=%v SObs=%v, want Up=%v SObs=%v",
				cfg, got.Up, got.SObs, want.Up, want.SObs)
		}
		netIdx, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroRemote, mms.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		memIdx, err := tolerance.Compute(cfg, tolerance.Memory, tolerance.ZeroDelay, mms.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if relErr(got.TolNetwork, netIdx.Tol) > 1e-9 || relErr(got.TolMemory, memIdx.Tol) > 1e-9 {
			t.Errorf("cfg %+v: tolerance diverges: got (%v, %v), want (%v, %v)",
				cfg, got.TolNetwork, got.TolMemory, netIdx.Tol, memIdx.Tol)
		}
		if got.Bound != 0 {
			t.Errorf("cfg %+v: exact solver reported bound %v", cfg, got.Bound)
		}
	}
}

// TestEvaluateBatchPositionalErrors verifies that one invalid element does
// not poison its neighbors.
func TestEvaluateBatchPositionalErrors(t *testing.T) {
	good := mms.DefaultConfig()
	bad := mms.DefaultConfig()
	bad.PRemote = 2
	out := make([]Outcome, 3)
	NewSolver().EvaluateBatch(context.Background(), []Config{{Model: good}, {Model: bad}, {Model: good}}, Options{}, out)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good elements failed: %v, %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("invalid element did not fail")
	}
	if out[0].Metrics.Up <= 0 {
		t.Fatal("good element has no metrics")
	}
}

// TestEvaluateCanceledContext verifies that an expired context is honored
// before any solve runs.
func TestEvaluateCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]Outcome, 1)
	NewSolver().EvaluateBatch(ctx, []Config{{Model: mms.DefaultConfig()}}, Options{}, out)
	if out[0].Err == nil {
		t.Fatal("EvaluateBatch with canceled context succeeded")
	}
}
