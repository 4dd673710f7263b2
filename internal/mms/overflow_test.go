package mms

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lattol/internal/mva"
)

// TestOverflowIsNonConvergence: a valid configuration whose times overflow
// float64, and a solve that runs out of iterations, must fail with
// *mva.NonConvergenceError on every AMVA path — Model.Solve of both AMVA
// solvers with and without acceleration, and SolveBatch — and must not
// poison the workspace: the next warm-started solve on it answers exactly as
// a fresh one.
func TestOverflowIsNonConvergence(t *testing.T) {
	huge := DefaultConfig()
	huge.MemoryTime = 1e308
	want, err := Solve(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg Config) *Model {
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	off := func(got float64) float64 { return math.Abs(got-want.Up) / want.Up }
	for _, bad := range []struct {
		name          string
		cfg           Config
		maxIterations int
	}{
		{"overflow", huge, 0},
		{"iteration cap", DefaultConfig(), 2},
	} {
		for _, solver := range []Solver{SymmetricAMVA, FullAMVA} {
			opts := SolveOptions{Solver: solver, WarmStart: true, Workspace: new(Workspace)}
			badOpts := opts
			badOpts.MaxIterations = bad.maxIterations
			var nce *mva.NonConvergenceError
			_, err := build(bad.cfg).Solve(badOpts)
			if !errors.As(err, &nce) {
				t.Errorf("%s %v: error = %v, want *mva.NonConvergenceError", bad.name, solver, err)
			} else if strings.Contains(err.Error(), "batch") {
				t.Errorf("%s %v: error %q names a batch", bad.name, solver, err)
			}
			got, err := build(DefaultConfig()).Solve(opts)
			if err != nil || !(got.Up > 0) || off(got.Up) > 1e-9 {
				t.Errorf("%s %v: solve after the failure: U_p %v err %v, want %v",
					bad.name, solver, got.Up, err, want.Up)
			}
		}
	}
	res := SolveBatch([]BatchItem{{Config: huge}, {Config: DefaultConfig()}}, SolveOptions{})
	var nce *mva.NonConvergenceError
	if !errors.As(res[0].Err, &nce) {
		t.Errorf("batch: overflow error = %v, want *mva.NonConvergenceError", res[0].Err)
	}
	if res[1].Err != nil || off(res[1].Metrics.Up) > 1e-9 {
		t.Errorf("batch neighbor: U_p %v err %v, want %v", res[1].Metrics.Up, res[1].Err, want.Up)
	}
}
