package mms

import (
	"errors"
	"math"
	"testing"

	"lattol/internal/mva"
)

// TestOverflowIsNonConvergence: a valid configuration whose times overflow
// float64 must fail with *mva.NonConvergenceError on every AMVA path — the
// scalar solvers with and without acceleration, and the batch kernel — and
// must not poison the workspace: the next warm-started solve on it answers
// exactly as a fresh one.
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
	for _, solver := range []Solver{SymmetricAMVA, FullAMVA} {
		for _, accel := range []mva.Accel{mva.AccelNone, mva.AccelAnderson} {
			opts := SolveOptions{Solver: solver, Accel: accel, WarmStart: true, Workspace: new(Workspace)}
			var nce *mva.NonConvergenceError
			if _, err := build(huge).Solve(opts); !errors.As(err, &nce) {
				t.Errorf("%v/%v: overflow error = %v, want *mva.NonConvergenceError", solver, accel, err)
			}
			got, err := build(DefaultConfig()).Solve(opts)
			if err != nil || !(got.Up > 0) || off(got.Up) > 1e-9 {
				t.Errorf("%v/%v: solve after the overflow: U_p %v err %v, want %v", solver, accel, got.Up, err, want.Up)
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
