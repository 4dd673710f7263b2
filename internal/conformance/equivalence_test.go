package conformance

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"lattol/internal/mms"
)

// TestGoldenCorpusUnderAccel re-derives every committed golden point with
// warm-started continuation (one shared workspace across the whole corpus)
// and demands agreement with the committed numbers within GoldenRelTol. This
// is the proof that continuation, like the accelerated step every solve
// takes, changes iteration counts, never answers.
func TestGoldenCorpusUnderAccel(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatalf("golden corpus missing (generate with `go run ./scripts/goldens -update`): %v", err)
	}
	committed, err := UnmarshalGoldenCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("warm", func(t *testing.T) {
		// One workspace across the whole corpus: every point continues from
		// the previous point's converged solution, so this path certifies
		// cross-config warm starting.
		opts := mms.SolveOptions{WarmStart: true, Workspace: new(mms.Workspace)}
		for _, want := range committed {
			got, err := ComputeGoldenWith(want.Config(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareGolden(got, want); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestRandomConfigsEquivalence draws seeded random configurations from the
// certified operating range and checks that every warm-started or full-AMVA
// solve agrees on all metrics within 1e-9 relative with the cold symmetric
// kernel. Full AMVA runs the per-class Bard–Schweitzer loop over the whole
// network, a code path independent of the kernel's merged station rows, so
// the full rows check its one accelerated loop against a separate solver.
// Every solve runs to 1e-12 so the comparison is not dominated by the
// distance each iterate stops short of the true fixed point.
// LATTOL_CONFORMANCE_ANALYTICAL_TRIALS sets the trial count (default 30) and
// LATTOL_CONFORMANCE_SEED the seed (default 1).
func TestRandomConfigsEquivalence(t *testing.T) {
	trials := envInt("LATTOL_CONFORMANCE_ANALYTICAL_TRIALS", 30)
	rng := rand.New(rand.NewSource(int64(envInt("LATTOL_CONFORMANCE_SEED", 1))))
	cfgs := make([]mms.Config, trials)
	for i := range cfgs {
		cfgs[i] = RandomConfig(rng)
	}

	ref := make([]mms.Metrics, trials)
	for i, cfg := range cfgs {
		model, err := mms.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref[i], err = model.Solve(mms.SolveOptions{Tolerance: 1e-12}); err != nil {
			t.Fatalf("trial %d: symmetric: %v", i, err)
		}
	}

	for name, opts := range map[string]mms.SolveOptions{
		"warm":      {WarmStart: true},
		"full":      {Solver: mms.FullAMVA},
		"warm-full": {Solver: mms.FullAMVA, WarmStart: true},
	} {
		t.Run(name, func(t *testing.T) {
			var ws mms.Workspace
			opts.Tolerance = 1e-12
			opts.Workspace = &ws
			for i, cfg := range cfgs {
				model, err := mms.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				met, err := model.Solve(opts)
				if err != nil {
					t.Fatalf("trial %d (%+v): %v", i, cfg, err)
				}
				compareMetrics(t, name, i, met, ref[i])
			}
		})
	}
}

// TestFullSolverEquivalenceUnderAccel checks that full AMVA, on its one
// accelerated loop, lands on the symmetric kernel's fixed point at the
// paper's K = 4 on a few golden configs, within 1e-9 relative.
func TestFullSolverEquivalenceUnderAccel(t *testing.T) {
	for _, cfg := range GoldenConfigs()[:8] {
		model, err := mms.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := model.Solve(mms.SolveOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		full, err := model.Solve(mms.SolveOptions{Solver: mms.FullAMVA, Tolerance: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		compareMetrics(t, "full", 0, full, sym)
	}
}

func compareMetrics(t *testing.T, label string, trial int, got, want mms.Metrics) {
	t.Helper()
	for _, f := range []struct {
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
		if math.IsNaN(f.got) || relErr(f.got, f.want) > 1e-9 {
			t.Errorf("%s trial %d: %s = %.17g, the reference gives %.17g (rel %.3g)",
				label, trial, f.name, f.got, f.want, relErr(f.got, f.want))
		}
	}
}
