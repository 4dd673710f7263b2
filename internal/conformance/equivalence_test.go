package conformance

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"lattol/internal/mms"
	"lattol/internal/mva"
)

// equivalenceOptions enumerates every solver configuration that must land on
// the same fixed point as the plain Bard–Schweitzer iteration.
func equivalenceOptions() map[string]mms.SolveOptions {
	return map[string]mms.SolveOptions{
		"anderson":      {Accel: mva.AccelAnderson},
		"warm":          {WarmStart: true},
		"warm-anderson": {WarmStart: true, Accel: mva.AccelAnderson},
	}
}

// TestGoldenCorpusUnderAccel re-derives every committed golden point under
// each acceleration scheme and with warm-started continuation (one shared
// workspace across the whole corpus) and demands agreement with the
// committed numbers within GoldenRelTol. This is the proof that acceleration
// changes iteration counts, never answers.
func TestGoldenCorpusUnderAccel(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatalf("golden corpus missing (generate with `go run ./scripts/goldens -update`): %v", err)
	}
	committed, err := UnmarshalGoldenCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range equivalenceOptions() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			// One workspace across the whole corpus: with WarmStart set, every
			// point continues from the previous point's converged solution, so
			// this path also certifies cross-config warm starting.
			var ws mms.Workspace
			opts.Workspace = &ws
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
}

// TestRandomConfigsEquivalence draws seeded random configurations from the
// certified operating range and checks that every accelerated / warm-started
// solve agrees with the plain solve on all metrics within 1e-9 relative.
// Both sides solve to 1e-12 so the comparison is not dominated by the
// distance each iterate stops short of the true fixed point.
func TestRandomConfigsEquivalence(t *testing.T) {
	const trials = 30
	rng := rand.New(rand.NewSource(1))
	cfgs := make([]mms.Config, trials)
	for i := range cfgs {
		cfgs[i] = RandomConfig(rng)
	}

	plain := make([]mms.Metrics, trials)
	for i, cfg := range cfgs {
		model, err := mms.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain[i], err = model.Solve(mms.SolveOptions{Tolerance: 1e-12}); err != nil {
			t.Fatalf("trial %d: plain: %v", i, err)
		}
	}

	for name, opts := range equivalenceOptions() {
		opts := opts
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
				compareMetrics(t, name, i, met, plain[i])
			}
		})
	}
}

// TestFullSolverEquivalenceUnderAccel runs the heterogeneous full-network
// solver (which exercises the multiclass AMVA path) under Anderson
// acceleration on a few golden configs and checks agreement with its plain
// run.
func TestFullSolverEquivalenceUnderAccel(t *testing.T) {
	cfgs := GoldenConfigs()[:8]
	for _, cfg := range cfgs {
		model, err := mms.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := model.Solve(mms.SolveOptions{Solver: mms.FullAMVA, Tolerance: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		met, err := model.Solve(mms.SolveOptions{Solver: mms.FullAMVA, Tolerance: 1e-12, Accel: mva.AccelAnderson})
		if err != nil {
			t.Fatal(err)
		}
		compareMetrics(t, "full/anderson", 0, met, plain)
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
			t.Errorf("%s trial %d: %s = %.17g, plain gives %.17g (rel %.3g)",
				label, trial, f.name, f.got, f.want, relErr(f.got, f.want))
		}
	}
}
