package conformance

import (
	"math/rand"
	"os"
	"testing"

	"lattol/internal/mms"
	"lattol/internal/tolerance"
)

// TestGoldenCorpusBatch re-derives every committed golden point through the
// batched solve path: each point contributes three batch items (the real
// system plus the zero-remote and zero-delay ideals) and the whole corpus is
// solved as one batch. The assembled measures and tolerance indices must
// agree with the committed numbers within GoldenRelTol, so items seeded from
// one another land on the corpus's fixed point. Model.Solve runs the same
// one-point kernel; the committed numbers themselves and
// TestSymmetricMatchesFullAMVA are the oracles independent of it.
func TestGoldenCorpusBatch(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatalf("golden corpus missing (generate with `go run ./scripts/goldens -update`): %v", err)
	}
	committed, err := UnmarshalGoldenCorpus(data)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]mms.BatchItem, 0, 3*len(committed))
	for _, want := range committed {
		cfg := want.Config()
		netIdeal, err := tolerance.IdealConfig(cfg, tolerance.Network, tolerance.ZeroRemote)
		if err != nil {
			t.Fatal(err)
		}
		memIdeal, err := tolerance.IdealConfig(cfg, tolerance.Memory, tolerance.ZeroDelay)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items,
			mms.BatchItem{Config: cfg},
			mms.BatchItem{Config: netIdeal},
			mms.BatchItem{Config: memIdeal})
	}
	results := mms.SolveBatch(items, mms.SolveOptions{})
	for i, want := range committed {
		real, netIdeal, memIdeal := results[3*i], results[3*i+1], results[3*i+2]
		for j, r := range []mms.BatchResult{real, netIdeal, memIdeal} {
			if r.Err != nil {
				t.Fatalf("%s: batch item %d: %v", want.Name, 3*i+j, r.Err)
			}
		}
		got := GoldenPoint{
			Name:       want.Name,
			Up:         real.Metrics.Up,
			SObs:       real.Metrics.SObs,
			LObs:       real.Metrics.LObs,
			LambdaNet:  real.Metrics.LambdaNet,
			TolNetwork: tolerance.Ratio(real.Metrics.Up, netIdeal.Metrics.Up),
			TolMemory:  tolerance.Ratio(real.Metrics.Up, memIdeal.Metrics.Up),
		}
		if err := CompareGolden(got, want); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRandomConfigsBatchEquivalence draws seeded random configurations from
// the certified operating range (mixed torus sizes, so the batch partitions
// into several station shapes) and demands that one batched solve, its items
// seeded from one another, agrees with item-by-item cold Model.Solve calls on
// every metric within 1e-9 relative. Both sides
// iterate to a 1e-12 residual so the comparison is not dominated by the
// distance each stops short of the true fixed point.
func TestRandomConfigsBatchEquivalence(t *testing.T) {
	const trials = 40
	rng := rand.New(rand.NewSource(7))
	items := make([]mms.BatchItem, trials)
	plain := make([]mms.Metrics, trials)
	for i := range items {
		cfg := RandomConfig(rng)
		items[i] = mms.BatchItem{Config: cfg}
		model, err := mms.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain[i], err = model.Solve(mms.SolveOptions{Tolerance: 1e-12}); err != nil {
			t.Fatalf("trial %d: plain: %v", i, err)
		}
	}
	results := mms.SolveBatch(items, mms.SolveOptions{Tolerance: 1e-12})
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("trial %d: batch: %v", i, results[i].Err)
		}
		compareMetrics(t, "batch", i, results[i].Metrics, plain[i])
	}
}
