package mms

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lattol/internal/access"
)

// sweepShapedItems is the item list of an n-point p_remote tolerance sweep
// as lattold submits it: per point the real system, the ZeroRemote ideal
// (p_remote = 0), the real system again and the ZeroDelay ideal (L = 0).
func sweepShapedItems(n int) []BatchItem {
	items := make([]BatchItem, 0, 4*n)
	for i := 0; i < n; i++ {
		real := DefaultConfig()
		real.PRemote = 0.05 + 0.9*float64(i)/float64(n-1)
		idealNet, idealMem := real, real
		idealNet.PRemote = 0
		idealMem.MemoryTime = 0
		items = append(items, BatchItem{Config: real}, BatchItem{Config: idealNet},
			BatchItem{Config: real}, BatchItem{Config: idealMem})
	}
	return items
}

// randomBatch draws n items over a few values per field, so equal systems
// and equal geometries recur: K in 1..4, both geometric modes, uniform
// patterns, every solver, zero-thread and invalid items (a bad field or an
// unknown solver), and copies of earlier items.
func randomBatch(rng *rand.Rand, n int) []BatchItem {
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	items := make([]BatchItem, 0, n)
	for len(items) < n {
		if len(items) > 0 && rng.Intn(4) == 0 {
			items = append(items, items[rng.Intn(len(items))])
			continue
		}
		cfg := DefaultConfig()
		cfg.K = 1 + rng.Intn(4)
		cfg.Threads = rng.Intn(7)
		cfg.Runlength = pick(5, 10, 20)
		cfg.MemoryTime = pick(0, 10)
		cfg.SwitchTime = pick(0, 5, 10)
		cfg.PRemote = pick(0, 0.2, 0.6)
		cfg.Psw = pick(0.3, 0.5, 0.9)
		cfg.GeometricMode = access.GeometricMode(rng.Intn(2))
		cfg.MemoryPorts = rng.Intn(3)
		if cfg.K == 1 {
			cfg.PRemote = 0
		}
		it := BatchItem{Config: cfg}
		switch r := rng.Intn(20); {
		case r < 2 && cfg.K <= 3:
			it.Solver = FullAMVA
		case r < 3 && cfg.K <= 2 && cfg.Threads <= 4:
			it.Solver = ExactMVA
		case r < 4:
			it.Solver = Solver(7)
		case r < 5:
			it.Config.Runlength = -1
		case r < 7 && cfg.K > 1:
			it.Config.Uniform = true
		}
		items = append(items, it)
	}
	return items
}

// firstOccurrence maps each item to the first item of the list that is the
// same system, or to itself.
func firstOccurrence(items []BatchItem) []int {
	first := make([]int, len(items))
	for i := range items {
		first[i] = i
		for j := 0; j < i; j++ {
			if items[i] == items[j] {
				first[i] = j
				break
			}
		}
	}
	return first
}

// sameBits reports whether two Metrics agree bit for bit, Iterations
// included.
func sameBits(a, b Metrics) bool {
	fa := [...]float64{a.Up, a.LambdaProc, a.LambdaNet, a.SObs, a.LObs, a.CycleTime,
		a.MemUtilization, a.OutUtilization, a.InUtilization}
	fb := [...]float64{b.Up, b.LambdaProc, b.LambdaNet, b.SObs, b.LObs, b.CycleTime,
		b.MemUtilization, b.OutUtilization, b.InUtilization}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Iterations == b.Iterations
}

// checkSharedBatch is the oracle of SolveBatch's sharing: on fresh
// workspaces, the Config items must solve bit for bit like the list of
// their distinct systems, each carrying its own separately built Model
// (so nothing is shared or skipped). A duplicate gets its first
// occurrence's outcome, and a kernel error names the duplicate's own index.
func checkSharedBatch(t *testing.T, label string, items []BatchItem, opts SolveOptions) {
	t.Helper()
	first := firstOccurrence(items)
	var ref []BatchItem
	refPos := make([]int, len(items))
	for i, it := range items {
		if first[i] != i {
			refPos[i] = refPos[first[i]]
			continue
		}
		refPos[i] = len(ref)
		if m, err := Build(it.Config); err == nil {
			it.Model = m
		}
		ref = append(ref, it)
	}
	opts.Workspace = new(Workspace)
	got := SolveBatch(items, opts)
	opts.Workspace = new(Workspace)
	want := SolveBatch(ref, opts)
	for i := range items {
		g, w := got[i], want[refPos[i]]
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("%s item %d (first %d): err %v, want %v", label, i, first[i], g.Err, w.Err)
		}
		if w.Err != nil {
			var gl, wl *itemError
			switch {
			case errors.As(w.Err, &wl):
				if !errors.As(g.Err, &gl) || gl.item != i || gl.err.Error() != wl.err.Error() {
					t.Errorf("%s item %d: err %q, want the kernel error %q under item %d", label, i, g.Err, wl.err, i)
				}
			case g.Err.Error() != w.Err.Error():
				t.Errorf("%s item %d: err %q, want %q", label, i, g.Err, w.Err)
			}
			continue
		}
		if !sameBits(g.Metrics, w.Metrics) {
			t.Errorf("%s item %d (first %d): %+v, want %+v", label, i, first[i], g.Metrics, w.Metrics)
		}
	}
}

// TestSolveBatchSharesExactly runs the sharing oracle on a sweep-shaped
// list, on seeded random batches, and on a sweep starved of iterations so
// that kernel solves fail and their duplicates must report the kernel
// error under their own index.
func TestSolveBatchSharesExactly(t *testing.T) {
	checkSharedBatch(t, "sweep", sweepShapedItems(18), SolveOptions{})
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 40; trial++ {
		checkSharedBatch(t, "random", randomBatch(rng, 1+rng.Intn(48)), SolveOptions{})
	}
	starved := SolveOptions{MaxIterations: 2}
	checkSharedBatch(t, "starved", sweepShapedItems(4), starved)
	var le *itemError
	if res := SolveBatch(sweepShapedItems(4), starved); !errors.As(res[2].Err, &le) || le.item != 2 {
		t.Fatalf("starved duplicate item 2: err %v, want a kernel error naming item 2", res[2].Err)
	}
}

// TestSolveBatchElaboratesOncePerGeometry counts the models behind an
// 18-point p_remote sweep's 72 items: 35 items are duplicates, and the 37
// distinct systems share 19 elaborations (18 real geometries plus the one
// p_remote = 0 ideal).
func TestSolveBatchElaboratesOncePerGeometry(t *testing.T) {
	items := sweepShapedItems(18)
	ws := new(Workspace)
	SolveBatch(items, SolveOptions{Workspace: ws})
	dups := 0
	visits := map[*float64]bool{}
	for i := range items {
		if ws.batchModels[i] == nil { // a duplicate takes no model
			dups++
			continue
		}
		visits[&ws.batchModels[i].visitMem[0]] = true
	}
	if dups != 35 || len(visits) != 19 {
		t.Errorf("duplicates = %d, elaborations = %d, want 35 and 19", dups, len(visits))
	}
}

// TestBuildAllocations pins Build's allocation count: the model and its
// torus, the geometric pattern (struct, distance histogram, per-distance
// probabilities), the elaboration table's hop list, and one backing array
// each for the visit vectors and the merged kernel rows — independent of K.
func TestBuildAllocations(t *testing.T) {
	for _, k := range []int{4, 10} {
		cfg := DefaultConfig()
		cfg.K = k
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Build(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("Build(K=%d) = %v allocs, want <= 8", k, allocs)
		}
	}
}
