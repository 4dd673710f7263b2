package mms

import (
	"math"
	"math/rand"
	"testing"

	"lattol/internal/access"
	"lattol/internal/topology"
)

// sameFloats reports whether two vectors agree bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkElaboration compares a model's visits, merged rows and mean distance
// with the visitsFrom + distinctVisits reference on an independently built
// torus and pattern.
func checkElaboration(t *testing.T, label string, m *Model, cfg Config) {
	t.Helper()
	torus := topology.MustTorus(cfg.K)
	var q func(topology.Node) float64
	dAvg := 0.0
	if cfg.PRemote != 0 && cfg.K > 1 {
		var pat access.Pattern
		var err error
		if cfg.Uniform {
			pat, err = access.NewUniform(torus)
		} else {
			pat, err = access.NewGeometric(torus, cfg.Psw, cfg.GeometricMode)
		}
		if err != nil {
			t.Fatal(err)
		}
		q = func(dst topology.Node) float64 { return pat.Prob(0, dst) }
		dAvg = pat.MeanDistance()
	}
	v, n := visitsFrom(torus, 0, cfg.PRemote, q), torus.Nodes()
	mem, out, in := v[n:2*n], v[2*n:3*n], v[3*n:]
	for r, want := range [3][]float64{mem, out, in} {
		got := [3][]float64{m.visitMem, m.visitOut, m.visitIn}[r]
		if !sameFloats(got, want) {
			t.Fatalf("%s %+v: role %d visits\n got %v\nwant %v", label, cfg, r, got, want)
		}
		vals, counts := distinctVisits(want, nil, nil)
		if !sameFloats(m.mergeVals[r], vals) || !sameFloats(m.mergeCounts[r], counts) {
			t.Fatalf("%s %+v: role %d rows %v×%v, want %v×%v", label, cfg, r,
				m.mergeVals[r], m.mergeCounts[r], vals, counts)
		}
	}
	if got := m.MeanDistance(); math.Float64bits(got) != math.Float64bits(dAvg) {
		t.Fatalf("%s %+v: MeanDistance %v, want %v", label, cfg, got, dAvg)
	}
}

// TestElaborationBitIdentical pins the one torus fill to the visitsFrom
// reference, for Build and for the workspace elaboration SolveBatch runs
// (memoized tables, reused slabs): K 1–16, both geometric modes and the
// uniform pattern, Psw up to 1, and p_remote 0, 1 and small enough that
// p·q[j] underflows to 0. Uniform items then solve through SolveBatchInto
// bit for bit like Build + Solve, K 2–16 and p_remote 0 and 1.
func TestElaborationBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ws := new(Workspace)
	for trial := 0; trial < 2000; trial++ {
		cfg := DefaultConfig()
		cfg.K = 1 + rng.Intn(16)
		cfg.GeometricMode = access.GeometricMode(rng.Intn(2))
		cfg.Psw = []float64{1, 0.5, 0.05 + 0.95*rng.Float64()}[rng.Intn(3)]
		cfg.PRemote = []float64{0, 1, 5e-324, 1e-310, rng.Float64()}[rng.Intn(5)]
		cfg.Uniform = rng.Intn(4) == 0
		if cfg.K == 1 {
			cfg.PRemote = 0
		}
		built, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkElaboration(t, "Build", built, cfg)
		ws.models.reset()
		ws.floats.reset()
		m, err := ws.elaborate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkElaboration(t, "workspace", m, cfg)
	}
	dst := make([]BatchResult, 1)
	for k := 2; k <= 16; k++ {
		for _, p := range []float64{0, 1} {
			cfg := DefaultConfig()
			cfg.K, cfg.PRemote, cfg.Uniform = k, p, true
			built, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := built.Solve(SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			SolveBatchInto(dst, []BatchItem{{Config: cfg}}, SolveOptions{Workspace: ws})
			if dst[0].Err != nil || !sameBits(dst[0].Metrics, want) {
				t.Errorf("uniform K=%d p=%v: batch %+v (err %v), Build+Solve %+v", k, p, dst[0].Metrics, dst[0].Err, want)
			}
		}
	}
}

// TestElaborationErrorsMatchBuild: the workspace elaboration reports the
// error Build reports, and memoizes no table for it.
func TestElaborationErrorsMatchBuild(t *testing.T) {
	badMode := DefaultConfig()
	badMode.GeometricMode = 7
	badPsw := DefaultConfig()
	badPsw.Psw = 0
	ws := new(Workspace)
	for _, cfg := range []Config{badMode, badPsw} {
		_, want := Build(cfg)
		_, got := ws.elaborate(cfg)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%+v: workspace error %v, want Build's %v", cfg, got, want)
		}
	}
	if len(ws.tables) != 0 {
		t.Errorf("%d tables memoized for failed elaborations, want 0", len(ws.tables))
	}
}

// TestElaborationTablesBounded: a workspace never holds more than maxTables
// tables, however many geometries it serves.
func TestElaborationTablesBounded(t *testing.T) {
	ws := new(Workspace)
	for i := 0; i < 3*maxTables; i++ {
		cfg := DefaultConfig()
		cfg.Psw = 0.1 + 0.8*float64(i)/float64(3*maxTables)
		ws.models.reset()
		ws.floats.reset()
		if _, err := ws.elaborate(cfg); err != nil {
			t.Fatal(err)
		}
		if len(ws.tables) > maxTables {
			t.Fatalf("after %d geometries: %d tables, want <= %d", i+1, len(ws.tables), maxTables)
		}
	}
}

// TestSolveBatchSlabReuse solves a run of batches on one workspace — FullAMVA
// and symmetric items, then other geometries, so slab models are reused by
// items of another K and solver — and requires each batch to match a fresh
// workspace's answer bit for bit, Iterations included.
func TestSolveBatchSlabReuse(t *testing.T) {
	full := func(k int, p float64) BatchItem {
		cfg := DefaultConfig()
		cfg.K, cfg.PRemote, cfg.Threads = k, p, 3
		return BatchItem{Config: cfg, Solver: FullAMVA}
	}
	batches := [][]BatchItem{
		append([]BatchItem{full(2, 0.3)}, sweepShapedItems(6)...),
		append([]BatchItem{full(3, 0.4), full(2, 0.7)}, sweepShapedItems(3)...),
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 12; i++ {
		batches = append(batches, randomBatch(rng, 1+rng.Intn(48)))
	}
	batches = append(batches, batches[0], batches[1])
	ws := new(Workspace)
	for b, items := range batches {
		got := SolveBatch(items, SolveOptions{Workspace: ws})
		want := SolveBatch(items, SolveOptions{Workspace: new(Workspace)})
		for i := range items {
			g, w := got[i], want[i]
			if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
				t.Fatalf("batch %d item %d: err %v, want %v", b, i, g.Err, w.Err)
			}
			if !sameBits(g.Metrics, w.Metrics) {
				t.Errorf("batch %d item %d: %+v, want %+v", b, i, g.Metrics, w.Metrics)
			}
		}
	}
}

// newGeometryItems returns n points of distinct K = 4 geometries, each a
// real system followed by its ZeroRemote (p_remote = 0) and ZeroDelay
// (L = 0) ideals, p_remote stepping by the golden ratio.
func newGeometryItems(n int) []BatchItem {
	items := make([]BatchItem, 0, 3*n)
	for j := 0; j < n; j++ {
		_, f := math.Modf(float64(j) * 0.6180339887498949)
		real := DefaultConfig()
		real.PRemote = 0.05 + 0.85*f
		idealNet, idealMem := real, real
		idealNet.PRemote = 0
		idealMem.MemoryTime = 0
		items = append(items, BatchItem{Config: real}, BatchItem{Config: idealNet}, BatchItem{Config: idealMem})
	}
	return items
}

// TestSolveBatchElaborationAllocFree: once a workspace has served one batch,
// a batch of 32 new geometries with their ideals, under the geometric and
// the uniform pattern, elaborates and solves without allocating. The
// workspace keeps tables, not models, between calls, so every call
// elaborates all 64 geometries again (from the memoized tables, into the
// reset slabs).
func TestSolveBatchElaborationAllocFree(t *testing.T) {
	items := newGeometryItems(32)
	for _, it := range items[:len(items):len(items)] {
		it.Config.Uniform = true
		items = append(items, it)
	}
	dst := make([]BatchResult, len(items))
	ws := new(Workspace)
	opts := SolveOptions{Workspace: ws, WarmStart: true}
	SolveBatchInto(dst, items, opts)
	allocs := testing.AllocsPerRun(20, func() {
		SolveBatchInto(dst, items, opts)
		if dst[0].Err != nil {
			t.Fatal(dst[0].Err)
		}
	})
	if allocs != 0 {
		t.Errorf("batch of new geometries allocates %v allocs/op, want 0", allocs)
	}
	if m := ws.batchModels[0]; &m.visitMem[0] != &ws.floats.chunks[0][0] {
		t.Error("item 0 was not elaborated into the workspace slab")
	}
}
