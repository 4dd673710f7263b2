package mva

import (
	"errors"
	"math"
	"testing"

	"lattol/internal/queueing"
	"lattol/internal/validate"
)

// relDiff is |a-b| / max(|a|,|b|,1).
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / scale
}

// compareResults asserts two solves agree on every measure within relTol.
func compareResults(t *testing.T, label string, got, want *Result, relTol float64) {
	t.Helper()
	for c := range want.Throughput {
		if d := relDiff(got.Throughput[c], want.Throughput[c]); d > relTol {
			t.Errorf("%s: Throughput[%d] = %.17g, want %.17g (rel %.3g)", label, c, got.Throughput[c], want.Throughput[c], d)
		}
		if d := relDiff(got.CycleTime[c], want.CycleTime[c]); d > relTol {
			t.Errorf("%s: CycleTime[%d] = %.17g, want %.17g (rel %.3g)", label, c, got.CycleTime[c], want.CycleTime[c], d)
		}
		for m := range want.Wait[c] {
			if d := relDiff(got.Wait[c][m], want.Wait[c][m]); d > relTol {
				t.Errorf("%s: Wait[%d][%d] = %.17g, want %.17g (rel %.3g)", label, c, m, got.Wait[c][m], want.Wait[c][m], d)
			}
			if d := relDiff(got.QueueLen[c][m], want.QueueLen[c][m]); d > relTol {
				t.Errorf("%s: QueueLen[%d][%d] = %.17g, want %.17g (rel %.3g)", label, c, m, got.QueueLen[c][m], want.QueueLen[c][m], d)
			}
		}
	}
}

// copyResult snapshots a workspace-aliased result.
func copyResult(r *Result) *Result {
	out := newResult(len(r.Throughput), len(r.Wait[0]))
	copy(out.Throughput, r.Throughput)
	copy(out.CycleTime, r.CycleTime)
	for c := range r.Wait {
		copy(out.Wait[c], r.Wait[c])
		copy(out.QueueLen[c], r.QueueLen[c])
	}
	out.Iterations = r.Iterations
	out.Method = r.Method
	return out
}

// accelTestNets enumerates networks spanning the structural cases: multiple
// classes, delay and multi-server stations, zero-population and
// zero-visit-everywhere-but-one classes.
func accelTestNets() map[string]*queueing.Network {
	multi := &queueing.Network{
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.FCFS, ServiceTime: 1},
			{Name: "think", Kind: queueing.Delay, ServiceTime: 5},
			{Name: "disk", Kind: queueing.FCFS, ServiceTime: 2, Servers: 2},
			{Name: "net", Kind: queueing.FCFS, ServiceTime: 0.5},
		},
		Classes: []queueing.Class{
			{Name: "a", Population: 6, Visits: []float64{1, 0.5, 0.4, 0.2}},
			{Name: "b", Population: 3, Visits: []float64{1, 0, 0.1, 1.5}},
			{Name: "idle", Population: 0, Visits: []float64{1, 0, 0, 0}},
		},
	}
	congested := &queueing.Network{
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.FCFS, ServiceTime: 1},
			{Name: "disk", Kind: queueing.FCFS, ServiceTime: 9},
		},
		Classes: []queueing.Class{
			{Name: "a", Population: 20, Visits: []float64{1, 1}},
			{Name: "b", Population: 10, Visits: []float64{1, 0.8}},
		},
	}
	return map[string]*queueing.Network{
		"twoClass":  twoClassNet(),
		"mixed":     multi,
		"congested": congested,
	}
}

// plainSolve is the unaccelerated Bard–Schweitzer reference: successive
// substitution x ← G(x) over evalG from the cold uniform spread, stopped by
// the same raw-residual test as ApproxMultiClass. It returns the converged
// result and the number of sweeps.
func plainSolve(t *testing.T, net *queueing.Network, tol float64) (*Result, int) {
	t.Helper()
	var ws Workspace
	nc, nm := len(net.Classes), len(net.Stations)
	r := ws.ensure(nc, nm, false)
	for c, cl := range net.Classes {
		visited := 0
		for m := range net.Stations {
			if cl.Visits[m] > 0 {
				visited++
			}
		}
		for m := range net.Stations {
			if cl.Population > 0 && cl.Visits[m] > 0 {
				ws.q[c*nm+m] = float64(cl.Population) / float64(visited)
			}
		}
	}
	g := make([]float64, nc*nm)
	for iter := 1; iter <= DefaultMaxIterations; iter++ {
		resid, err := ws.evalG(net, ws.q, g, r)
		if err != nil {
			t.Fatal(err)
		}
		copy(ws.q, g)
		if resid < tol {
			for c := 0; c < nc; c++ {
				copy(r.QueueLen[c], ws.q[c*nm:(c+1)*nm])
			}
			return copyResult(r), iter
		}
	}
	t.Fatal("plain iteration did not converge")
	return nil, 0
}

// TestAccelMatchesPlain: the accelerated solve converges to the plain
// Bard–Schweitzer fixed point within 1e-9 on every test network. Both sides
// solve at 1e-12 so the comparison tolerance is not eaten by the
// convergence-to-fixed-point gap.
func TestAccelMatchesPlain(t *testing.T) {
	for name, net := range accelTestNets() {
		plain, _ := plainSolve(t, net, 1e-12)
		res, err := ApproxMultiClass(net, AMVAOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareResults(t, name, res, plain, 1e-9)
		if res.Iterations <= 0 {
			t.Errorf("%s: Iterations = %d, want > 0", name, res.Iterations)
		}
	}
}

// TestAccelFewerIterations: on the congested network (slow plain
// convergence) the accelerated solve needs strictly fewer sweeps.
func TestAccelFewerIterations(t *testing.T) {
	net := accelTestNets()["congested"]
	_, plainIters := plainSolve(t, net, 1e-10)
	res, err := ApproxMultiClass(net, AMVAOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= plainIters {
		t.Errorf("%d iterations, plain needs %d — no speedup", res.Iterations, plainIters)
	}
}

// TestWarmStartMatchesCold: a warm-started re-solve of a perturbed network
// converges to the same fixed point (within 1e-9) in fewer iterations.
func TestWarmStartMatchesCold(t *testing.T) {
	base := twoClassNet()
	perturbed := &queueing.Network{
		Stations: append([]queueing.Station(nil), base.Stations...),
		Classes: []queueing.Class{
			{Name: "a", Population: 3, Visits: []float64{1, 0.55, 0.2}},
			{Name: "b", Population: 2, Visits: []float64{1, 0.1, 1.4}},
		},
	}
	opts := AMVAOptions{Tolerance: 1e-12}
	cold, err := ApproxMultiClass(perturbed, opts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}

	var ws Workspace
	if _, err := ws.ApproxMultiClass(base, opts); err != nil {
		t.Fatalf("seed solve: %v", err)
	}
	warmOpts := opts
	warmOpts.WarmStart = true
	warm, err := ws.ApproxMultiClass(perturbed, warmOpts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	compareResults(t, "warm-vs-cold", warm, cold, 1e-9)
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d iterations, cold %d — no continuation win",
			warm.Iterations, cold.Iterations)
	}
}

// TestWarmStartShapeMismatchFallsBack: warm-starting after a solve of a
// different shape silently falls back to the cold uniform seed and produces
// the bit-identical cold trajectory.
func TestWarmStartShapeMismatchFallsBack(t *testing.T) {
	single := &queueing.Network{
		Stations: []queueing.Station{{Name: "cpu", Kind: queueing.FCFS, ServiceTime: 1}},
		Classes:  []queueing.Class{{Name: "a", Population: 2, Visits: []float64{1}}},
	}
	net := twoClassNet()
	opts := AMVAOptions{WarmStart: true}

	cold, err := ApproxMultiClass(net, opts)
	if err != nil {
		t.Fatal(err)
	}

	var ws Workspace
	if _, err := ws.ApproxMultiClass(single, AMVAOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := ws.ApproxMultiClass(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != cold.Iterations {
		t.Errorf("mismatched warm start took %d iterations, cold takes %d — fallback is not bit-identical",
			got.Iterations, cold.Iterations)
	}
	compareResults(t, "mismatch-fallback", got, cold, 0)
}

// TestWarmStartInvalidatedByExact: an exact solve scrambles the workspace
// iterate, so the next warm-started approximate solve must fall back to the
// cold seed (bit-identical to a fresh workspace).
func TestWarmStartInvalidatedByExact(t *testing.T) {
	net := twoClassNet()
	cold, err := ApproxMultiClass(net, AMVAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	if _, err := ws.ApproxMultiClass(net, AMVAOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.ExactMultiClass(net, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ws.ApproxMultiClass(net, AMVAOptions{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != cold.Iterations {
		t.Errorf("warm solve after exact took %d iterations, cold takes %d — exact did not invalidate the seed",
			got.Iterations, cold.Iterations)
	}
}

// TestAMVAOptionsValidate covers the new knobs and the negative-Tolerance
// bugfix: a negative tolerance used to be silently replaced by the default.
func TestAMVAOptionsValidate(t *testing.T) {
	cases := []struct {
		name  string
		opts  AMVAOptions
		field string // empty = valid
	}{
		{"zero value", AMVAOptions{}, ""},
		{"negative tolerance", AMVAOptions{Tolerance: -1e-9}, "Tolerance"},
		{"NaN tolerance", AMVAOptions{Tolerance: math.NaN()}, "Tolerance"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		var fe *validate.FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: Validate() = %v, want FieldError on %s", tc.name, err, tc.field)
		}
	}
	// The solver itself must reject, not sanitize.
	if _, err := ApproxMultiClass(twoClassNet(), AMVAOptions{Tolerance: -1}); validate.Field(err) != "Tolerance" {
		t.Errorf("ApproxMultiClass(Tolerance=-1) err = %v, want FieldError on Tolerance", err)
	}
}

// TestExactWorkspaceMatchesFreeFunction: the workspace DP rewrite must be
// bit-identical to a fresh solve, and reusing the workspace across differing
// networks must not leak state.
func TestExactWorkspaceMatchesFreeFunction(t *testing.T) {
	nets := accelTestNets()
	var ws Workspace
	// Solve each network twice through one workspace, interleaved, so stale
	// lattice contents from a bigger network would corrupt a smaller one if
	// resizing were wrong.
	order := []string{"twoClass", "mixed", "twoClass", "congested", "mixed"}
	for _, name := range order {
		net := nets[name]
		if name == "congested" {
			// 21×11 = 231 states is fine; keep as is.
			_ = net
		}
		want, err := ExactMultiClass(net, 0)
		if err != nil {
			t.Fatalf("%s: fresh: %v", name, err)
		}
		got, err := ws.ExactMultiClass(net, 0)
		if err != nil {
			t.Fatalf("%s: workspace: %v", name, err)
		}
		compareResults(t, name+"/exact-ws", got, want, 0)
		if got.Method != MethodExact {
			t.Errorf("%s: Method = %q, want %q", name, got.Method, MethodExact)
		}
	}
}

// TestExactWorkspaceAllocFree: a warmed workspace solves with zero
// allocations.
func TestExactWorkspaceAllocFree(t *testing.T) {
	net := twoClassNet()
	var ws Workspace
	if _, err := ws.ExactMultiClass(net, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.ExactMultiClass(net, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed exact solve allocates %.1f times per run, want 0", allocs)
	}
}

// TestApproxWorkspaceAllocFreeWithAccel: the accelerated loop stays
// allocation-free on a reused workspace. The solves start cold, so every one
// runs the extrapolating leg.
func TestApproxWorkspaceAllocFreeWithAccel(t *testing.T) {
	net := accelTestNets()["congested"]
	var ws Workspace
	var opts AMVAOptions
	if _, err := ws.ApproxMultiClass(net, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.ApproxMultiClass(net, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed approx solve allocates %.1f times per run, want 0", allocs)
	}
}
