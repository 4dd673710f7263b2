package conformance

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/queueing"
	"lattol/internal/tolerance"
	"lattol/internal/topology"
)

// testNetwork is a small contended network with a delay station and a
// multi-server station, solved fresh for each perturbation fixture.
func testNetwork() *queueing.Network {
	return &queueing.Network{
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.FCFS, ServiceTime: 2},
			{Name: "disk", Kind: queueing.FCFS, ServiceTime: 3, Servers: 2},
			{Name: "think", Kind: queueing.Delay, ServiceTime: 5},
		},
		Classes: []queueing.Class{
			{Name: "a", Population: 4, Visits: []float64{1, 1, 1}},
			{Name: "b", Population: 2, Visits: []float64{1, 2, 0}},
		},
	}
}

func solveTestNetwork(t *testing.T) (*queueing.Network, *mva.Result) {
	t.Helper()
	net := testNetwork()
	res, err := mva.ApproxMultiClass(net, mva.AMVAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return net, res
}

// cloneResult deep-copies a result so fixtures can perturb it freely.
func cloneResult(r *mva.Result) *mva.Result {
	out := &mva.Result{
		Throughput: append([]float64(nil), r.Throughput...),
		CycleTime:  append([]float64(nil), r.CycleTime...),
		Iterations: r.Iterations,
		Method:     r.Method,
	}
	for c := range r.Wait {
		out.Wait = append(out.Wait, append([]float64(nil), r.Wait[c]...))
		out.QueueLen = append(out.QueueLen, append([]float64(nil), r.QueueLen[c]...))
	}
	return out
}

func TestCheckResultPassesOnSolverOutput(t *testing.T) {
	net, res := solveTestNetwork(t)
	if err := CheckResult(net, res, Bands{}); err != nil {
		t.Fatalf("clean AMVA solution flagged: %v", err)
	}
	exact, err := mva.ExactMultiClass(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckResult(net, exact, Bands{}); err != nil {
		t.Fatalf("clean exact solution flagged: %v", err)
	}
}

// TestInvariantCheckersFire proves each checker actually detects the
// violation it is named for: every fixture perturbs a clean solution in a
// way that breaks exactly one law and must be reported under that check's
// name.
func TestInvariantCheckersFire(t *testing.T) {
	cases := []struct {
		name    string
		check   string // expected Violation.Check
		perturb func(*queueing.Network, *mva.Result)
	}{
		{
			name:    "nan throughput",
			check:   "finite",
			perturb: func(_ *queueing.Network, r *mva.Result) { r.Throughput[0] = math.NaN() },
		},
		{
			name:    "little violated by throughput scale",
			check:   "little",
			perturb: func(_ *queueing.Network, r *mva.Result) { r.Throughput[0] *= 1.01 },
		},
		{
			name:  "flow balance violated by leaked customer",
			check: "flow-balance",
			perturb: func(_ *queueing.Network, r *mva.Result) {
				r.QueueLen[1][1] += 0.5
			},
		},
		{
			name:  "negative queue length",
			check: "flow-balance",
			perturb: func(_ *queueing.Network, r *mva.Result) {
				r.QueueLen[0][0], r.QueueLen[0][1] = -r.QueueLen[0][0], r.QueueLen[0][1]+2*r.QueueLen[0][0]
			},
		},
		{
			name:  "utilization above one",
			check: "utilization-law",
			perturb: func(n *queueing.Network, r *mva.Result) {
				// A service-time inflation the result does not reflect:
				// perturbed utilization exceeds the server capacity.
				n.Stations[0].ServiceTime *= 10
			},
		},
		{
			name:  "throughput beats bottleneck",
			check: "throughput-bounds",
			perturb: func(n *queueing.Network, r *mva.Result) {
				// Keep Little's law and flow balance intact by scaling the
				// whole class-0 solution consistently: λ up, waits down,
				// queues fixed — the bottleneck bound still catches it.
				scale := 3.0
				r.Throughput[0] *= scale
				r.CycleTime[0] /= scale
				for m := range r.Wait[0] {
					r.Wait[0][m] /= scale
				}
			},
		},
		{
			name:  "waiting-time term mutated",
			check: "fixed-point",
			perturb: func(n *queueing.Network, r *mva.Result) {
				// The sign-flip mutation of DESIGN.md §11: w = s·(1−q)
				// instead of s·(1+q) at one station, queue lengths left
				// as reported.
				seen := r.QueueLen[0][0] + r.QueueLen[1][0] - r.QueueLen[0][0]/4
				r.Wait[0][0] = n.Stations[0].ServiceTime * (1 - seen)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, res := solveTestNetwork(t)
			res = cloneResult(res)
			tc.perturb(net, res)
			err := CheckResult(net, res, Bands{})
			if err == nil {
				t.Fatalf("perturbed solution passed all checks")
			}
			var v *Violation
			found := false
			for _, e := range flatten(err) {
				if errors.As(e, &v) && v.Check == tc.check {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected a %q violation, got: %v", tc.check, err)
			}
		})
	}
}

// flatten unwraps errors.Join trees into a flat list.
func flatten(err error) []error {
	if err == nil {
		return nil
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		var out []error
		for _, e := range j.Unwrap() {
			out = append(out, flatten(e)...)
		}
		return out
	}
	return []error{err}
}

func solveDefaultMetrics(t *testing.T) (*mms.Model, mms.Metrics) {
	t.Helper()
	model, err := mms.Build(mms.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	met, err := model.Solve(mms.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return model, met
}

func TestCheckMetricsFixtures(t *testing.T) {
	model, clean := solveDefaultMetrics(t)
	if err := CheckMetrics(model, clean, Bands{}); err != nil {
		t.Fatalf("clean metrics flagged: %v", err)
	}
	cases := []struct {
		name    string
		check   string
		perturb func(*mms.Metrics)
	}{
		{"perturbed utilization", "utilization-law", func(m *mms.Metrics) { m.Up *= 1.02 }},
		{"utilization above one", "utilization-law", func(m *mms.Metrics) {
			scale := 1.2 / m.Up
			m.Up = 1.2
			m.LambdaProc *= scale
			m.LambdaNet *= scale
			m.CycleTime /= scale
		}},
		{"rate identity broken", "metrics-identity", func(m *mms.Metrics) { m.LambdaNet *= 0.5 }},
		{"little violated", "little", func(m *mms.Metrics) { m.CycleTime *= 1.01 }},
		{"latency below service floor", "latency-floor", func(m *mms.Metrics) { m.LObs = 9 }},
		{"network latency below unloaded floor", "latency-floor", func(m *mms.Metrics) { m.SObs = 1 }},
		{"nan metric", "metrics-finite", func(m *mms.Metrics) { m.SObs = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			met := clean
			tc.perturb(&met)
			err := CheckMetrics(model, met, Bands{})
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("perturbed metrics passed: %v", err)
			}
			if v.Check != tc.check {
				t.Fatalf("expected %q violation, got %q: %v", tc.check, v.Check, v)
			}
		})
	}
}

func TestCheckToleranceIndex(t *testing.T) {
	idx, err := tolerance.NetworkIndex(mms.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckToleranceIndex(idx, Bands{}); err != nil {
		t.Fatalf("clean index flagged: %v", err)
	}
	for _, tc := range []struct {
		name string
		tol  float64
	}{
		{"zero", 0}, {"negative", -0.2}, {"above range", 1.5}, {"nan", math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := idx
			bad.Tol = tc.tol
			err := CheckToleranceIndex(bad, Bands{})
			var v *Violation
			if !errors.As(err, &v) || v.Check != "tolerance-range" {
				t.Fatalf("tol = %v not flagged as tolerance-range: %v", tc.tol, err)
			}
		})
	}
	// The ratio consistency arm: a tol value inconsistent with the U_p
	// ratio it is defined as must fire even when in range.
	bad := idx
	bad.Tol = math.Min(1, bad.Tol*1.01)
	if bad.Tol == idx.Tol {
		bad.Tol *= 0.99
	}
	var v *Violation
	if err := CheckToleranceIndex(bad, Bands{}); !errors.As(err, &v) || v.Check != "tolerance-range" {
		t.Fatalf("inconsistent tol/U_p ratio not flagged: %v", err)
	}
}

func TestCheckMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	up := []float64{0.1, 0.5, 0.8, 0.9}
	down := []float64{0.9, 0.8, 0.5, 0.1}
	noisyFlat := []float64{1, 1 - 1e-9, 1, 1 - 1e-9}
	if err := CheckMonotone("up", xs, up, NonDecreasing, Bands{}); err != nil {
		t.Errorf("increasing series flagged: %v", err)
	}
	if err := CheckMonotone("down", xs, down, NonIncreasing, Bands{}); err != nil {
		t.Errorf("decreasing series flagged: %v", err)
	}
	if err := CheckMonotone("flat", xs, noisyFlat, NonDecreasing, Bands{}); err != nil {
		t.Errorf("within-slack jitter flagged: %v", err)
	}
	var v *Violation
	if err := CheckMonotone("up", xs, down, NonDecreasing, Bands{}); !errors.As(err, &v) || v.Check != "monotone" {
		t.Errorf("non-monotone series passed: %v", err)
	}
	if err := CheckMonotone("mismatch", xs, up[:3], NonDecreasing, Bands{}); err == nil {
		t.Error("length mismatch passed")
	}
}

// TestPaperMonotonicity pins the paper's qualitative claims as invariants:
// utilization and the network-tolerance index grow with thread count and
// runlength and shrink with the remote-access fraction.
func TestPaperMonotonicity(t *testing.T) {
	eval := func(cfg mms.Config) (up, tol float64) {
		t.Helper()
		met, err := mms.Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroRemote, mms.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return met.Up, idx.Tol
	}
	t.Run("threads", func(t *testing.T) {
		var xs, ups, tols []float64
		for nt := 1; nt <= 10; nt++ {
			cfg := mms.DefaultConfig()
			cfg.Threads = nt
			up, tol := eval(cfg)
			xs, ups, tols = append(xs, float64(nt)), append(ups, up), append(tols, tol)
		}
		if err := errors.Join(
			CheckMonotone("U_p(n_t)", xs, ups, NonDecreasing, Bands{}),
			CheckMonotone("tol_net(n_t)", xs, tols, NonDecreasing, Bands{}),
		); err != nil {
			t.Error(err)
		}
	})
	t.Run("runlength", func(t *testing.T) {
		var xs, ups, tols []float64
		for _, r := range []float64{5, 10, 20, 40, 80} {
			cfg := mms.DefaultConfig()
			cfg.Runlength = r
			up, tol := eval(cfg)
			xs, ups, tols = append(xs, r), append(ups, up), append(tols, tol)
		}
		if err := errors.Join(
			CheckMonotone("U_p(R)", xs, ups, NonDecreasing, Bands{}),
			CheckMonotone("tol_net(R)", xs, tols, NonDecreasing, Bands{}),
		); err != nil {
			t.Error(err)
		}
	})
	t.Run("premote", func(t *testing.T) {
		var xs, ups, tols []float64
		for p := 0.05; p <= 0.9; p += 0.05 {
			cfg := mms.DefaultConfig()
			cfg.PRemote = p
			up, tol := eval(cfg)
			xs, ups, tols = append(xs, p), append(ups, up), append(tols, tol)
		}
		if err := errors.Join(
			CheckMonotone("U_p(p_remote)", xs, ups, NonIncreasing, Bands{}),
			CheckMonotone("tol_net(p_remote)", xs, tols, NonIncreasing, Bands{}),
		); err != nil {
			t.Error(err)
		}
	})
}

func TestCheckAMVAVsExact(t *testing.T) {
	net := testNetwork()
	if err := CheckAMVAVsExact(net, 0, Bands{}); err != nil {
		t.Fatalf("AMVA outside documented band on test network: %v", err)
	}
	// With an absurdly tight band the same comparison must fire — proof the
	// check has teeth.
	err := CheckAMVAVsExact(net, 0, Bands{AMVAvsExact: 1e-12, AMVAvsExactMulti: 1e-12})
	var v *Violation
	if !errors.As(err, &v) || v.Check != "amva-vs-exact" {
		t.Fatalf("tight-band comparison did not fire: %v", err)
	}
	if !strings.Contains(v.Detail, "rel") {
		t.Errorf("divergence detail missing relative error: %v", v)
	}
}

// TestCheckResultOnPerPENetworks runs the solver-output invariants on the
// asymmetric networks of the extension exhibits (hot spot, mesh, load
// imbalance with idle PEs), solved by AMVA at Solve's defaults, and reads
// each model's Solve against that result: mean U_p is the mean of
// λ_c·(R+C), and memory module j's utilization is the total utilization of
// its station (P + j in the role-major layout; one port).
func TestCheckResultOnPerPENetworks(t *testing.T) {
	type model struct {
		name string
		m    *mms.PEModel
	}
	var models []model
	add := func(name string, m *mms.PEModel, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		models = append(models, model{name, m})
	}
	cfg := mms.DefaultConfig()
	cfg.PRemote = 0.4
	for _, f := range []float64{0, 0.3, 0.5} {
		m, err := mms.BuildHotSpot(cfg, 0, f)
		add(fmt.Sprintf("hotspot f=%g", f), m, err)
	}
	for _, k := range []int{3, 4} {
		m, err := mms.BuildOnTopology(cfg, topology.MustMesh(k))
		add(fmt.Sprintf("mesh k=%d", k), m, err)
	}
	cfg = mms.DefaultConfig()
	for _, spread := range []int{2, 8} {
		threads, err := mms.Imbalance(topology.MustTorus(cfg.K), 16*cfg.Threads, spread)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mms.BuildHeterogeneous(cfg, threads)
		add(fmt.Sprintf("imbalance spread=%d", spread), m, err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	for _, tc := range models {
		net := tc.m.Network()
		res, err := mva.ApproxMultiClass(net, mva.AMVAOptions{Tolerance: 1e-10, MaxIterations: mms.DefaultMaxIterations})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := CheckResult(net, res, Bands{}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		met, err := tc.m.Solve(mms.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p := len(net.Classes)
		var up float64
		for c := range net.Classes {
			up += res.Throughput[c] * net.Stations[c].ServiceTime
		}
		if up /= float64(p); !near(met.MeanUp, up) {
			t.Errorf("%s: mean U_p %v, network λ·(R+C) %v", tc.name, met.MeanUp, up)
		}
		for j, u := range met.MemUtilization {
			if want := res.TotalUtilization(net, p+j); !near(u, want) {
				t.Errorf("%s: memory %d utilization %v, network %v", tc.name, j, u, want)
			}
		}
	}
}
