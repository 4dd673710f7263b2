package mms

import (
	"errors"
	"math"
	"testing"

	"lattol/internal/mva"
	"lattol/internal/queueing"
	"lattol/internal/topology"
	"lattol/internal/validate"
)

// roleVisits returns class c's visit ratios at the P stations of one role.
func roleVisits(net *queueing.Network, c int, role StationRole) []float64 {
	p := len(net.Classes)
	return net.Classes[c].Visits[int(role)*p : int(role+1)*p]
}

func TestHeteroBalancedMatchesSymmetric(t *testing.T) {
	cfg := DefaultConfig()
	threads := make([]int, 16)
	for i := range threads {
		threads[i] = cfg.Threads
	}
	h, err := BuildHeterogeneous(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	met, err := h.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(met.MeanUp-base.Up) > 1e-6 {
		t.Errorf("balanced hetero mean U_p %v != symmetric %v", met.MeanUp, base.Up)
	}
	if met.MaxUp-met.MinUp > 1e-6 {
		t.Errorf("balanced hetero spread %v", met.MaxUp-met.MinUp)
	}
}

func TestHeteroImbalanceCostsThroughput(t *testing.T) {
	// U_p is concave in n_t, so moving threads from starved PEs to loaded
	// ones loses total throughput (quantifying the paper's even-load
	// assumption).
	cfg := DefaultConfig()
	tor := topology.MustTorus(cfg.K)
	prev := math.Inf(1)
	for _, spread := range []int{0, 2, 4, 6} {
		threads, err := Imbalance(tor, 16*8, spread)
		if err != nil {
			t.Fatal(err)
		}
		h, err := BuildHeterogeneous(cfg, threads)
		if err != nil {
			t.Fatal(err)
		}
		met, err := h.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if met.TotalThroughput > prev+1e-9 {
			t.Errorf("spread %d: throughput %v rose above %v", spread, met.TotalThroughput, prev)
		}
		prev = met.TotalThroughput
		if spread > 0 && met.MaxUp-met.MinUp < 0.01 {
			t.Errorf("spread %d: expected per-PE spread, got %v", spread, met.MaxUp-met.MinUp)
		}
	}
}

func TestHeteroZeroThreadPE(t *testing.T) {
	cfg := DefaultConfig()
	threads := make([]int, 16)
	for i := range threads {
		threads[i] = 8
	}
	threads[3] = 0 // one idle PE
	h, err := BuildHeterogeneous(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	met, err := h.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.PerClassUp[3] != 0 {
		t.Errorf("idle PE has U_p %v", met.PerClassUp[3])
	}
	if met.MinUp != 0 {
		t.Errorf("MinUp %v", met.MinUp)
	}
	// The other PEs keep working.
	if met.PerClassUp[0] < 0.5 {
		t.Errorf("active PE U_p %v", met.PerClassUp[0])
	}
}

// TestHeteroValidation covers the config check; the argument checks are in
// TestPEConstructorErrorsNameField.
func TestHeteroValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 0
	if _, err := BuildHeterogeneous(cfg, nil); err == nil {
		t.Error("want config error")
	}
}

func TestImbalanceGenerator(t *testing.T) {
	tor := topology.MustTorus(4)
	threads, err := Imbalance(tor, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	high, low := 0, 0
	for _, nt := range threads {
		total += nt
		switch nt {
		case 11:
			high++
		case 5:
			low++
		default:
			t.Fatalf("unexpected count %d", nt)
		}
	}
	if total != 128 || high != 8 || low != 8 {
		t.Errorf("total %d, high %d, low %d", total, high, low)
	}
}

func TestTopoModelOnTorusMatchesSymmetric(t *testing.T) {
	// Running the general-topology builder on a torus must reproduce the
	// symmetric model's solution (it solves the identical network with the
	// full AMVA).
	cfg := DefaultConfig()
	tm, err := BuildOnTopology(cfg, topology.MustTorus(cfg.K))
	if err != nil {
		t.Fatal(err)
	}
	met, err := tm.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(met.MeanUp-base.Up) > 1e-6 {
		t.Errorf("torus BuildOnTopology U_p %v != symmetric %v", met.MeanUp, base.Up)
	}
	if math.Abs(met.MeanSObs-base.SObs) > 1e-3 {
		t.Errorf("torus BuildOnTopology S_obs %v != symmetric %v", met.MeanSObs, base.SObs)
	}
	if math.Abs(met.MeanLObs-base.LObs) > 1e-3 {
		t.Errorf("torus BuildOnTopology L_obs %v != symmetric %v", met.MeanLObs, base.LObs)
	}
	if met.MaxUp-met.MinUp > 1e-6 {
		t.Errorf("torus should be symmetric, spread %v", met.MaxUp-met.MinUp)
	}
}

func TestMeshWorseThanTorus(t *testing.T) {
	// Without wraparound links the mesh has longer routes and concentrated
	// center traffic: d_avg and S_obs rise, U_p falls.
	cfg := DefaultConfig()
	cfg.PRemote = 0.4
	torus, err := BuildOnTopology(cfg, topology.MustTorus(4))
	if err != nil {
		t.Fatal(err)
	}
	tMet, err := torus.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	mMet, err := mesh.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mMet.MeanUp >= tMet.MeanUp {
		t.Errorf("mesh U_p %v not below torus %v", mMet.MeanUp, tMet.MeanUp)
	}
	if mMet.MeanSObs <= tMet.MeanSObs {
		t.Errorf("mesh S_obs %v not above torus %v", mMet.MeanSObs, tMet.MeanSObs)
	}
}

func TestMeshPerPESpread(t *testing.T) {
	// On a mesh the PEs are not equivalent: expect a visible spread in U_p
	// between corner and center nodes.
	cfg := DefaultConfig()
	cfg.PRemote = 0.4
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	met, err := mesh.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.MaxUp-met.MinUp < 0.005 {
		t.Errorf("mesh per-PE spread %v, want visible asymmetry", met.MaxUp-met.MinUp)
	}
}

func TestTopoModelLocalOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PRemote = 0
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(3))
	if err != nil {
		t.Fatal(err)
	}
	met, err := mesh.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.Threads) / float64(cfg.Threads+1)
	if math.Abs(met.MeanUp-want) > 1e-6 {
		t.Errorf("local-only mesh U_p %v, want %v", met.MeanUp, want)
	}
	if met.MeanSObs != 0 {
		t.Errorf("local-only S_obs %v", met.MeanSObs)
	}
}

func TestTopoModelValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runlength = -1
	if _, err := BuildOnTopology(cfg, topology.MustMesh(3)); err == nil {
		t.Error("want error for invalid config")
	}
	cfg = DefaultConfig()
	cfg.Uniform = true
	if _, err := BuildOnTopology(cfg, topology.MustMesh(3)); validate.Field(err) != "Uniform" {
		t.Errorf("uniform pattern on a general network: err %v, want a Uniform field error", err)
	}
}

func TestTopoModelVisitConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PRemote = 0.3
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	net := mesh.Network()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	for c := range net.Classes {
		var sumMem, sumOut float64
		for j, em := range roleVisits(net, c, Memory) {
			sumMem += em
			sumOut += roleVisits(net, c, Outbound)[j]
		}
		if math.Abs(sumMem-1) > 1e-9 {
			t.Errorf("class %d: Σem = %v", c, sumMem)
		}
		if math.Abs(sumOut-2*cfg.PRemote) > 1e-9 {
			t.Errorf("class %d: Σeo = %v, want %v", c, sumOut, 2*cfg.PRemote)
		}
	}
}

func TestHotSpotZeroFractionMatchesSymmetric(t *testing.T) {
	cfg := DefaultConfig()
	h, err := BuildHotSpot(cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	met, err := h.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(met.MeanUp-base.Up) > 1e-6 {
		t.Errorf("hot fraction 0: mean U_p %v != symmetric %v", met.MeanUp, base.Up)
	}
	if met.MaxUp-met.MinUp > 1e-6 {
		t.Errorf("hot fraction 0 should be symmetric: spread %v", met.MaxUp-met.MinUp)
	}
}

func TestHotSpotDegradesVictims(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PRemote = 0.4
	h, err := BuildHotSpot(cfg, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	met, err := h.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if met.MinUp >= base.Up {
		t.Errorf("hot-spot min U_p %v not below symmetric %v", met.MinUp, base.Up)
	}
	if met.MemUtilization[0] < 0.85 {
		t.Errorf("hot module utilization %v, want near saturation", met.MemUtilization[0])
	}
	if met.MaxUp <= met.MinUp {
		t.Error("expected per-PE spread under hot-spot traffic")
	}
}

func TestHotSpotVisitConservation(t *testing.T) {
	// Every class still issues exactly one memory access per cycle and the
	// network visit identities hold per class.
	cfg := DefaultConfig()
	cfg.PRemote = 0.4
	h, err := BuildHotSpot(cfg, 5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	net := h.Network()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := mva.ApproxMultiClass(net, mva.AMVAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckLittle(net, 1e-6); err != nil {
		t.Error(err)
	}
	for c := range net.Classes {
		var sum float64
		for _, v := range roleVisits(net, c, Memory) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("class %d: Σem = %v, want 1", c, sum)
		}
	}
}

// TestHotSpotValidation covers the config check; the argument checks are in
// TestPEConstructorErrorsNameField.
func TestHotSpotValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 0
	if _, err := BuildHotSpot(cfg, 0, 0.2); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestHotSpotOwnNodeSuffersMost(t *testing.T) {
	// The hot node's own threads queue behind the whole machine's hot
	// traffic at their local memory, so the hot node holds the *lowest*
	// U_p — even though its hot-fraction accesses avoid the network.
	cfg := DefaultConfig()
	cfg.PRemote = 0.4
	h, err := BuildHotSpot(cfg, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	met, err := h.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.PerClassUp[3] > met.MinUp+1e-9 {
		t.Errorf("hot node's own U_p %v is not the minimum %v", met.PerClassUp[3], met.MinUp)
	}
}

// peModels builds one model per constructor, each on its exhibit's
// workload.
func peModels(t *testing.T) map[string]*PEModel {
	t.Helper()
	cfg := DefaultConfig()
	threads, err := Imbalance(topology.MustTorus(cfg.K), 16*cfg.Threads, 2)
	if err != nil {
		t.Fatal(err)
	}
	imb, err := BuildHeterogeneous(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PRemote = 0.4
	hot, err := BuildHotSpot(cfg, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*PEModel{"imbalance": imb, "hotspot": hot, "mesh": mesh}
}

func TestPEModelSolveOptions(t *testing.T) {
	for name, m := range peModels(t) {
		for _, tc := range []struct {
			opts  SolveOptions
			field string
		}{
			{SolveOptions{Solver: 99}, "Solver"},
			{SolveOptions{Tolerance: -1}, "Tolerance"},
			{SolveOptions{Accel: 99}, "Accel"},
		} {
			if _, err := m.Solve(tc.opts); validate.Field(err) != tc.field {
				t.Errorf("%s %+v: err %v, want a %s field error", name, tc.opts, err, tc.field)
			}
		}
		// 16 classes of 6–10 threads are far beyond the exact recursion:
		// asking for it must not be answered by AMVA.
		var sse *mva.StateSpaceError
		if _, err := m.Solve(SolveOptions{Solver: ExactMVA}); !errors.As(err, &sse) {
			t.Errorf("%s: ExactMVA err %v, want a state-space error", name, err)
		}
		plain, err := m.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.Solve(SolveOptions{Accel: mva.AccelAnderson})
		if err != nil {
			t.Fatal(err)
		}
		if acc.Iterations == plain.Iterations || math.Abs(acc.MeanUp-plain.MeanUp) > 1e-8 {
			t.Errorf("%s: Anderson %d iterations U_p %v, plain %d iterations U_p %v: want the same fixed point in a different count",
				name, acc.Iterations, acc.MeanUp, plain.Iterations, plain.MeanUp)
		}
		ws := new(Workspace)
		if _, err := m.Solve(SolveOptions{WarmStart: true, Workspace: ws}); err != nil {
			t.Fatal(err)
		}
		warm, err := m.Solve(SolveOptions{WarmStart: true, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Iterations >= plain.Iterations {
			t.Errorf("%s: warm re-solve took %d iterations, cold %d", name, warm.Iterations, plain.Iterations)
		}
	}
}

func TestPEModelZeroThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 0
	imb, err := BuildHeterogeneous(cfg, make([]int, 16))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := BuildHotSpot(cfg, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *PEModel
		pes  int
	}{{"imbalance", imb, 16}, {"hotspot", hot, 16}, {"mesh", mesh, 9}} {
		t.Run(tc.name, func(t *testing.T) {
			met, err := tc.m.Solve(SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(met.PerClassUp) != tc.pes || len(met.MemUtilization) != tc.pes {
				t.Fatalf("%d U_p and %d memory entries, want %d each", len(met.PerClassUp), len(met.MemUtilization), tc.pes)
			}
			for i, up := range met.PerClassUp {
				if up != 0 || met.MemUtilization[i] != 0 {
					t.Errorf("PE %d: U_p %v, memory utilization %v", i, up, met.MemUtilization[i])
				}
			}
			if met.MinUp != 0 || met.MaxUp != 0 || met.MeanUp != 0 || met.TotalThroughput != 0 ||
				met.MeanSObs != 0 || met.MeanLObs != 0 || met.Iterations != 0 {
				t.Errorf("idle system: %+v", met)
			}
			if met.MeanDistance <= 0 {
				t.Errorf("d_avg %v: the pattern is defined without threads", met.MeanDistance)
			}
		})
	}
}

// TestHotSpotExact solves a 2×2 hot spot with the exact recursion and reads
// it against mva.ExactMultiClass of the model's own network.
func TestHotSpotExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K, cfg.Threads, cfg.PRemote = 2, 3, 0.4
	h, err := BuildHotSpot(cfg, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	met, err := h.Solve(SolveOptions{Solver: ExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	net := h.Network()
	res, err := mva.ExactMultiClass(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if met.Iterations != 0 {
		t.Errorf("exact solve reports %d iterations", met.Iterations)
	}
	for c, up := range met.PerClassUp {
		if want := res.Throughput[c] * cfg.Runlength; math.Abs(up-want) > 1e-12*want {
			t.Errorf("PE %d: U_p %v, exact λ·R %v", c, up, want)
		}
	}
	for j, u := range met.MemUtilization {
		if want := res.TotalUtilization(net, stationIndex(4, Memory, topology.Node(j))); math.Abs(u-want) > 1e-12*want {
			t.Errorf("memory %d: utilization %v, exact %v", j, u, want)
		}
	}
	amva, err := h.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(amva.MeanUp-met.MeanUp) > 0.05*met.MeanUp || amva.MeanUp == met.MeanUp {
		t.Errorf("AMVA mean U_p %v, exact %v: want close but distinct", amva.MeanUp, met.MeanUp)
	}
}

// TestPEConstructorErrorsNameField verifies every argument check of the
// per-PE constructors reports a field-named error naming the argument.
func TestPEConstructorErrorsNameField(t *testing.T) {
	negative := make([]int, 16)
	negative[3] = -1
	remote := DefaultConfig()
	remote.PRemote = 0.2
	nan := DefaultConfig()
	nan.PRemote = math.NaN()
	cases := []struct {
		name  string
		build func() error
		field string
	}{
		{"hetero-length", func() error { _, err := BuildHeterogeneous(DefaultConfig(), []int{1, 2}); return err }, "threads"},
		{"hetero-negative", func() error { _, err := BuildHeterogeneous(DefaultConfig(), negative); return err }, "threads"},
		{"hotspot-frac-low", func() error { _, err := BuildHotSpot(DefaultConfig(), 0, -0.1); return err }, "frac"},
		{"hotspot-frac-high", func() error { _, err := BuildHotSpot(DefaultConfig(), 0, 1.1); return err }, "frac"},
		{"hotspot-frac-nan", func() error { _, err := BuildHotSpot(DefaultConfig(), 0, math.NaN()); return err }, "frac"},
		{"hotspot-node", func() error { _, err := BuildHotSpot(DefaultConfig(), 99, 0.2); return err }, "hot"},
		{"topo-premote", func() error { _, err := BuildOnTopology(nan, topology.MustMesh(3)); return err }, "PRemote"},
		{"topo-single-node", func() error { _, err := BuildOnTopology(remote, topology.MustMesh(1)); return err }, "PRemote"},
		{"imbalance-total", func() error { _, err := Imbalance(topology.MustTorus(4), 127, 0); return err }, "total"},
		{"imbalance-negative-total", func() error { _, err := Imbalance(topology.MustTorus(4), -16, 0); return err }, "total"},
		{"imbalance-spread", func() error { _, err := Imbalance(topology.MustTorus(4), 128, 9); return err }, "spread"},
		{"imbalance-odd", func() error { _, err := Imbalance(topology.MustTorus(3), 9, 1); return err }, "spread"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build(); validate.Field(err) != tc.field {
				t.Errorf("err = %v, want a %s field error", err, tc.field)
			}
		})
	}
}
