package mms

import (
	"math"
	"testing"

	"lattol/internal/topology"
	"lattol/internal/validate"
)

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
		t.Errorf("torus TopoModel U_p %v != symmetric %v", met.MeanUp, base.Up)
	}
	if math.Abs(met.MeanSObs-base.SObs) > 1e-3 {
		t.Errorf("torus TopoModel S_obs %v != symmetric %v", met.MeanSObs, base.SObs)
	}
	if math.Abs(met.MeanLObs-base.LObs) > 1e-3 {
		t.Errorf("torus TopoModel L_obs %v != symmetric %v", met.MeanLObs, base.LObs)
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

func TestTopoModelZeroThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 0
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(3))
	if err != nil {
		t.Fatal(err)
	}
	met, err := mesh.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if met.MeanUp != 0 {
		t.Errorf("zero-thread mesh: %+v", met)
	}
}

func TestTopoModelValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runlength = -1
	if _, err := BuildOnTopology(cfg, topology.MustMesh(3)); err == nil {
		t.Error("want error for invalid config")
	}
	cfg = DefaultConfig()
	cfg.PRemote = 0.2
	if _, err := BuildOnTopology(cfg, topology.MustMesh(1)); err == nil {
		t.Error("want error for 1-node network with remote traffic")
	}
	cfg.PRemote = math.NaN()
	if _, err := BuildOnTopology(cfg, topology.MustMesh(3)); err == nil {
		t.Error("want error for NaN PRemote")
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
	for c := range mesh.mem {
		var sumMem, sumOut float64
		for j := range mesh.mem[c] {
			sumMem += mesh.mem[c][j]
			sumOut += mesh.out[c][j]
		}
		if math.Abs(sumMem-1) > 1e-9 {
			t.Errorf("class %d: Σem = %v", c, sumMem)
		}
		if math.Abs(sumOut-2*cfg.PRemote) > 1e-9 {
			t.Errorf("class %d: Σeo = %v, want %v", c, sumOut, 2*cfg.PRemote)
		}
	}
}
