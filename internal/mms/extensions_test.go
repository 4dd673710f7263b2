package mms

import (
	"math"
	"testing"
)

func TestMemoryPortsImproveUtilization(t *testing.T) {
	cfg := DefaultConfig()
	base, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemoryPorts = 2
	two, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if two.Up <= base.Up {
		t.Errorf("2-port U_p %v not above 1-port %v", two.Up, base.Up)
	}
	if two.LObs >= base.LObs {
		t.Errorf("2-port L_obs %v not below 1-port %v", two.LObs, base.LObs)
	}
	if math.Abs(two.MemUtilization-two.LambdaProc*cfg.MemoryTime/2) > 1e-9 {
		t.Errorf("per-port memory utilization %v inconsistent", two.MemUtilization)
	}
}

func TestSwitchPortsRelieveSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PRemote = 0.6 // network saturated at 1 port
	base, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SwitchPorts = 4
	piped, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if piped.Up < 1.3*base.Up {
		t.Errorf("4-port switches U_p %v, want well above %v", piped.Up, base.Up)
	}
	if piped.SObs >= base.SObs {
		t.Errorf("4-port S_obs %v not below %v", piped.SObs, base.SObs)
	}
}

func TestPortsSymmetricMatchesFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryPorts = 2
	cfg.SwitchPorts = 3
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := m.Solve(SolveOptions{Solver: SymmetricAMVA})
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Solve(SolveOptions{Solver: FullAMVA})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sym.Up-full.Up) > 1e-7 {
		t.Errorf("symmetric %v != full %v with ports", sym.Up, full.Up)
	}
}

func TestManyPortsApproachIdealSubsystem(t *testing.T) {
	// With very many memory ports, the memory behaves like a pure delay of
	// L: U_p must land between the single-port and L=0 systems, close to a
	// delay-only variant.
	cfg := DefaultConfig()
	cfg.MemoryPorts = 64
	many, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemoryPorts = 1
	one, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemoryTime = 0
	zero, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if many.Up <= one.Up || many.Up >= zero.Up {
		t.Errorf("64-port U_p %v not in (%v, %v)", many.Up, one.Up, zero.Up)
	}
	// Residual L_obs approaches the raw service time L.
	if many.LObs > 1.05*cfg.SwitchTime+10 { // L = 10
		t.Errorf("64-port L_obs %v, want ~10", many.LObs)
	}
}

func TestPortValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryPorts = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative MemoryPorts should fail validation")
	}
	cfg = DefaultConfig()
	cfg.SwitchPorts = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative SwitchPorts should fail validation")
	}
}
