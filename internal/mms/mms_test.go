package mms

import (
	"math"
	"testing"
)

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.K != 4 || cfg.Threads != 8 || cfg.Runlength != 10 ||
		cfg.MemoryTime != 10 || cfg.SwitchTime != 10 || cfg.PRemote != 0.2 || cfg.Psw != 0.5 {
		t.Errorf("defaults drifted from Table 1: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad K", func(c *Config) { c.K = 0 }},
		{"negative threads", func(c *Config) { c.Threads = -1 }},
		{"negative R", func(c *Config) { c.Runlength = -1 }},
		{"zero R", func(c *Config) { c.Runlength = 0 }},
		{"nan L", func(c *Config) { c.MemoryTime = math.NaN() }},
		{"inf S", func(c *Config) { c.SwitchTime = math.Inf(1) }},
		{"negative C", func(c *Config) { c.ContextSwitch = -1 }},
		{"p out of range", func(c *Config) { c.PRemote = 1.5 }},
		{"nan p", func(c *Config) { c.PRemote = math.NaN() }},
		{"k=1 with remote", func(c *Config) { c.K = 1; c.PRemote = 0.2 }},
		{"bad psw", func(c *Config) { c.Psw = 0 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestZeroRunlengthWithContextSwitchIsValid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runlength = 0
	cfg.ContextSwitch = 5
	if err := cfg.Validate(); err != nil {
		t.Errorf("R=0 with C>0 should validate: %v", err)
	}
}

func TestMeanDistanceMatchesPaper(t *testing.T) {
	m, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := m.MeanDistance(); math.Abs(d-1.7333333333333334) > 1e-12 {
		t.Errorf("d_avg = %v, want 1.733", d)
	}
	if u := m.UnloadedNetworkLatency(); math.Abs(u-27.333333333333336) > 1e-9 {
		t.Errorf("unloaded S_obs = %v, want 27.33", u)
	}
}

func TestVisitRatioInvariants(t *testing.T) {
	// Per thread cycle of class 0: Σ em = 1, Σ eo = 2·p_remote,
	// Σ ei = 2·p_remote·d_avg.
	for _, cfg := range []Config{
		DefaultConfig(),
		{K: 6, Threads: 4, Runlength: 20, MemoryTime: 5, SwitchTime: 2, PRemote: 0.7, Psw: 0.3},
		{K: 3, Threads: 2, Runlength: 1, MemoryTime: 1, SwitchTime: 1, PRemote: 1, Psw: 0.9},
	} {
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sumMem, sumOut, sumIn float64
		for j := range m.visitMem {
			sumMem += m.visitMem[j]
			sumOut += m.visitOut[j]
			sumIn += m.visitIn[j]
		}
		if math.Abs(sumMem-1) > 1e-9 {
			t.Errorf("cfg %+v: Σem = %v, want 1", cfg, sumMem)
		}
		if math.Abs(sumOut-2*cfg.PRemote) > 1e-9 {
			t.Errorf("cfg %+v: Σeo = %v, want %v", cfg, sumOut, 2*cfg.PRemote)
		}
		if math.Abs(sumIn-2*cfg.PRemote*m.MeanDistance()) > 1e-9 {
			t.Errorf("cfg %+v: Σei = %v, want %v", cfg, sumIn, 2*cfg.PRemote*m.MeanDistance())
		}
	}
}

func TestLocalOnlyWorkload(t *testing.T) {
	// p_remote = 0 degenerates to a two-station (processor + local memory)
	// closed network with the balanced-network closed form
	// U_p = λ·R, λ = n/(D·(M+n-1)) when R == L.
	cfg := DefaultConfig()
	cfg.PRemote = 0
	met, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.Threads) / float64(cfg.Threads+1) // n/(n+1) for R=L
	if math.Abs(met.Up-want) > 1e-6 {
		t.Errorf("U_p = %v, want %v", met.Up, want)
	}
	if met.SObs != 0 || met.LambdaNet != 0 {
		t.Errorf("local-only workload has SObs=%v λnet=%v", met.SObs, met.LambdaNet)
	}
}

func TestSingleNodeSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 1
	cfg.PRemote = 0
	met, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if met.Up <= 0 || met.Up > 1 {
		t.Errorf("U_p = %v", met.Up)
	}
}

func TestZeroThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 0
	met, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if met.Up != 0 || met.LambdaProc != 0 {
		t.Errorf("zero threads: %+v", met)
	}
}

func TestSymmetricMatchesFullAMVA(t *testing.T) {
	// The symmetric fast path must compute the same fixed point as the
	// general multiclass iteration.
	for _, cfg := range []Config{
		DefaultConfig(),
		{K: 2, Threads: 3, Runlength: 5, MemoryTime: 10, SwitchTime: 4, PRemote: 0.5, Psw: 0.5},
		{K: 3, Threads: 2, Runlength: 10, MemoryTime: 10, SwitchTime: 10, PRemote: 0.9, Psw: 0.8},
	} {
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
		if math.Abs(sym.Up-full.Up) > 1e-7 || math.Abs(sym.SObs-full.SObs) > 1e-5 ||
			math.Abs(sym.LObs-full.LObs) > 1e-5 {
			t.Errorf("cfg %+v: symmetric %+v != full %+v", cfg, sym, full)
		}
	}
}

func TestSymmetricCloseToExactMVA(t *testing.T) {
	// On a tiny system (k=2, n_t=2: 3^4 = 81 lattice points... actually
	// (2+1)^4) the exact multiclass recursion is feasible; AMVA should be
	// within a few percent.
	cfg := Config{K: 2, Threads: 2, Runlength: 10, MemoryTime: 10, SwitchTime: 10, PRemote: 0.4, Psw: 0.5}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := m.Solve(SolveOptions{Solver: SymmetricAMVA})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := m.Solve(SolveOptions{Solver: ExactMVA})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(approx.Up-exact.Up) / exact.Up; rel > 0.05 {
		t.Errorf("U_p approx %v vs exact %v (rel %v)", approx.Up, exact.Up, rel)
	}
}

func TestPaperOperatingPoint(t *testing.T) {
	// Paper Table 2, row R=10, n_t=8, p_remote=0.2 reports S_obs = 53 and
	// U_p ≈ 0.82; our model must land close (the paper's own rounding is
	// coarse).
	met, err := Solve(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if met.SObs < 48 || met.SObs > 58 {
		t.Errorf("S_obs = %v, want ≈53", met.SObs)
	}
	if met.Up < 0.78 || met.Up > 0.87 {
		t.Errorf("U_p = %v, want ≈0.82", met.Up)
	}
}

func TestLambdaNetBelowSaturation(t *testing.T) {
	// λ_net can never exceed the paper's Eq. 4 saturation rate
	// 1/(2·d_avg·S).
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9} {
		cfg := DefaultConfig()
		cfg.PRemote = p
		cfg.Threads = 10
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		met, err := m.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sat := 1 / (2 * m.MeanDistance() * cfg.SwitchTime)
		if met.LambdaNet > sat*1.0001 {
			t.Errorf("p=%v: λ_net = %v exceeds saturation %v", p, met.LambdaNet, sat)
		}
	}
}

func TestUpMonotoneInThreads(t *testing.T) {
	// More threads never hurt U_p in this model (latency hiding).
	cfg := DefaultConfig()
	prev := 0.0
	for nt := 1; nt <= 12; nt++ {
		cfg.Threads = nt
		met, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if met.Up < prev-1e-9 {
			t.Errorf("n_t=%d: U_p %v < previous %v", nt, met.Up, prev)
		}
		prev = met.Up
	}
}

func TestUpDecreasingInPRemote(t *testing.T) {
	// Past the critical point, more remote traffic lowers U_p; across the
	// whole range U_p must be nonincreasing for S, L >= R.
	cfg := DefaultConfig()
	prev := math.Inf(1)
	for _, p := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9} {
		cfg.PRemote = p
		met, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if met.Up > prev+1e-9 {
			t.Errorf("p=%v: U_p %v > previous %v", p, met.Up, prev)
		}
		prev = met.Up
	}
}

func TestUtilizationsInRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PRemote = 0.6
	met, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]float64{
		"Up": met.Up, "mem": met.MemUtilization,
		"out": met.OutUtilization, "in": met.InUtilization,
	} {
		if u < 0 || u > 1+1e-9 {
			t.Errorf("%s utilization %v out of [0,1]", name, u)
		}
	}
}

func TestUniformVsGeometricLargeSystem(t *testing.T) {
	// Paper Section 7: geometric beats uniform markedly on large systems.
	cfg := DefaultConfig()
	cfg.K = 10
	geo, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uniform = true
	uni, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if geo.Up < 1.5*uni.Up {
		t.Errorf("geometric U_p %v not markedly above uniform %v", geo.Up, uni.Up)
	}
	if uni.SObs < 3*geo.SObs {
		t.Errorf("uniform S_obs %v not much larger than geometric %v", uni.SObs, geo.SObs)
	}
}

func TestContextSwitchOverheadLowersThroughput(t *testing.T) {
	cfg := DefaultConfig()
	base, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ContextSwitch = 5
	slow, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.LambdaProc >= base.LambdaProc {
		t.Errorf("λ with C=5 (%v) not below C=0 (%v)", slow.LambdaProc, base.LambdaProc)
	}
}

func TestStationRoleString(t *testing.T) {
	want := map[StationRole]string{Processor: "processor", Memory: "memory", Outbound: "outbound", Inbound: "inbound"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if StationRole(9).String() != "StationRole(9)" {
		t.Error("unknown role string")
	}
}

func TestNetworkValidates(t *testing.T) {
	m, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net := m.Network()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(net.Stations) != 64 || len(net.Classes) != 16 {
		t.Errorf("network has %d stations, %d classes; want 64, 16", len(net.Stations), len(net.Classes))
	}
}

func TestUnknownSolver(t *testing.T) {
	m, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(SolveOptions{Solver: Solver(9)}); err == nil {
		t.Error("want unknown-solver error")
	}
}

func TestSolverString(t *testing.T) {
	if SymmetricAMVA.String() != "symmetric-amva" || FullAMVA.String() != "full-amva" ||
		ExactMVA.String() != "exact-mva" || Solver(7).String() != "Solver(7)" {
		t.Error("solver strings")
	}
}
