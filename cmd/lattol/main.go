// Command lattol solves one MMS configuration with the analytical model and
// prints the paper's performance measures, tolerance indices and bottleneck
// analysis.
//
// Usage:
//
//	lattol [-k 4] [-nt 8] [-r 10] [-l 10] [-s 10] [-p 0.2] [-psw 0.5]
//	       [-c 0] [-uniform] [-solver symmetric|full|exact]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"lattol/internal/bottleneck"
	"lattol/internal/mms"
	"lattol/internal/report"
	"lattol/internal/tolerance"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lattol: ")

	var cfg mms.Config
	cfg.BindFlags(flag.CommandLine)
	flag.Float64Var(&cfg.ContextSwitch, "c", 0, "context switch overhead C")
	flag.BoolVar(&cfg.Uniform, "uniform", false, "use the uniform remote access pattern")
	flag.IntVar(&cfg.MemoryPorts, "memports", 1, "parallel ports per memory module")
	flag.IntVar(&cfg.SwitchPorts, "swports", 1, "parallel routing engines per switch")
	solver := flag.String("solver", "symmetric", "solver: symmetric, full or exact")
	flag.Parse()

	sv, err := mms.ParseSolver(*solver)
	if err != nil {
		log.Fatal(err)
	}
	opts := mms.SolveOptions{Solver: sv}

	model, err := mms.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	met, err := model.Solve(opts)
	if err != nil {
		log.Fatal(err)
	}
	netIdx, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroRemote, opts)
	if err != nil {
		log.Fatal(err)
	}
	memIdx, err := tolerance.Compute(cfg, tolerance.Memory, tolerance.ZeroDelay, opts)
	if err != nil {
		log.Fatal(err)
	}
	ba, err := bottleneck.Analyze(cfg)
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable(fmt.Sprintf(
		"MMS %dx%d torus, n_t=%d R=%g L=%g S=%g p_remote=%g (%s pattern, d_avg=%.3f)",
		cfg.K, cfg.K, cfg.Threads, cfg.Runlength, cfg.MemoryTime, cfg.SwitchTime, cfg.PRemote,
		patternName(model), model.MeanDistance()),
		"measure", "value")
	t.Add("U_p (processor utilization)", report.Float(met.Up, 4))
	t.Add("lambda (memory access rate)", report.Float(met.LambdaProc, 5))
	t.Add("lambda_net (messages to IN)", report.Float(met.LambdaNet, 5))
	t.Add("S_obs (one-way network latency)", report.Float(met.SObs, 2))
	t.Add("S unloaded ((d_avg+1)·S)", report.Float(model.UnloadedNetworkLatency(), 2))
	t.Add("L_obs (observed memory latency)", report.Float(met.LObs, 2))
	t.Add("cycle time per thread", report.Float(met.CycleTime, 2))
	t.Add("memory utilization", report.Float(met.MemUtilization, 4))
	t.Add("inbound switch utilization", report.Float(met.InUtilization, 4))
	t.Add("tol_network (ideal: p_remote=0)", fmt.Sprintf("%s  [%s]", report.Float(netIdx.Tol, 4), netIdx.Zone()))
	t.Add("tol_memory (ideal: L=0)", fmt.Sprintf("%s  [%s]", report.Float(memIdx.Tol, 4), memIdx.Zone()))
	t.Add("lambda_net saturation (Eq.4)", report.Float(ba.NetSaturationRate, 5))
	t.Add("critical p_remote (Eq.5)", report.Float(ba.CriticalPRemote, 3))
	t.Add("saturation p_remote", report.Float(ba.SaturationPRemote, 3))
	t.Add("operating regime", ba.ClassifyRegime(cfg.PRemote).String())
	fmt.Fprint(os.Stdout, t.String())
}

func patternName(m *mms.Model) string {
	if m.Pattern() == nil {
		return "local-only"
	}
	return m.Pattern().Name()
}
