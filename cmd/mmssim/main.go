// Command mmssim simulates one MMS configuration (direct discrete-event or
// stochastic-timed-Petri-net engine) and compares the measurements with the
// analytical model.
//
// With -reps > 1 it runs independent replications in parallel (package
// replicate) and reports each estimate as mean ± confidence half-width;
// -precision keeps adding replications until the relative half-width of U_p
// reaches the target or -maxreps caps the budget.
//
// Usage:
//
//	mmssim [-engine stpn|direct] [-seed 1] [-warmup 20000] [-duration 200000]
//	       [-reps 1] [-workers 0] [-precision 0] [-maxreps 64]
//	       [-memdist exp|det|erlang4] [-swdist exp|det|erlang4]
//	       [-k 4] [-nt 8] [-r 10] [-l 10] [-s 10] [-p 0.2] [-psw 0.5] [-uniform]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"lattol/internal/mms"
	"lattol/internal/replicate"
	"lattol/internal/report"
	"lattol/internal/simmms"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mmssim: ")
	var (
		engine   = flag.String("engine", "stpn", "simulation engine: stpn or direct")
		seed     = flag.Int64("seed", 1, "random seed")
		warmup   = flag.Float64("warmup", 20000, "warm-up time discarded before measuring")
		duration = flag.Float64("duration", 200000, "measured simulation time")
		reps     = flag.Int("reps", 1, "independent replications (1 = single run with batch-means CIs)")
		workers  = flag.Int("workers", 0, "replication worker pool size (0 = GOMAXPROCS; estimates are identical for any value)")
		prec     = flag.Float64("precision", 0, "target relative CI half-width of U_p; keeps replicating beyond -reps until met (0 = exactly -reps)")
		maxreps  = flag.Int("maxreps", 64, "replication cap for -precision")
		memdist  = flag.String("memdist", "exp", "memory service distribution: exp, det or erlang4")
		swdist   = flag.String("swdist", "exp", "switch service distribution: exp, det or erlang4")
		window   = flag.Int("window", 0, "max outstanding remote accesses per PE (0 = unbounded; direct engine only)")
		priority = flag.Bool("priority", false, "serve local memory requests first (direct engine only)")
	)
	var cfg mms.Config
	cfg.BindFlags(flag.CommandLine)
	flag.BoolVar(&cfg.Uniform, "uniform", false, "use the uniform remote access pattern")
	flag.IntVar(&cfg.MemoryPorts, "memports", 1, "parallel ports per memory module")
	flag.IntVar(&cfg.SwitchPorts, "swports", 1, "parallel routing engines per switch")
	flag.Parse()

	if *warmup >= *duration {
		log.Fatalf("-warmup (%g) must be smaller than -duration (%g): nothing would be measured", *warmup, *duration)
	}
	if *reps < 1 {
		log.Fatalf("-reps must be at least 1, got %d", *reps)
	}
	if *prec > 0 && *reps < 2 {
		log.Fatalf("-precision needs at least -reps 2 (a variance estimate), got -reps %d", *reps)
	}

	opts := simmms.Options{
		Seed: *seed, Warmup: *warmup, Duration: *duration,
		MemDist:          parseDist(*memdist),
		SwitchDist:       parseDist(*swdist),
		NetworkWindow:    *window,
		LocalMemPriority: *priority,
	}
	switch *engine {
	case "stpn":
		opts.Engine = simmms.STPN
	case "direct":
		opts.Engine = simmms.Direct
	default:
		log.Fatalf("unknown engine %q", *engine)
	}

	ana, err := mms.Solve(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *reps > 1 || *prec > 0 {
		runReplicated(cfg, opts, ana, *reps, *maxreps, *workers, *prec)
		return
	}

	start := time.Now()
	sim, err := simmms.Run(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	t := report.NewTable(
		fmt.Sprintf("simulation (%s, %g time units measured, %v wall) vs analytical model",
			opts.Engine, *duration, elapsed.Round(time.Millisecond)),
		"measure", "simulated", "model", "rel diff")
	add := func(name string, sv, av float64, prec int) {
		t.Add(name, report.Float(sv, prec), report.Float(av, prec), relDiff(sv, av))
	}
	add("U_p", sim.Up, ana.Up, 4)
	add("lambda_proc", sim.LambdaProc, ana.LambdaProc, 5)
	add("lambda_net", sim.LambdaNet, ana.LambdaNet, 5)
	add("S_obs", sim.SObs, ana.SObs, 2)
	add("L_obs", sim.LObs, ana.LObs, 2)
	fmt.Fprint(os.Stdout, t.String())
	fmt.Printf("samples: %d memory accesses, %d network legs\n", sim.Accesses, sim.RemoteLegs)
}

// runReplicated fans the replications over the parallel runner and reports
// mean ± confidence half-width per metric.
func runReplicated(cfg mms.Config, sim simmms.Options, ana mms.Metrics, reps, maxreps, workers int, precision float64) {
	ropts := replicate.Options{
		Sim:       sim,
		MinReps:   reps,
		MaxReps:   maxreps,
		Workers:   workers,
		Precision: precision,
	}
	start := time.Now()
	res, err := replicate.Run(context.Background(), cfg, ropts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	t := report.NewTable(
		fmt.Sprintf("replicated simulation (%s, %d replications, %v wall) vs analytical model",
			sim.Engine, res.Reps, elapsed.Round(time.Millisecond)),
		"measure", "mean", "±95%", "model", "rel diff")
	add := func(name string, m replicate.Metric, av float64, prec int) {
		t.Add(name, report.Float(m.Mean, prec), report.Float(m.HalfCI, prec), report.Float(av, prec), relDiff(m.Mean, av))
	}
	add("U_p", res.Up, ana.Up, 4)
	add("lambda_proc", res.LambdaProc, ana.LambdaProc, 5)
	add("lambda_net", res.LambdaNet, ana.LambdaNet, 5)
	add("S_obs", res.SObs, ana.SObs, 2)
	add("L_obs", res.LObs, ana.LObs, 2)
	fmt.Fprint(os.Stdout, t.String())
	if precision > 0 && !res.Converged {
		log.Printf("warning: precision target %g not reached after %d replications (achieved %.4g); raise -maxreps",
			precision, res.Reps, res.Up.Rel())
	}
}

func relDiff(sv, av float64) string {
	if av == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", math.Abs(sv-av)/av*100)
}

func parseDist(s string) simmms.DistKind {
	switch s {
	case "exp":
		return simmms.ExpDist
	case "det":
		return simmms.DetDist
	case "erlang4":
		return simmms.Erlang4Dist
	default:
		log.Fatalf("unknown distribution %q", s)
		return simmms.ExpDist
	}
}
