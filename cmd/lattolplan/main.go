// Command lattolplan answers the paper's inverse questions from the command
// line: instead of "given this configuration, what is the performance?" it
// solves "what knob value reaches this performance?" by bracketed root
// finding over warm-started solves (package inverse). Each probe round is
// one lockstep batch on eval.Solver, with the solve options lattold's
// workers use, so a plan prints the answer POST /v1/plan gives on a fresh
// single-worker lattold: the same knob, bracket, achieved value and probe
// and solve counts.
//
// Usage:
//
//	lattolplan -knob nt -metric tol_network -target 0.95
//	lattolplan -knob premote -metric u_p -target 0.8 -relation '>='
//	lattolplan -knob nt -metric tol_network -target 0.9 \
//	    -frontier premote -from 0.05 -to 0.2 -steps 4
//
// Knobs: nt, r, l, s, c, premote, psw, k, memports, swports.
// Metrics: u_p, tol_network, tol_memory, s_obs, l_obs, lambda_net,
// cycle_time.
//
// -backend sim answers the same questions against the replicated simulators
// instead of the analytical model (package replicate): each probe runs
// -sim-reps parallel replications and planning proceeds on the means. Probes
// are deterministic (seeds derive from the configuration), so plans are
// reproducible and certifiable exactly like analytical ones.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"lattol/internal/eval"
	"lattol/internal/inverse"
	"lattol/internal/mms"
	"lattol/internal/replicate"
	"lattol/internal/report"
	"lattol/internal/simmms"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lattolplan: ")
	var (
		knobName   = flag.String("knob", "nt", "parameter to solve for: "+strings.Join(mms.ParamNames(), ", "))
		metricName = flag.String("metric", "tol_network", "targeted metric: "+strings.Join(inverse.MetricNames(), ", "))
		target     = flag.Float64("target", 0.95, "metric value to reach")
		relation   = flag.String("relation", ">=", "target relation: >= or <=")
		knobMin    = flag.Float64("min", 0, "search lower bound (0 with -max 0: knob default domain)")
		knobMax    = flag.Float64("max", 0, "search upper bound")
		knobTol    = flag.Float64("knobtol", 0, "relative bracket width for convergence (0: default 1e-6)")
		maxProbes  = flag.Int("max-probes", 0, "probe budget per plan (0: default 64)")
		trace      = flag.Bool("trace", false, "print the probe-by-probe trace")
		csv        = flag.Bool("csv", false, "emit frontier/trace tables as CSV")

		frontier = flag.String("frontier", "", "sweep a second parameter, re-solving the plan per value")
		from     = flag.Float64("from", 0, "frontier range start")
		to       = flag.Float64("to", 0, "frontier range end")
		steps    = flag.Int("steps", 10, "frontier points")

		backend     = flag.String("backend", "solver", "evaluation backend: solver (analytical) or sim (parallel replicated simulation)")
		simEngine   = flag.String("sim-engine", "direct", "sim backend: simulation engine, direct or stpn")
		simSeed     = flag.Int64("sim-seed", 1, "sim backend: base random seed")
		simWarmup   = flag.Float64("sim-warmup", 5000, "sim backend: per-replication warm-up time")
		simDuration = flag.Float64("sim-duration", 40000, "sim backend: per-replication measured time")
		simReps     = flag.Int("sim-reps", 8, "sim backend: replications per probe")
		simMaxReps  = flag.Int("sim-maxreps", 32, "sim backend: replication cap when tightening precision")
		simPrec     = flag.Float64("sim-precision", 0, "sim backend: target relative CI half-width of U_p per probe (0 = exactly -sim-reps)")
		simWorkers  = flag.Int("sim-workers", 0, "sim backend: replication worker pool size (0 = GOMAXPROCS)")
	)
	var base mms.Config
	base.BindFlags(flag.CommandLine)
	flag.Parse()

	knob, err := mms.ParseParam(*knobName)
	if err != nil {
		log.Fatal(err)
	}
	metric, err := inverse.ParseMetric(*metricName)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := inverse.ParseRelation(*relation)
	if err != nil {
		log.Fatal(err)
	}
	spec := inverse.Spec{
		Base:      base,
		Knob:      knob,
		Metric:    metric,
		Target:    *target,
		Relation:  rel,
		Lo:        *knobMin,
		Hi:        *knobMax,
		KnobTol:   *knobTol,
		MaxProbes: *maxProbes,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var ev eval.Evaluator
	switch *backend {
	case "solver":
		ev = eval.NewSolver()
	case "sim":
		if *simWarmup >= *simDuration {
			log.Fatalf("-sim-warmup (%g) must be smaller than -sim-duration (%g): nothing would be measured", *simWarmup, *simDuration)
		}
		ropts := replicate.Options{
			Sim:       simmms.Options{Seed: *simSeed, Warmup: *simWarmup, Duration: *simDuration},
			MinReps:   *simReps,
			MaxReps:   *simMaxReps,
			Precision: *simPrec,
			Workers:   *simWorkers,
		}
		switch *simEngine {
		case "direct":
			ropts.Sim.Engine = simmms.Direct
		case "stpn":
			ropts.Sim.Engine = simmms.STPN
		default:
			log.Fatalf("unknown -sim-engine %q (want direct or stpn)", *simEngine)
		}
		ev = replicate.NewEvaluator(ropts)
	default:
		log.Fatalf("unknown -backend %q (want solver or sim)", *backend)
	}

	if *frontier != "" {
		sweep, err := mms.ParseParam(*frontier)
		if err != nil {
			log.Fatal(err)
		}
		fs := inverse.FrontierSpec{Spec: spec, Sweep: sweep, From: *from, To: *to, Steps: *steps}
		pts, err := inverse.Frontier(ctx, ev, fs)
		if err != nil {
			log.Fatal(err)
		}
		t := report.NewTable(
			fmt.Sprintf("%s needed for %s %s %g, per %s", knob, metric, rel, *target, sweep),
			sweep.String(), knob.String(), "achieved", "binding", "probes", "solves")
		for _, pt := range pts {
			if pt.Err != nil {
				t.Add(report.Float(pt.Sweep, 4), "-", "-", errLabel(pt.Err), "-", "-")
				continue
			}
			t.Add(
				report.Float(pt.Sweep, 4),
				report.Float(pt.Result.Knob, knobPrec(knob)),
				report.Float(pt.Result.Achieved, 6),
				pt.Result.Binding.String(),
				fmt.Sprint(pt.Result.Probes),
				fmt.Sprint(pt.Result.Solves),
			)
		}
		emit(t, *csv)
		return
	}

	res, err := inverse.Solve(ctx, ev, spec)
	if err != nil {
		var inf *inverse.InfeasibleError
		if errors.As(err, &inf) {
			log.Fatalf("infeasible: %v", err)
		}
		log.Fatal(err)
	}
	fmt.Printf("%s = %s for %s %s %g  (achieved %.6g, %s/%s, bracket [%g, %g], %d probes, %d solves)\n",
		knob, report.Float(res.Knob, knobPrec(knob)), metric, rel, *target,
		res.Achieved, res.Objective, res.Binding, res.Lo, res.Hi, res.Probes, res.Solves)
	if *trace {
		t := report.NewTable("probe trace", "#", knob.String(), metric.String(), "feasible", "solves")
		for i, pr := range res.Trace {
			t.Add(fmt.Sprint(i+1), report.Float(pr.Knob, -1), report.Float(pr.Value, 6),
				fmt.Sprint(pr.Feasible), fmt.Sprint(pr.Solves))
		}
		emit(t, *csv)
	}
}

// knobPrec picks the printed precision of a knob value: integers exact,
// continuous knobs at the convergence scale.
func knobPrec(p mms.Param) int {
	if p.Integer() {
		return 0
	}
	return 6
}

// errLabel compresses a per-point error for a table cell.
func errLabel(err error) string {
	var inf *inverse.InfeasibleError
	if errors.As(err, &inf) {
		return "infeasible"
	}
	return "error"
}

func emit(t *report.Table, csv bool) {
	if csv {
		fmt.Fprint(os.Stdout, t.CSV())
		return
	}
	fmt.Fprint(os.Stdout, t.String())
}
