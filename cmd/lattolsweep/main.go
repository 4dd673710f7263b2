// Command lattolsweep sweeps one model parameter across a range and prints
// every performance measure plus both tolerance indices per point, as an
// aligned table or CSV. It is the generic workhorse behind "how does X move
// when I turn knob Y" questions.
//
// The whole sweep is one lockstep batch (eval.Solver.EvaluateBatch): each
// point's real system is solved once, next to its ZeroRemote and ZeroDelay
// ideal systems. A failing point exits 1, naming its index and knob value.
//
// Usage:
//
//	lattolsweep -sweep premote -from 0.05 -to 0.9 -steps 18
//	lattolsweep -sweep nt -from 1 -to 16 -steps 16 -csv
//	lattolsweep -sweep k -from 2 -to 10 -steps 5 -r 20
//
// Sweepable parameters: nt, r, l, s, premote, psw, k, memports, swports.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lattolsweep: ")
	var (
		param = flag.String("sweep", "premote", "parameter to sweep: nt, r, l, s, premote, psw, k, memports, swports")
		from  = flag.Float64("from", 0.05, "range start")
		to    = flag.Float64("to", 0.9, "range end")
		steps = flag.Int("steps", 10, "number of points (>= 1)")
		csv   = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	var base mms.Config
	base.BindFlags(flag.CommandLine)
	flag.Parse()

	knob, err := mms.ParseParam(*param)
	if err != nil {
		log.Fatal(err)
	}
	if *steps < 1 {
		log.Fatalf("-steps = %d, want >= 1", *steps)
	}

	// Every point is one element of a single lockstep batch: its real system
	// plus both ideal systems, so each real system is solved once.
	values := knob.Grid(*from, *to, *steps)
	cfgs := make([]eval.Config, len(values))
	for i, v := range values {
		cfgs[i].Model = base
		knob.Apply(&cfgs[i].Model, v)
	}
	rows := make([]eval.Outcome, len(cfgs))
	eval.NewSolver().EvaluateBatch(context.Background(), cfgs, eval.Options{TolNetwork: true, TolMemory: true}, rows)
	for i, rw := range rows {
		if rw.Err != nil {
			log.Fatalf("point %d (%s = %g): %v", i, *param, values[i], rw.Err)
		}
	}

	t := report.NewTable(
		fmt.Sprintf("sweep of %s over [%g, %g] (base: k=%d nt=%d R=%g L=%g S=%g p=%g psw=%g)",
			*param, *from, *to, base.K, base.Threads, base.Runlength, base.MemoryTime, base.SwitchTime,
			base.PRemote, base.Psw),
		*param, "U_p", "lambda_net", "S_obs", "L_obs", "tol_network", "tol_memory")
	for i, rw := range rows {
		met := rw.Metrics
		t.Add(
			report.Float(values[i], -1),
			report.Float(met.Up, 4),
			report.Float(met.LambdaNet, 5),
			report.Float(met.SObs, 2),
			report.Float(met.LObs, 2),
			report.Float(met.TolNetwork, 4),
			report.Float(met.TolMemory, 4),
		)
	}
	if *csv {
		fmt.Fprint(os.Stdout, t.CSV())
	} else {
		fmt.Fprint(os.Stdout, t.String())
	}
}
