// Command lattolsweep sweeps one model parameter across a range and prints
// every performance measure plus both tolerance indices per point, as an
// aligned table or CSV. It is the generic workhorse behind "how does X move
// when I turn knob Y" questions.
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
	"os/signal"
	"runtime"
	"time"

	"lattol/internal/mms"
	"lattol/internal/report"
	"lattol/internal/sweep"
	"lattol/internal/tolerance"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lattolsweep: ")
	var (
		param   = flag.String("sweep", "premote", "parameter to sweep: nt, r, l, s, premote, psw, k, memports, swports")
		from    = flag.Float64("from", 0.05, "range start")
		to      = flag.Float64("to", 0.9, "range end")
		steps   = flag.Int("steps", 10, "number of points")
		csv     = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		quiet   = flag.Bool("quiet", false, "suppress the live stderr progress counter")

		k   = flag.Int("k", 4, "PEs per torus dimension")
		nt  = flag.Int("nt", 8, "threads per processor")
		r   = flag.Float64("r", 10, "thread runlength R")
		l   = flag.Float64("l", 10, "memory access time L")
		s   = flag.Float64("s", 10, "switch delay S")
		p   = flag.Float64("p", 0.2, "remote access probability")
		psw = flag.Float64("psw", 0.5, "geometric locality parameter")
	)
	flag.Parse()

	base := mms.Config{K: *k, Threads: *nt, Runlength: *r, MemoryTime: *l, SwitchTime: *s, PRemote: *p, Psw: *psw}
	knob, err := mms.ParseParam(*param)
	if err != nil {
		log.Fatal(err)
	}

	values := knob.Grid(*from, *to, *steps)
	type row struct {
		value  float64
		met    mms.Metrics
		tolNet float64
		tolMem float64
	}
	// Ctrl-C cancels the sweep cleanly: no new points are scheduled and the
	// aggregate error reports how far it got.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var counters sweep.Counters
	opts := sweep.Options{Workers: *workers, Counters: &counters}
	// Hand each worker one contiguous run of knob values: combined with the
	// warm-started workspace below, every solve continues from the adjacent
	// point's converged solution.
	if w := effectiveWorkers(*workers, len(values)); w > 0 {
		opts.Chunk = (len(values) + w - 1) / w
	}
	if !*quiet {
		opts.OnPoint = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rlattolsweep: %d/%d points (%d failed, %s/point)   ",
				done, total, counters.Failed.Load(), counters.MeanPointTime().Round(time.Microsecond))
		}
	}
	rows, err := sweep.RunWithWorker(ctx, values, opts,
		func() *mms.Workspace { return new(mms.Workspace) },
		func(ws *mms.Workspace, v float64) (row, error) {
			cfg := base
			knob.Apply(&cfg, v)
			solveOpts := mms.SolveOptions{Workspace: ws, WarmStart: true}
			model, err := mms.Build(cfg)
			if err != nil {
				return row{}, err
			}
			met, err := model.Solve(solveOpts)
			if err != nil {
				return row{}, err
			}
			netIdx, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroRemote, solveOpts)
			if err != nil {
				return row{}, err
			}
			memIdx, err := tolerance.Compute(cfg, tolerance.Memory, tolerance.ZeroDelay, solveOpts)
			if err != nil {
				return row{}, err
			}
			return row{value: v, met: met, tolNet: netIdx.Tol, tolMem: memIdx.Tol}, nil
		})
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable(
		fmt.Sprintf("sweep of %s over [%g, %g] (base: k=%d nt=%d R=%g L=%g S=%g p=%g psw=%g)",
			*param, *from, *to, *k, *nt, *r, *l, *s, *p, *psw),
		*param, "U_p", "lambda_net", "S_obs", "L_obs", "tol_network", "tol_memory")
	for _, rw := range rows {
		t.Add(
			report.Float(rw.value, -1),
			report.Float(rw.met.Up, 4),
			report.Float(rw.met.LambdaNet, 5),
			report.Float(rw.met.SObs, 2),
			report.Float(rw.met.LObs, 2),
			report.Float(rw.tolNet, 4),
			report.Float(rw.tolMem, 4),
		)
	}
	if *csv {
		fmt.Fprint(os.Stdout, t.CSV())
	} else {
		fmt.Fprint(os.Stdout, t.String())
	}
}

// effectiveWorkers resolves the worker count the sweep runner will use:
// GOMAXPROCS when unset, clamped to the point count.
func effectiveWorkers(workers, points int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > points {
		workers = points
	}
	return workers
}
