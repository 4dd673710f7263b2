// Package replicate runs independent simulation replications in parallel and
// aggregates them into confidence-bounded estimates, making the simulators
// (package simmms) servable through the same evaluation interface as the
// analytical solvers: Evaluator implements eval.Evaluator's one batch
// method, replicating each element in turn.
//
// The runner fans N replications over a bounded pool of persistent workers.
// Each worker owns one simmms.Replicator — the model is built once per worker
// and replayed with per-replication seeds — so steady-state replication costs
// no allocation and no rebuild. Replication i always runs with seed
// sweep.DeriveSeed(base, i), and results are folded into the per-metric
// accumulators in replication-index order at round boundaries, so the
// estimates are bit-identical for any worker count.
//
// Stopping is adaptive: at least MinReps replications run, then rounds of
// Round more are added until the Student-t confidence half-width of U_p,
// relative to its mean, reaches Precision — or MaxReps caps the budget.
package replicate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"

	"lattol/internal/mms"
	"lattol/internal/simmms"
	"lattol/internal/stats"
	"lattol/internal/sweep"
)

// Options configures a replication run.
type Options struct {
	// Sim configures the simulator replayed by every replication. Sim.Seed is
	// the base seed; replication i derives its own stream via
	// sweep.DeriveSeed(Sim.Seed, i), so overlapping streams across
	// replications are statistically impossible rather than merely unlikely.
	Sim simmms.Options
	// MinReps is the number of replications always run (default 8; at least
	// 2, the minimum for a variance estimate).
	MinReps int
	// MaxReps caps the total number of replications (default 64).
	MaxReps int
	// Round is how many replications each adaptive round adds after MinReps
	// (default: the worker count, so every round keeps the pool full).
	Round int
	// Workers bounds the worker pool (default runtime.GOMAXPROCS(0)).
	// The results are bit-identical for any value.
	Workers int
	// Precision, when positive, is the target relative confidence half-width
	// of U_p: replication stops once HalfCI/Mean <= Precision. Zero runs
	// exactly MinReps replications.
	Precision float64
	// Confidence is the two-sided confidence level for all intervals
	// (default 0.95).
	Confidence float64
}

func (o Options) withDefaults() Options {
	if o.MinReps <= 0 {
		o.MinReps = 8
	}
	if o.MinReps < 2 {
		o.MinReps = 2
	}
	if o.MaxReps <= 0 {
		o.MaxReps = 64
	}
	if o.MaxReps < o.MinReps {
		o.MaxReps = o.MinReps
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Round <= 0 {
		o.Round = o.Workers
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	return o
}

// Metric is one replicated estimate: the across-replication mean with its
// Student-t confidence half-width (each replication contributes one
// observation, so the intervals are valid without batch-means assumptions).
type Metric struct {
	Mean   float64
	HalfCI float64
	StdDev float64
	N      int64
}

// Rel returns the relative half-width HalfCI/|Mean| (0 when the interval is
// degenerate, +Inf when the mean is zero but the interval is not).
func (m Metric) Rel() float64 {
	if m.HalfCI == 0 {
		return 0
	}
	if m.Mean == 0 {
		return math.Inf(1)
	}
	return m.HalfCI / math.Abs(m.Mean)
}

// Result aggregates a replication run.
type Result struct {
	Up         Metric
	LambdaProc Metric
	LambdaNet  Metric
	SObs       Metric
	LObs       Metric
	LObsLocal  Metric
	LObsRemote Metric

	// Reps is the number of replications folded into the estimates.
	Reps int
	// Converged reports whether the Precision target was met (always true
	// when no target was requested).
	Converged bool
}

// Metrics maps the replicated means onto the analytical solver's metric
// struct, so simulation results flow through code written against
// mms.Metrics. The cycle time follows from Little's law on the closed
// per-processor population: n_t threads circulate at rate λ_proc.
func (r Result) Metrics(cfg mms.Config) mms.Metrics {
	m := mms.Metrics{
		Up:         r.Up.Mean,
		LambdaProc: r.LambdaProc.Mean,
		LambdaNet:  r.LambdaNet.Mean,
		SObs:       r.SObs.Mean,
		LObs:       r.LObs.Mean,
	}
	if m.LambdaProc > 0 {
		m.CycleTime = float64(cfg.Threads) / m.LambdaProc
	}
	return m
}

// PanicError reports a replication that panicked; the panic is contained to
// its worker and surfaced as an error with the captured stack.
type PanicError struct {
	Rep   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("replicate: replication %d panicked: %v\n%s", e.Rep, e.Value, e.Stack)
}

// accum folds per-replication results in index order.
type accum struct {
	up, lambdaProc, lambdaNet, sObs, lObs, lObsLocal, lObsRemote stats.Welford
}

func (a *accum) add(r simmms.Result) {
	a.up.Add(r.Up)
	a.lambdaProc.Add(r.LambdaProc)
	a.lambdaNet.Add(r.LambdaNet)
	a.sObs.Add(r.SObs)
	a.lObs.Add(r.LObs)
	a.lObsLocal.Add(r.LObsLocal)
	a.lObsRemote.Add(r.LObsRemote)
}

func metricOf(w *stats.Welford, confidence float64) Metric {
	return Metric{Mean: w.Mean(), HalfCI: w.HalfCI(confidence), StdDev: w.StdDev(), N: w.Count()}
}

func (a *accum) result(confidence float64, reps int, converged bool) Result {
	return Result{
		Up:         metricOf(&a.up, confidence),
		LambdaProc: metricOf(&a.lambdaProc, confidence),
		LambdaNet:  metricOf(&a.lambdaNet, confidence),
		SObs:       metricOf(&a.sObs, confidence),
		LObs:       metricOf(&a.lObs, confidence),
		LObsLocal:  metricOf(&a.lObsLocal, confidence),
		LObsRemote: metricOf(&a.lObsRemote, confidence),
		Reps:       reps,
		Converged:  converged,
	}
}

// pool is the persistent worker pool for one Run: Workers goroutines, each
// owning one lazily built Replicator, fed half-open index ranges per round.
// Worker w takes indices congruent to w modulo the pool size, so the
// index→result mapping — and therefore the folded estimates — do not depend
// on scheduling.
type pool struct {
	cfg     mms.Config
	opts    Options
	results []simmms.Result
	reps    []*simmms.Replicator
	jobs    []chan [2]int // per-worker round ranges
	done    chan error    // one message per worker per round
}

func newPool(cfg mms.Config, opts Options, capacity int) *pool {
	p := &pool{
		cfg:     cfg,
		opts:    opts,
		results: make([]simmms.Result, 0, capacity),
		reps:    make([]*simmms.Replicator, opts.Workers),
		jobs:    make([]chan [2]int, opts.Workers),
		done:    make(chan error, opts.Workers),
	}
	for w := range p.jobs {
		p.jobs[w] = make(chan [2]int)
	}
	return p
}

func (p *pool) start(ctx context.Context) {
	for w := 0; w < p.opts.Workers; w++ {
		go p.worker(ctx, w)
	}
}

func (p *pool) stop() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

func (p *pool) worker(ctx context.Context, w int) {
	for rng := range p.jobs[w] {
		p.done <- p.runRange(ctx, w, rng[0], rng[1])
	}
}

// runRange executes this worker's share of one round: replications
// start+w, start+w+Workers, ... below end. A panic in the simulator is
// converted to a *PanicError instead of tearing the process down.
func (p *pool) runRange(ctx context.Context, w, start, end int) (err error) {
	i := start + w
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Rep: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if i < end && p.reps[w] == nil {
		rep, rerr := simmms.NewReplicator(p.cfg, p.opts.Sim)
		if rerr != nil {
			return rerr
		}
		p.reps[w] = rep
	}
	for ; i < end; i += p.opts.Workers {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("replicate: replication %d: %w", i, cerr)
		}
		p.results[i] = p.reps[w].Replicate(sweep.DeriveSeed(p.opts.Sim.Seed, int64(i)))
	}
	return nil
}

// round runs replications [start, end) across the pool and waits for all
// workers. It returns the joined worker errors, if any.
func (p *pool) round(start, end int) error {
	if cap(p.results) >= end {
		p.results = p.results[:end]
	} else {
		p.results = append(p.results, make([]simmms.Result, end-len(p.results))...)
	}
	for _, ch := range p.jobs {
		ch <- [2]int{start, end}
	}
	errs := make([]error, 0, p.opts.Workers)
	for range p.jobs {
		if err := <-p.done; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Run replicates the configured simulation until the precision target (or a
// replication cap) is reached and returns the aggregated estimates. The
// result is a pure function of (cfg, opts.Sim, opts.MinReps, opts.MaxReps,
// opts.Round, opts.Precision, opts.Confidence) — Workers only changes the
// wall-clock time.
func Run(ctx context.Context, cfg mms.Config, opts Options) (Result, error) {
	opts = opts.withDefaults()
	// Validate eagerly so configuration errors surface once, not per worker;
	// worker 0 inherits the instance instead of building its own.
	first, err := simmms.NewReplicator(cfg, opts.Sim)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	p := newPool(cfg, opts, opts.MinReps)
	p.reps[0] = first
	p.start(ctx)
	defer p.stop()

	ran := 0
	target := opts.MinReps
	for {
		if err := p.round(ran, target); err != nil {
			return Result{}, err
		}
		ran = target

		// Fold in index order: bit-identical for any worker count.
		var acc accum
		for i := 0; i < ran; i++ {
			acc.add(p.results[i])
		}
		up := metricOf(&acc.up, opts.Confidence)
		converged := opts.Precision <= 0 || up.Rel() <= opts.Precision
		if converged || ran >= opts.MaxReps {
			return acc.result(opts.Confidence, ran, converged), nil
		}
		target = ran + opts.Round
		if target > opts.MaxReps {
			target = opts.MaxReps
		}
	}
}
