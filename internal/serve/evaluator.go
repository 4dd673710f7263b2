package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lattol/internal/access"
	"lattol/internal/mms"
	"lattol/internal/surrogate"
	"lattol/internal/tolerance"
	"lattol/internal/validate"
)

// Shedding errors. They are returned the moment admission fails — no
// request waits on a queue it will never clear.
var (
	// ErrQueueFull reports that the pending-solve queue is at capacity
	// (HTTP 429: back off and retry).
	ErrQueueFull = errors.New("serve: solve queue full")
	// ErrDraining reports that the evaluator is shutting down and refuses
	// new work (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting new work")
)

// Config sizes the evaluator. The zero value selects sensible defaults.
type Config struct {
	// Workers bounds concurrent solver invocations; each worker owns one
	// reusable mms.Workspace. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds pending (admitted, not yet solving) evaluations;
	// submissions beyond it are shed with ErrQueueFull. Default 8×Workers.
	QueueDepth int
	// CacheEntries bounds completed results kept for reuse. Default 4096.
	CacheEntries int
	// CacheShards is the cache's lock-domain count, rounded up to a power
	// of two. Default 16.
	CacheShards int
	// SolveTimeout is the per-request evaluation budget applied by the HTTP
	// handlers. Default 10s.
	SolveTimeout time.Duration
	// MaxSweepPoints bounds the grid of one /v1/sweep request. Default 1024.
	MaxSweepPoints int
	// MaxBatchItems bounds the item list of one /v1/batch request. Default
	// 1024.
	MaxBatchItems int
	// RateLimit, when positive, enables per-client token-bucket admission on
	// the POST endpoints: sustained requests per second allowed per client
	// identity (X-Lattold-Client header, else remote host). 0 disables.
	RateLimit float64
	// RateBurst is the bucket capacity (instantaneous burst allowance) when
	// RateLimit is set. Default 2×RateLimit, at least 1.
	RateBurst float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 10 * time.Second
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 1024
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = math.Max(1, 2*c.RateLimit)
	}
	return c
}

// task is one admitted evaluation waiting for a worker: the cache-missing
// entries of one request (a single key for /v1/solve and /v1/tolerance),
// solved together as one kernel batch.
type task struct {
	ents []*entry
	ctx  context.Context
	enq  time.Time
}

// Evaluator is the concurrent model-evaluation engine: canonicalized
// requests flow through the result cache (hit or coalesce) and, on a miss,
// through the bounded worker pool. It is safe for concurrent use.
type Evaluator struct {
	cfg   Config
	cache *cache
	met   *Metrics

	mu       sync.Mutex // guards draining and sends on tasks
	draining bool
	tasks    chan task
	wg       sync.WaitGroup

	// solveHook, when non-nil, runs in the worker immediately before each
	// solver invocation. Tests use it to count and gate solves.
	solveHook func(Key)

	// surr is the optional middle tier of the three-level lookup
	// (LRU → surrogate → solver), installed with SetSurrogate. Atomic so a
	// grid can be installed after the evaluator already serves traffic.
	surr atomic.Pointer[surrogateTier]
}

// surrogateTier pairs a loaded grid with its background refiner.
type surrogateTier struct {
	grid *surrogate.Grid
	ref  *surrogate.Refiner
}

// query maps a canonical key onto the grid's query space. Only keys matching
// everything the grid holds fixed qualify: plain symmetric-AMVA solves under
// the default geometric/per-distance pattern, no context-switch overhead,
// single-ported stations, and the grid's memory and switch times. Whether
// the remaining coordinates fall inside the lattice is the grid's own call
// (Lookup reports Ineligible).
func (t *surrogateTier) query(k *Key) (surrogate.Query, bool) {
	spec := t.grid.Spec()
	c := &k.cfg
	if k.op != opSolve || k.solver != mms.SymmetricAMVA ||
		c.Uniform || c.GeometricMode != access.PerDistance ||
		c.ContextSwitch != 0 || c.MemoryPorts != 1 || c.SwitchPorts != 1 ||
		c.MemoryTime != spec.MemoryTime || c.SwitchTime != spec.SwitchTime {
		return surrogate.Query{}, false
	}
	return surrogate.Query{K: c.K, NT: c.Threads, R: c.Runlength, PRemote: c.PRemote, Psw: c.Psw}, true
}

// NewEvaluator starts the worker pool and returns a ready evaluator. Call
// Close to drain it.
func NewEvaluator(cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	e := &Evaluator{
		cfg:   cfg,
		cache: newCache(cfg.CacheEntries, cfg.CacheShards),
		met:   newMetrics(),
		tasks: make(chan task, cfg.QueueDepth),
	}
	e.met.queueDepth = func() int { return len(e.tasks) }
	e.met.cachedEntries = e.cache.len
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Metrics returns the evaluator's live counters.
func (e *Evaluator) Metrics() *Metrics { return e.met }

// SetSurrogate installs (or, with nil, removes) the interpolated answer tier
// and starts a background refiner for it. Requests that state a max_error
// and miss the LRU consult the grid before falling back to the solver pool.
// Safe to call while serving; Close stops the refiner.
func (e *Evaluator) SetSurrogate(g *surrogate.Grid) {
	var t *surrogateTier
	if g != nil {
		t = &surrogateTier{grid: g, ref: surrogate.NewRefiner(g, surrogate.BuildOptions{})}
	}
	if old := e.surr.Swap(t); old != nil && old.ref != nil {
		old.ref.Close()
	}
}

// surrogateLookup tries the interpolated tier for a canonical key. It
// returns ok only when the grid certifies the answer within maxErr; every
// other outcome (no grid, ineligible key, bound too wide) is a recorded
// fall-through to the exact path. A bound-exceeded cell is handed to the
// background refiner so later identical traffic can hit.
func (e *Evaluator) surrogateLookup(k *Key, maxErr float64) (mms.Metrics, float64, bool) {
	t := e.surr.Load()
	if t == nil {
		return mms.Metrics{}, 0, false
	}
	q, ok := t.query(k)
	if !ok {
		e.met.surrogateIneligible.Add(1)
		return mms.Metrics{}, 0, false
	}
	start := time.Now()
	met, bound, st := t.grid.Lookup(q, maxErr)
	switch st {
	case surrogate.Hit:
		e.met.surrogateLatency.observe(time.Since(start))
		e.met.surrogateHits.Add(1)
		return met, bound, true
	case surrogate.BoundExceeded:
		e.met.surrogateBoundExceeded.Add(1)
		if t.ref != nil && t.ref.Request(q) {
			e.met.surrogateRefines.Add(1)
		}
	default:
		e.met.surrogateIneligible.Add(1)
	}
	return mms.Metrics{}, 0, false
}

// Draining reports whether Close has begun.
func (e *Evaluator) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Close drains the evaluator: new submissions are refused with ErrDraining,
// queued and in-flight evaluations finish, and Close returns when every
// worker has exited. Safe to call more than once.
func (e *Evaluator) Close() {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.tasks)
	}
	e.mu.Unlock()
	e.wg.Wait()
	if t := e.surr.Swap(nil); t != nil && t.ref != nil {
		t.ref.Close()
	}
}

// submit admits a task or sheds it. It never blocks: a full queue is an
// immediate ErrQueueFull, a draining evaluator an immediate ErrDraining.
func (e *Evaluator) submit(t task) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		e.met.shedDraining.Add(1)
		return ErrDraining
	}
	select {
	case e.tasks <- t:
		return nil
	default:
		e.met.shedQueueFull.Add(1)
		return ErrQueueFull
	}
}

// worker is the pool loop: one reusable solver workspace and batch scratch
// per worker (the sweep runner's per-worker pattern), so steady-state solves
// allocate nothing beyond model construction.
func (e *Evaluator) worker() {
	defer e.wg.Done()
	w := new(workerScratch)
	for t := range e.tasks {
		e.met.queueWait.observe(time.Since(t.enq))
		if err := t.ctx.Err(); err != nil {
			// The submitter's context is the only one the task carries, so
			// every entry completes with its context error. Waiters that
			// coalesced onto these entries from other requests see a foreign
			// context error and retry (evalKeys).
			for _, ent := range t.ents {
				e.cache.complete(ent, result{}, err)
			}
			continue
		}
		e.computeBatch(w, t.ents)
	}
}

// workerScratch is one worker's reusable solve state: the solver workspace
// and the batch item, result and per-entry ideal-derivation error slices
// of computeBatch.
type workerScratch struct {
	ws       mms.Workspace
	items    []mms.BatchItem
	results  []mms.BatchResult
	idealErr []error
}

// computeBatch translates entries into mms batch items — one per solve key,
// two per tolerance key (real system, then ideal) — runs them as one kernel
// batch on the worker's workspace and completes each entry from its span of
// the positional results. The workspace carries its last converged solution
// forward, so runs of same-shape requests converge from a continuation guess
// instead of from scratch; full-AMVA items warm-start the same way, from the
// workspace's previous converged multiclass solution.
//
// The solve's latency and in-flight count are recorded before the first
// entry completes: completing an entry wakes its waiters, which may read the
// metrics at once.
func (e *Evaluator) computeBatch(w *workerScratch, ents []*entry) {
	e.met.inFlight.Add(1)
	if e.solveHook != nil {
		for _, ent := range ents {
			e.solveHook(ent.key)
		}
	}
	start := time.Now()
	items := w.items[:0]
	idealErr := w.idealErr[:0]
	for _, ent := range ents {
		k := &ent.key
		cfg := k.cfg
		items = append(items, mms.BatchItem{Config: cfg, Solver: k.solver})
		var ierr error
		if k.op == opTolerance {
			var ideal mms.Config
			// Canonical keys carry validated subsystem/mode pairs, so the
			// error is unreachable; the real config keeps the span aligned
			// and the error is reported below.
			if ideal, ierr = tolerance.IdealConfig(cfg, k.sub, k.mode); ierr != nil {
				ideal = cfg
			}
			items = append(items, mms.BatchItem{Config: ideal, Solver: k.solver})
		}
		idealErr = append(idealErr, ierr)
	}
	w.items, w.idealErr = items, idealErr
	if cap(w.results) < len(items) {
		w.results = make([]mms.BatchResult, len(items))
	}
	results := w.results[:len(items)]
	mms.SolveBatchInto(results, items, mms.SolveOptions{Workspace: &w.ws, WarmStart: true})
	e.met.solveLatency.observe(time.Since(start))
	e.met.inFlight.Add(-1)
	pos := 0
	for i, ent := range ents {
		k := ent.key
		var res result
		var err error
		switch k.op {
		case opTolerance:
			re, id := results[pos], results[pos+1]
			pos += 2
			switch {
			case re.Err != nil:
				err = re.Err
			case id.Err != nil:
				err = id.Err
			case idealErr[i] != nil:
				err = idealErr[i]
			default:
				res = result{real: re.Metrics, ideal: id.Metrics, tol: tolerance.Ratio(re.Metrics.Up, id.Metrics.Up)}
			}
		default: // opSolve
			re := results[pos]
			pos++
			res.real, err = re.Metrics, re.Err
		}
		if err == nil {
			err = finiteErr(res)
		}
		e.met.solves.Add(1)
		if err != nil {
			e.met.solveErrors.Add(1)
		} else {
			// A tolerance key solves two systems (real + ideal); both iteration
			// counts are recorded so the histogram reflects every solver run,
			// not every request.
			for _, n := range [...]int{res.real.Iterations, res.ideal.Iterations} {
				if n > 0 {
					e.met.solveIterations.observe(uint64(n))
				}
			}
		}
		if n := e.cache.complete(ent, res, err); n > 0 {
			e.met.cacheEvictions.Add(uint64(n))
		}
	}
}

// nonFiniteError reports an evaluation whose result left the float64 range:
// the configuration is valid, but its scale (a time like 1e308) overflows the
// solution to ±Inf or NaN. The AMVA solvers report that as non-convergence;
// this catches every other solver. JSON cannot carry such a value and the
// question has no answer as posed, so the key fails with HTTP 422 and, like
// every error, is not cached.
type nonFiniteError struct {
	metric string
	value  float64
}

func (e *nonFiniteError) Error() string {
	return fmt.Sprintf("serve: %s = %v is not finite; the configuration is outside the solver's floating-point range", e.metric, e.value)
}

// finiteErr returns a *nonFiniteError naming the first non-finite value of
// res, or nil when every value is finite.
func finiteErr(res result) error {
	for _, sys := range [...]struct {
		prefix string
		m      *mms.Metrics
	}{{"", &res.real}, {"ideal.", &res.ideal}} {
		m := sys.m
		for _, f := range [...]struct {
			name string
			v    float64
		}{
			{"u_p", m.Up}, {"lambda", m.LambdaProc}, {"lambda_net", m.LambdaNet},
			{"s_obs", m.SObs}, {"l_obs", m.LObs}, {"cycle_time", m.CycleTime},
			{"mem_utilization", m.MemUtilization}, {"out_utilization", m.OutUtilization},
			{"in_utilization", m.InUtilization},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return &nonFiniteError{metric: sys.prefix + f.name, value: f.v}
			}
		}
	}
	if math.IsNaN(res.tol) || math.IsInf(res.tol, 0) {
		return &nonFiniteError{metric: "tol", value: res.tol}
	}
	return nil
}

// retryableCompletion reports whether an entry's completion error belongs to
// the leader's request rather than to the key itself: the leader's context
// expired before a worker picked the task up, or its submission was shed.
// Nothing about the key is wrong in those cases, so a coalesced waiter whose
// own context is live must not inherit the error — it retries getOrStart.
// Solver and validation errors are properties of the key and surface to every
// waiter.
func retryableCompletion(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrDraining)
}

// keyOutcome is the per-position product of evalKeys.
type keyOutcome struct {
	res result
	st  cacheState
	err error
	// bound is the certified relative error bound of an interpolated answer
	// (st == stateSurrogate); 0 for exact results.
	bound float64
}

// evalKeys satisfies a positional list of canonical keys. It is the one
// resolver behind every endpoint: a single request is a one-key list. Each
// position runs the three-level lookup: a solve key with a positive maxErr
// tries the LRU without taking leadership, then the surrogate grid; every
// other key, and every key those tiers miss, goes through getOrStart — cache
// hit, coalesce onto an identical in-flight evaluation, or lead. All leads are
// submitted as ONE task, so a single worker solves them as one kernel batch
// with continuation seeding. maxErr is index-aligned with keys,
// or nil when every answer must be exact. Positions whose key is the zero Key
// (op 0) are skipped — the caller has already resolved them. out must have
// len(keys); every other position gets its state, error and bound, and its
// result whenever the error is nil, so out may hold stale outcomes.
//
// When the caller's context expires while leading, the solve itself keeps
// running and its result still lands in the cache for later requests. A
// position that coalesced onto a leader whose context died (or whose
// submission was shed) retries with its own admission rather than inheriting
// the foreign error.
func (e *Evaluator) evalKeys(ctx context.Context, keys []Key, maxErr []float64, out []keyOutcome) {
	var pending []*entry // index-aligned with keys; nil on the all-hit fast path
	var leads []*entry
	for i := range keys {
		k, o := &keys[i], &out[i]
		if k.op == 0 {
			continue
		}
		o.err, o.bound = nil, 0
		if maxErr != nil && maxErr[i] > 0 && k.op == opSolve {
			var ok bool
			if o.res, ok = e.cache.peek(k); ok {
				e.met.cacheHits.Add(1)
				o.st = stateHit
				continue
			}
			if o.res.real, o.bound, ok = e.surrogateLookup(k, maxErr[i]); ok {
				o.st = stateSurrogate
				continue
			}
		}
		ent, st := e.cache.getOrStart(*k)
		o.st = st
		switch st {
		case stateHit:
			e.met.cacheHits.Add(1)
			o.res = ent.res
			continue
		case stateWait:
			e.met.cacheCoalesced.Add(1)
		default: // stateLead
			e.met.cacheMisses.Add(1)
			leads = append(leads, ent)
		}
		if pending == nil {
			pending = make([]*entry, len(keys))
		}
		pending[i] = ent
	}
	if len(leads) > 0 {
		if err := e.submit(task{ents: leads, ctx: ctx, enq: time.Now()}); err != nil {
			// Admission failed for every lead at once. Complete our entries so
			// strangers coalesced onto them retry; our own positions surface
			// the admission error through the wait loop below. Nothing is
			// cached.
			for _, ent := range leads {
				e.cache.complete(ent, result{}, err)
			}
		}
	}
	for i, ent := range pending {
		if ent == nil {
			continue
		}
		select {
		case <-ent.done:
		case <-ctx.Done():
			out[i].err = ctx.Err()
			continue
		}
		if out[i].st == stateWait && retryableCompletion(ent.err) && ctx.Err() == nil {
			// The stranger's completion error is foreign to us: resolve this
			// key again under our own admission.
			e.evalKeys(ctx, keys[i:i+1], nil, out[i:i+1])
			continue
		}
		// Our own lead's completion error — solver, admission or our context —
		// is ours to surface, as is a stranger's error that belongs to the key.
		out[i].res, out[i].err = ent.res, ent.err
	}
}

// Solve evaluates one model configuration, reporting how the cache satisfied
// the request alongside the metrics.
func (e *Evaluator) Solve(ctx context.Context, r ModelRequest) (mms.Metrics, cacheState, error) {
	met, _, st, err := e.SolveBounded(ctx, r)
	return met, st, err
}

// SolveBounded is Solve through the three-level lookup, additionally
// reporting the certified relative error bound of the answer. When the
// request states a MaxError, the tiers are consulted in order — LRU (exact,
// bound 0), surrogate grid (interpolated, bound ≤ MaxError), solver pool
// (exact, bound 0) — and the first to answer wins. Without a MaxError the
// request takes the exact path unchanged. The LRU and surrogate tiers run
// inline and allocation-free.
func (e *Evaluator) SolveBounded(ctx context.Context, r ModelRequest) (mms.Metrics, float64, cacheState, error) {
	var keys [1]Key
	var err error
	if keys[0], err = SolveKey(r); err != nil {
		return mms.Metrics{}, 0, stateLead, err
	}
	maxErr := [1]float64{r.MaxError}
	var out [1]keyOutcome
	e.evalKeys(ctx, keys[:], maxErr[:], out[:])
	return out[0].res.real, out[0].bound, out[0].st, out[0].err
}

// toleranceIndex assembles the index of a tolerance key from its result.
func toleranceIndex(k *Key, res result) tolerance.Index {
	return tolerance.Index{Subsystem: k.sub, Mode: k.mode, Tol: res.tol, Real: res.real, Ideal: res.ideal}
}

// Tolerance evaluates a tolerance index (real and ideal system solves share
// one cache entry under the request's canonical key).
func (e *Evaluator) Tolerance(ctx context.Context, r ToleranceRequest) (tolerance.Index, cacheState, error) {
	k, err := ToleranceKey(r)
	if err != nil {
		return tolerance.Index{}, stateLead, err
	}
	keys := [1]Key{k}
	var out [1]keyOutcome
	e.evalKeys(ctx, keys[:], nil, out[:])
	if out[0].err != nil {
		return tolerance.Index{}, out[0].st, out[0].err
	}
	return toleranceIndex(&k, out[0].res), out[0].st, nil
}

// BatchOutcome is the positional product of one batch item. Err covers the
// item's own failure — validation, admission, context or solver — and leaves
// its neighbors untouched. Exactly one of Metrics (op "solve") and Tolerance
// (op "tolerance") is meaningful, matching the item's operation.
type BatchOutcome struct {
	Cache     cacheState
	Err       error
	Metrics   mms.Metrics
	Tolerance tolerance.Index
	// Bound is the certified relative error bound of an interpolated answer
	// (Cache == stateSurrogate); 0 for exact results.
	Bound float64
}

// Batch evaluates a positional list of items. Each item's canonical key flows
// through the three-level lookup first — LRU hits, surrogate answers and
// in-flight coalescing are resolved before any solver runs — and all
// remaining misses are solved as one kernel batch on a single worker, with
// continuation seeding. out must have len(items). The
// returned error is an envelope error (malformed batch as a whole); per-item
// failures are positional in out.
func (e *Evaluator) Batch(ctx context.Context, items []BatchItemRequest, out []BatchOutcome) error {
	if len(out) != len(items) {
		panic(fmt.Sprintf("serve: Batch: len(out) = %d, want len(items) = %d", len(out), len(items)))
	}
	if len(items) == 0 || len(items) > e.cfg.MaxBatchItems {
		return validate.Fieldf("serve.BatchRequest", "items", "has %d items, want in [1,%d]",
			len(items), e.cfg.MaxBatchItems)
	}
	e.met.batchItems.Add(uint64(len(items)))
	keys := make([]Key, len(items))
	outcomes := make([]keyOutcome, len(items))
	var maxErr []float64 // nil unless some item states a max_error
	for i := range items {
		k, err := itemKey(&items[i])
		if err != nil {
			out[i] = BatchOutcome{Err: err}
			continue // keys[i] stays the zero Key; evalKeys skips it
		}
		keys[i] = k
		if items[i].MaxError > 0 {
			if maxErr == nil {
				maxErr = make([]float64, len(items))
			}
			maxErr[i] = items[i].MaxError
		}
	}
	e.evalKeys(ctx, keys, maxErr, outcomes)
	for i := range items {
		if keys[i].op == 0 {
			continue
		}
		o := outcomes[i]
		out[i] = BatchOutcome{Cache: o.st, Err: o.err}
		switch {
		case o.err != nil:
		case keys[i].op == opTolerance:
			out[i].Tolerance = toleranceIndex(&keys[i], o.res)
		default:
			out[i].Metrics, out[i].Bound = o.res.real, o.bound
		}
	}
	return nil
}

// Sweep evaluates tolerance indices over a knob range. The grid is one key
// list through evalKeys: per-point cache hits are extracted up front, and every
// remaining point (two tolerance keys each: network and memory) is solved as
// one kernel batch on a single worker, so the kernel's continuation seeding
// walks the grid in order. Repeated sweeps hit the cache; under overload the
// batch is shed as a whole and the sweep fails fast.
func (e *Evaluator) Sweep(ctx context.Context, r SweepRequest) ([]SweepPoint, error) {
	knob, err := mms.ParseParam(r.Param)
	if err != nil {
		return nil, validate.Fieldf("serve.SweepRequest", "param", "= %q, want one of %s",
			r.Param, strings.Join(mms.ParamNames(), ", "))
	}
	if r.Steps < 1 || r.Steps > e.cfg.MaxSweepPoints {
		return nil, validate.Fieldf("serve.SweepRequest", "steps", "= %d, want in [1,%d]", r.Steps, e.cfg.MaxSweepPoints)
	}
	if math.IsNaN(r.From) || math.IsInf(r.From, 0) {
		return nil, validate.Fieldf("serve.SweepRequest", "from", "= %v, want finite", r.From)
	}
	if math.IsNaN(r.To) || math.IsInf(r.To, 0) {
		return nil, validate.Fieldf("serve.SweepRequest", "to", "= %v, want finite", r.To)
	}
	cfg, solver, err := components(&r.ModelRequest)
	if err != nil {
		return nil, err
	}
	if err := refuseInertParam(cfg, knob, "serve.SweepRequest", "param"); err != nil {
		return nil, err
	}
	// The base configuration is validated per point, after the knob is
	// applied: the base value of the swept field is irrelevant (it is
	// overwritten), and an out-of-range swept value is reported against the
	// point that produced it.
	values := knob.Grid(r.From, r.To, r.Steps)
	keys := make([]Key, 2*len(values))
	for i, v := range values {
		pcfg := cfg
		knob.Apply(&pcfg, v)
		if err := validateConfig(pcfg); err != nil {
			return nil, err
		}
		keys[2*i] = canonicalKey(pcfg, solver, opTolerance, tolerance.Network, tolerance.ZeroRemote)
		keys[2*i+1] = canonicalKey(pcfg, solver, opTolerance, tolerance.Memory, tolerance.ZeroDelay)
	}
	out := make([]keyOutcome, len(keys))
	e.evalKeys(ctx, keys, nil, out)
	points := make([]SweepPoint, len(values))
	for i, v := range values {
		net, mem := out[2*i], out[2*i+1]
		if net.err != nil {
			return nil, net.err
		}
		if mem.err != nil {
			return nil, mem.err
		}
		points[i] = SweepPoint{
			Value:      v,
			Metrics:    metricsBody(net.res.real),
			TolNetwork: net.res.tol,
			TolMemory:  mem.res.tol,
		}
	}
	return points, nil
}
