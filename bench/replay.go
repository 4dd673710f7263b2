package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
	"lattol/internal/eval"
	"lattol/internal/inverse"
	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/serve"
	"lattol/internal/surrogate"
	"lattol/internal/tolerance"
)

// The replay times the layers below the HTTP handler, which no span recorded
// from outside the program can reach. After the window, with the nodes shut
// down, one goroutine replays the first requests of the stream:
//
//   - as served: each request goes to the serve.Evaluator method its endpoint
//     calls, on an evaluator configured and prewarmed like a live node; the
//     mean is the evaluator's share of a request, which serve.wire_us
//     subtracts from the handler's self time;
//   - per layer: each request's model goes through every layer function —
//     serve.SolveKey, the evaluator paths, surrogate.Grid.Lookup, mms.Build,
//     Model.Solve, mms.SolveBatch, tolerance.Compute, inverse.Solve and
//     cluster.Ring.Owner — each on a fresh instance, so every layer is timed
//     on every workload's models and stays flat where the workload does not
//     use it.

// Replay sizes: the requests replayed, and how many of them the expensive
// calls take.
const (
	replayRequests = 2000
	replayPlans    = 256 // Evaluator.Plan and inverse.Solve
	replaySweeps   = 64  // Evaluator.Sweep
	replayPasses   = 20  // passes over the ns-scale calls
)

// replay runs both passes and returns their metrics by name.
func replay(w *workload, s *stream, n int) (map[string]float64, error) {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = w.next(s, int64(i))
	}
	out := map[string]float64{}
	var err error
	if out["serve.eval.request_us"], err = replayServed(w, s, reqs); err != nil {
		return nil, err
	}
	if err := replayLayers(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// buildGrid builds a fresh default surrogate grid. Every evaluator gets its
// own: a grid's background refinement would otherwise carry over.
func buildGrid() (*surrogate.Grid, error) {
	g, err := surrogate.Build(surrogate.DefaultSpec(), surrogate.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("replay: building surrogate grid: %w", err)
	}
	return g, nil
}

// replayServed returns the mean evaluator time per request, as served.
func replayServed(w *workload, s *stream, reqs []request) (float64, error) {
	ctx := context.Background()
	ev := serve.NewEvaluator(serve.Config{})
	defer ev.Close()
	if w.grid {
		g, err := buildGrid()
		if err != nil {
			return 0, err
		}
		ev.SetSurrogate(g)
	}
	for j := w.prewarm - 1; j >= 0; j-- {
		req := w.warmKey(s, j)
		if _, _, err := ev.Solve(ctx, serveModel(req.model)); err != nil {
			return 0, fmt.Errorf("replay: prewarming key %d: %w", j, err)
		}
	}
	// Decode every body up front, as the handler would, outside the timer.
	calls := make([]func() error, len(reqs))
	for i, req := range reqs {
		var err error
		switch req.kind {
		case kindSolve:
			var r serve.ModelRequest
			err = json.Unmarshal(req.body, &r)
			calls[i] = func() error { _, _, _, err := ev.SolveBounded(ctx, r); return err }
		case kindTolerance:
			var r serve.ToleranceRequest
			err = json.Unmarshal(req.body, &r)
			calls[i] = func() error { _, _, err := ev.Tolerance(ctx, r); return err }
		case kindBatch:
			var r serve.BatchRequest
			err = json.Unmarshal(req.body, &r)
			calls[i] = func() error {
				out := make([]serve.BatchOutcome, len(r.Items))
				if err := ev.Batch(ctx, r.Items, out); err != nil {
					return err
				}
				for _, o := range out {
					if o.Err != nil {
						return o.Err
					}
				}
				return nil
			}
		case kindSweep:
			var r serve.SweepRequest
			err = json.Unmarshal(req.body, &r)
			calls[i] = func() error { _, err := ev.Sweep(ctx, r); return err }
		case kindPlan:
			var r serve.PlanRequest
			err = json.Unmarshal(req.body, &r)
			calls[i] = func() error { _, err := ev.Plan(ctx, r); return err }
		}
		if err != nil {
			return 0, fmt.Errorf("replay: decoding request %d: %w", i, err)
		}
	}
	start := time.Now()
	for i, call := range calls {
		if err := call(); err != nil {
			return 0, fmt.Errorf("replay: request %d: %w", i, err)
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(len(calls)), nil
}

// serveModel converts a generated model to the serve package's request type.
func serveModel(m lattolclient.ModelRequest) serve.ModelRequest {
	return serve.ModelRequest{
		K: m.K, Threads: m.Threads, Runlength: m.Runlength,
		MemoryTime: m.MemoryTime, SwitchTime: m.SwitchTime,
		PRemote: m.PRemote, Psw: m.Psw, MaxError: m.MaxError,
	}
}

// models returns the first model of every request, deduplicated (a repeated
// key would turn a timed miss into a hit).
func models(reqs []request) []lattolclient.ModelRequest {
	seen := map[lattolclient.ModelRequest]bool{}
	var out []lattolclient.ModelRequest
	for _, req := range reqs {
		m := req.model
		if req.kind == kindBatch {
			m = req.items[0].ModelRequest
		}
		m.MaxError = 0
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// gridQuery projects a model onto the surrogate grid's domain: the K, L and
// S the grid holds fixed, every other coordinate clamped into its axis.
func gridQuery(spec surrogate.Spec, m lattolclient.ModelRequest) surrogate.Query {
	clamp := func(v float64, axis []float64) float64 { return min(max(v, axis[0]), axis[len(axis)-1]) }
	return surrogate.Query{
		K:       spec.K[0],
		NT:      min(max(m.Threads, spec.NT[0]), spec.NT[len(spec.NT)-1]),
		R:       clamp(m.Runlength, spec.R),
		PRemote: clamp(m.PRemote, spec.PRemote),
		Psw:     clamp(m.Psw, spec.Psw),
	}
}

// timed runs f and returns its wall time in µs.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start)) / 1e3, err
}

// replayLayers times every layer function on the replayed models.
func replayLayers(reqs []request, out map[string]float64) error {
	ctx := context.Background()
	grid, err := buildGrid()
	if err != nil {
		return err
	}
	ms := models(reqs)
	cfgs := make([]mms.Config, len(ms))
	sreqs := make([]serve.ModelRequest, len(ms))
	for i, m := range ms {
		cfgs[i], sreqs[i] = config(m), serveModel(m)
	}
	n := float64(len(ms))
	var evs []*serve.Evaluator
	defer func() {
		for _, ev := range evs {
			ev.Close()
		}
	}()
	fresh := func() *serve.Evaluator {
		ev := serve.NewEvaluator(serve.Config{})
		evs = append(evs, ev)
		return ev
	}
	perCall := func(name string, calls float64, f func() error) error {
		us, err := timed(f)
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		out[name] = us / calls
		return nil
	}

	// serve: key canonicalization and the evaluator paths, each on a fresh
	// evaluator so misses are misses.
	if err := perCall("serve.key_ns", n*replayPasses/1e3, func() error {
		for p := 0; p < replayPasses; p++ {
			for _, r := range sreqs {
				if _, err := serve.SolveKey(r); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ev := fresh()
	for _, phase := range []string{"serve.eval.solve_miss_us", "serve.eval.solve_hit_us"} {
		if err := perCall(phase, n, func() error {
			for _, r := range sreqs {
				if _, _, err := ev.Solve(ctx, r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	ev = fresh()
	if err := perCall("serve.eval.tolerance_us", n, func() error {
		for _, r := range sreqs {
			if _, _, err := ev.Tolerance(ctx, serve.ToleranceRequest{ModelRequest: r}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := replaySurrogate(ctx, fresh(), grid, ms, out); err != nil {
		return err
	}
	ev = fresh()
	if err := perCall("serve.eval.batch_us_per_item", n, func() error {
		for lo := 0; lo < len(sreqs); lo += batchItems {
			items := make([]serve.BatchItemRequest, 0, batchItems)
			for _, r := range sreqs[lo:min(lo+batchItems, len(sreqs))] {
				items = append(items, serve.BatchItemRequest{ModelRequest: r})
			}
			res := make([]serve.BatchOutcome, len(items))
			if err := ev.Batch(ctx, items, res); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	sweeps := sreqs[:min(replaySweeps, len(sreqs))]
	ev = fresh()
	if err := perCall("serve.eval.sweep_us_per_point", float64(len(sweeps)*sweepSteps), func() error {
		for _, r := range sweeps {
			if _, err := ev.Sweep(ctx, serve.SweepRequest{ModelRequest: r, Param: "premote", From: 0.05, To: 0.9, Steps: sweepSteps}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	plans := sreqs[:min(replayPlans, len(sreqs))]
	ev = fresh()
	if err := perCall("serve.eval.plan_us", float64(len(plans)), func() error {
		for _, r := range plans {
			// An infeasible target is an answer too (422 on the wire).
			_, _ = ev.Plan(ctx, serve.PlanRequest{ModelRequest: r, Knob: "nt", Metric: "tol_network", Target: planTarget})
		}
		return nil
	}); err != nil {
		return err
	}

	// surrogate: the raw interpolation lookup.
	spec := grid.Spec()
	queries := make([]surrogate.Query, len(ms))
	for i, m := range ms {
		queries[i] = gridQuery(spec, m)
	}
	if err := perCall("surrogate.lookup_ns", n*replayPasses/1e3, func() error {
		for p := 0; p < replayPasses; p++ {
			for _, q := range queries {
				grid.Lookup(q, maxError)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// mms / mva: elaboration, the scalar solve as the pool runs it, and the
	// lockstep batch kernel.
	built := make([]*mms.Model, len(cfgs))
	if err := perCall("mms.build_us", n, func() error {
		for i, cfg := range cfgs {
			m, err := mms.Build(cfg)
			if err != nil {
				return err
			}
			built[i] = m
		}
		return nil
	}); err != nil {
		return err
	}
	var iters int
	ws := new(mms.Workspace)
	if err := perCall("mva.solve_us", n, func() error {
		for _, m := range built {
			met, err := m.Solve(mms.SolveOptions{Workspace: ws, WarmStart: true, Accel: mva.AccelAnderson})
			if err != nil {
				return err
			}
			iters += met.Iterations
		}
		return nil
	}); err != nil {
		return err
	}
	out["mva.iters_per_solve"] = float64(iters) / n
	if err := perCall("mva.batch_us_per_point", n, func() error {
		bws := new(mms.Workspace)
		items := make([]mms.BatchItem, 0, batchItems)
		for lo := 0; lo < len(built); lo += batchItems {
			items = items[:0]
			for _, m := range built[lo:min(lo+batchItems, len(built))] {
				items = append(items, mms.BatchItem{Model: m})
			}
			for _, r := range mms.SolveBatch(items, mms.SolveOptions{Workspace: bws}) {
				if r.Err != nil {
					return r.Err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// tolerance: both systems of the network index, solved as the pool does.
	tws := new(mms.Workspace)
	if err := perCall("tolerance.compute_us", n, func() error {
		for _, cfg := range cfgs {
			if _, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroRemote,
				mms.SolveOptions{Workspace: tws, WarmStart: true, Accel: mva.AccelAnderson}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// inverse: the planner over the direct solver.
	metric, err := inverse.ParseMetric("tol_network")
	if err != nil {
		return err
	}
	knob, err := mms.ParseParam("nt")
	if err != nil {
		return err
	}
	var probes, solved int
	if err := perCall("inverse.plan_us", float64(len(plans)), func() error {
		solver := eval.NewSolver()
		for _, cfg := range cfgs[:len(plans)] {
			res, err := inverse.Solve(ctx, solver, inverse.Spec{Base: cfg, Knob: knob, Metric: metric, Target: planTarget})
			if err == nil {
				probes += res.Probes
				solved++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	out["inverse.probes_per_plan"] = 0
	if solved > 0 {
		out["inverse.probes_per_plan"] = float64(probes) / float64(solved)
	}

	// cluster: ring ownership of each model's canonical key on a 3-node ring.
	ring := cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}, 0)
	hashes := make([]uint64, len(sreqs))
	for i, r := range sreqs {
		k, err := serve.SolveKey(r)
		if err != nil {
			return err
		}
		hashes[i] = k.Hash()
	}
	return perCall("cluster.ring_owner_ns", n*replayPasses/1e3, func() error {
		for p := 0; p < replayPasses; p++ {
			for _, h := range hashes {
				ring.Owner(h)
			}
		}
		return nil
	})
}

// replaySurrogate times SolveBounded on the queries the grid answers within
// max_error, on ev (fresh) serving the grid.
func replaySurrogate(ctx context.Context, ev *serve.Evaluator, grid *surrogate.Grid, ms []lattolclient.ModelRequest, out map[string]float64) error {
	ev.SetSurrogate(grid)
	spec := grid.Spec()
	var hits []serve.ModelRequest
	for _, m := range ms {
		q := gridQuery(spec, m)
		if _, _, st := grid.Lookup(q, maxError); st == surrogate.Hit {
			r := serveModel(m)
			r.K, r.Threads, r.Runlength, r.PRemote, r.Psw, r.MaxError = q.K, q.NT, q.R, q.PRemote, q.Psw, maxError
			hits = append(hits, r)
		}
	}
	out["serve.eval.surrogate_us"] = 0
	if len(hits) == 0 {
		return nil
	}
	us, err := timed(func() error {
		for _, r := range hits {
			if _, _, _, err := ev.SolveBounded(ctx, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay serve.eval.surrogate_us: %w", err)
	}
	out["serve.eval.surrogate_us"] = us / float64(len(hits))
	return nil
}
