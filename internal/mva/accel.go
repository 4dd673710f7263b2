package mva

import (
	"fmt"
	"math"

	"lattol/internal/fixpoint"
	"lattol/internal/queueing"
)

// This file implements ApproxMultiClass's one fixed-point loop. Every
// AMVAOptions.Accel scheme wraps the same map evaluation evalG — one full
// Bard–Schweitzer sweep — so an accelerated solve satisfies exactly the same
// stopping criterion as the plain one: ‖G(n) − n‖∞ < Tolerance on the raw
// sweep. Acceleration only changes the point the next sweep is evaluated at
// (see internal/fixpoint), never the map or the convergence test, so the
// fixed point is unchanged; AccelNone is the plain step x ← G(x).

// evalG evaluates one Bard–Schweitzer sweep at the iterate x, writing the
// updated queue lengths into g (x is not modified) and filling the result's
// Wait, Throughput and CycleTime from this sweep. It returns the residual
// ‖g − x‖∞, the quantity the convergence test compares against Tolerance, or
// +Inf when a cycle time overflows float64.
// Rows of zero-population classes are zeroed in g: the sweep skips them, and
// all iterates must keep them at zero so they never contribute to the column
// sums.
func (ws *Workspace) evalG(net *queueing.Network, x, g []float64, r *Result) (float64, error) {
	nc := len(net.Classes)
	nm := len(net.Stations)
	colSum := ws.colSum
	for m := 0; m < nm; m++ {
		colSum[m] = 0
		for c := 0; c < nc; c++ {
			colSum[m] += x[c*nm+m]
		}
	}
	maxResid := 0.0
	for c, cl := range net.Classes {
		row := x[c*nm : (c+1)*nm]
		out := g[c*nm : (c+1)*nm]
		if cl.Population == 0 {
			for i := range out {
				out[i] = 0
			}
			continue
		}
		ni := float64(cl.Population)
		var cycle float64
		for m := 0; m < nm; m++ {
			seen := colSum[m] - row[m]/ni
			r.Wait[c][m] = residence(net.Stations[m], seen)
			cycle += cl.Visits[m] * r.Wait[c][m]
		}
		if cycle == 0 {
			return 0, fmt.Errorf("mva: class %q has zero total demand", cl.Name)
		}
		if math.IsInf(cycle, 0) || math.IsNaN(cycle) {
			return math.Inf(1), nil // overflow; iterate reports it
		}
		r.Throughput[c] = ni / cycle
		r.CycleTime[c] = cycle
		for m := 0; m < nm; m++ {
			nNew := r.Throughput[c] * cl.Visits[m] * r.Wait[c][m]
			if d := math.Abs(nNew - row[m]); d > maxResid {
				maxResid = d
			}
			out[m] = nNew
		}
	}
	return maxResid, nil
}

// iterate runs the fixed-point loop from the iterate in ws.q, advancing it
// by opts.Accel. Every evalG sweep counts as one iteration, so
// Result.Iterations is directly comparable across acceleration modes.
func (ws *Workspace) iterate(net *queueing.Network, opts AMVAOptions, r *Result) error {
	nc := len(net.Classes)
	nm := len(net.Stations)
	n := nc * nm
	ws.g = resizeZero(ws.g, n)
	ws.upper = resizeF(ws.upper, n)
	for c, cl := range net.Classes {
		// Feasibility bound: class c can never queue more than its own
		// population anywhere.
		bound := float64(cl.Population)
		row := ws.upper[c*nm : (c+1)*nm]
		for i := range row {
			row[i] = bound
		}
	}
	scheme := fixpoint.None
	if opts.Accel == AccelAnderson {
		scheme = fixpoint.Anderson
	}
	ws.accel.Reset(scheme, n)

	x, g := ws.q, ws.g
	resid := 0.0
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		var err error
		resid, err = ws.evalG(net, x, g, r)
		if err != nil {
			return err
		}
		if math.IsInf(resid, 1) {
			return overflowError(iter-1, opts.Tolerance)
		}
		if resid < opts.Tolerance {
			copy(x, g)
			r.Iterations = iter
			return nil
		}
		ws.accel.Advance(x, g, ws.upper)
	}
	return &NonConvergenceError{
		Iterations: opts.MaxIterations,
		MaxDelta:   resid,
		Tolerance:  opts.Tolerance,
	}
}
