package mva

import (
	"fmt"
	"math"

	"lattol/internal/queueing"
)

// This file implements ApproxMultiClass's one fixed-point loop: evalG — one
// full Bard–Schweitzer sweep — the raw-residual stopping test
// ‖G(n) − n‖∞ < Tolerance, then the guarded vector Aitken (Irons–Tuck) step
// the symmetric kernel takes (see Kernel). Acceleration only
// changes the point the next sweep is evaluated at, never the map or the
// convergence test, so the fixed point is the plain iteration's.

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

// iterate runs the fixed-point loop from the iterate in ws.q. Every evalG
// sweep counts as one iteration.
//
// Sweeps alternate Aitken legs, as in the symmetric kernel. Leg 1 takes the plain
// step x ← g, remembering the pre-sweep iterate in xPrev. Leg 2 estimates
// the dominant contraction factor μ from the two consecutive residuals
// r1 = x − xPrev and r2 = g − x, and sums the geometric tail in closed form,
// x* = g + μ/(1−μ)·(g−x). It takes the plain step instead when μ is not a
// contraction, when the leg-2 residual is not the smallest the solve has
// reached (the stall guard: extrapolating again from a point the last
// extrapolant set back can cycle forever), or when a component of x* leaves
// [0, its class population].
func (ws *Workspace) iterate(net *queueing.Network, opts AMVAOptions, r *Result) error {
	nm := len(net.Stations)
	n := len(net.Classes) * nm
	ws.g = resizeZero(ws.g, n)
	ws.xPrev = resizeF(ws.xPrev, n)
	x, g, xp := ws.q, ws.g, ws.xPrev
	leg2Min := math.Inf(1)
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
		if iter%2 == 1 {
			copy(xp, x)
			copy(x, g)
			continue
		}
		var r11, r12 float64
		for i, v := range x {
			r1 := v - xp[i]
			r11 += r1 * r1
			r12 += r1 * (g[i] - v)
		}
		// fac = μ/(1−μ); NaN marks the plain step and fails the bound check
		// below on the first component.
		fac := math.NaN()
		if resid < leg2Min && r11 > 0 {
			if mu := r12 / r11; mu > -1 && mu < 1 {
				fac = mu / (1 - mu)
			}
		}
		leg2Min = min(leg2Min, resid)
		if !extrapolate(net, x, g, fac) {
			copy(x, g)
		}
	}
	return &NonConvergenceError{
		Iterations: opts.MaxIterations,
		MaxDelta:   resid,
		Tolerance:  opts.Tolerance,
	}
}

// extrapolate overwrites x with g + fac·(g−x), class row by class row, and
// reports false as soon as a component leaves [0, its class population]; x
// is then partly overwritten and the caller repairs it to the plain step.
func extrapolate(net *queueing.Network, x, g []float64, fac float64) bool {
	nm := len(net.Stations)
	for c, cl := range net.Classes {
		upper := float64(cl.Population)
		for i := c * nm; i < (c+1)*nm; i++ {
			cand := g[i] + fac*(g[i]-x[i])
			if !(cand >= 0 && cand <= upper) {
				return false
			}
			x[i] = cand
		}
	}
	return true
}
