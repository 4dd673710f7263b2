package mva

import (
	"fmt"
	"math"
)

// BatchOptions tunes a batch solve. The zero value selects the same defaults
// as ApproxMultiClass: Tolerance DefaultTolerance, MaxIterations
// DefaultMaxIterations, no warm start. The convergence test is the raw
// residual ‖G(n) − n‖∞ < Tolerance, applied per lane, so every lane lands on
// the identical fixed point the plain Bard–Schweitzer iteration would reach.
type BatchOptions struct {
	Tolerance     float64
	MaxIterations int
	// WarmStart seeds every lane from the last converged lane of the
	// workspace's previous Run when the station count matches (mirroring
	// AMVAOptions.WarmStart). Without it a Run starts cold and its results,
	// iteration counts included, do not depend on what the workspace solved
	// before.
	WarmStart bool
}

// BatchWorkspace iterates the Bard–Schweitzer fixed point (the paper's
// Figure 3, steps 2a–4) of B independent operating points. All lanes must
// share one station shape: the same station count and the same
// station→group assignment, where a group is a set of stations whose queue
// lengths are summed to form the customers-seen term (the symmetric MMS
// solver's role totals; singleton groups degenerate to the plain single-class
// iteration).
//
// Layout is lane-major: station i of lane b lives at q[b*stations+i], so
// each lane's rows are one contiguous column. Run solves the lanes one after
// another, in lane order, each to convergence in its own scalar loop over
// its column; per-lane coefficients, the Aitken snapshots and the group
// totals live in scratch of length stations or groups that every lane
// reuses. Residence times use the precomputed two-coefficient form
//
//	w = (s/srv)·seen + s
//
// (algebraically identical to s/srv·(1+seen) + s·(srv−1)/srv), which removes
// both divisions from the loop. Each sweep is a single pass over the
// stations: the cycle time comes from an exact regrouping of Σ e·μ·w into
// group-total scalars (see iterate), and residence times are materialized
// only on the sweep the lane converges in.
//
// A station row may stand for several identical physical stations: SetWeight
// gives row i in lane b a physical multiplicity μ, and the group totals
// (Σ μ·q) and cycle times (Σ μ·e·w) weight the row accordingly while the
// per-station update q ← λ·e·w is untouched — identical physical stations
// hold identical queue lengths at every iterate, so one representative row
// carries them all. Callers with symmetric topologies (the MMS model's
// role-homogeneous memories and switches) collapse their station set this
// way and shrink every sweep by the dedup factor.
//
// Each lane's loop is accelerated by a safeguarded vector Aitken Δ²
// (Irons–Tuck) scheme, from its first sweep on: two plain sweeps estimate the
// dominant contraction factor μ from consecutive residuals and the geometric
// tail is summed in closed form, x* = g + μ/(1−μ)·(g−x). Acceleration only
// moves the point the next sweep is evaluated at — the map and the
// raw-residual stopping test are unchanged, so the fixed point is exactly the
// plain iteration's. A lane whose μ estimate is not a contraction or whose
// extrapolant leaves [0, population] takes the plain step instead, and so
// does a lane whose leg-2 residual is not the smallest it has reached (the
// stall guard: without it a lane seeded near its fixed point can cycle
// between extrapolants that never converge).
//
// Seeding implements shared warm-start continuation. On a cold batch, every
// lane starts from its own uniform spread (ApproxMultiClass's cold guess), so
// a cold lane's result, iteration count included, is the one a one-lane
// batch of the same inputs would give. Every Run keeps its last converged
// lane's solution; with BatchOptions.WarmStart the next Run of the same
// station count seeds all of its lanes from it instead — the batched analogue
// of AMVAOptions.WarmStart. Lane failures (invalid population, degenerate
// zero cycle time, non-convergence) are positional: one bad lane never
// affects its neighbors.
//
// The zero value is ready to use. A BatchWorkspace may be used by one
// goroutine at a time; Run performs no allocations in steady state (error
// construction on failed lanes aside).
type BatchWorkspace struct {
	lanes    int
	stations int
	groups   int

	// Per (lane, station), lane-major: the loaded inputs, the iterate and
	// the published residence times.
	e, s, srv, mult []float64
	q, w            []float64

	group  []int // station → group, shared by every lane
	pop    []float64
	lambda []float64
	iters  []int
	errs   []error

	// Scratch of the lane being solved: es = e·s and ea = e·s/srv per
	// station, the Aitken leg-1 snapshot xPrev and leg-2 sweep output gq,
	// the ping-pong group totals Σ μ·q and the regrouped-cycle constants
	// gema = Σ_{i∈G} e·μ·s/srv.
	es, ea, xPrev, gq []float64
	tot, gema         []float64

	// Cross-batch continuation state: warmQ holds the q column of the last
	// converged lane of the previous Run iff warmOK and the station count
	// still matches.
	warmOK bool
	warmN  int
	warmQ  []float64
}

// Reset sizes the workspace for a batch of `lanes` operating points over
// `stations` stations in `groups` queue-length groups, and clears per-lane
// results. The caller must then fill every station's group (SetGroup), every
// (station, lane) parameter triple (Set) and every lane population
// (SetPopulation) before Run: buffer contents are otherwise unspecified.
// Station weights reset to 1; SetWeight overrides them per (station, lane).
func (ws *BatchWorkspace) Reset(lanes, stations, groups int) {
	ws.lanes, ws.stations, ws.groups = lanes, stations, groups
	n := lanes * stations
	ws.e = resizeF(ws.e, n)
	ws.s = resizeF(ws.s, n)
	ws.srv = resizeF(ws.srv, n)
	ws.mult = resizeF(ws.mult, n)
	ws.q = resizeF(ws.q, n)
	ws.w = resizeF(ws.w, n)
	ws.group = resizeInt(ws.group, stations)
	ws.pop = resizeF(ws.pop, lanes)
	ws.lambda = resizeF(ws.lambda, lanes)
	ws.iters = resizeInt(ws.iters, lanes)
	ws.es = resizeF(ws.es, stations)
	ws.ea = resizeF(ws.ea, stations)
	ws.xPrev = resizeF(ws.xPrev, stations)
	ws.gq = resizeF(ws.gq, stations)
	ws.tot = resizeF(ws.tot, 2*groups)
	ws.gema = resizeF(ws.gema, groups)
	for i := range ws.mult {
		ws.mult[i] = 1
	}
	if cap(ws.errs) < lanes {
		ws.errs = make([]error, lanes)
	}
	ws.errs = ws.errs[:lanes]
	for b := range ws.errs {
		ws.errs[b] = nil
	}
}

// SetGroup assigns station i to queue-length group g (0 <= g < groups). The
// assignment is shared by every lane.
func (ws *BatchWorkspace) SetGroup(i, g int) { ws.group[i] = g }

// Set fills the parameters of station i in lane b: visit ratio, mean service
// time and parallel-server count. All values must be finite, visit and
// service non-negative, servers >= 1.
func (ws *BatchWorkspace) Set(i, b int, visit, service, servers float64) {
	at := b*ws.stations + i
	ws.e[at] = visit
	ws.s[at] = service
	ws.srv[at] = servers
}

// SetWeight declares station i in lane b to represent `weight` identical
// physical stations (>= 1; Reset defaults every weight to 1). The row's
// queue length counts `weight` times into its group total and its demand
// `weight` times into the cycle time, exactly as `weight` symmetric copies
// of the station would.
func (ws *BatchWorkspace) SetWeight(i, b int, weight float64) {
	ws.mult[b*ws.stations+i] = weight
}

// SetPopulation fills lane b's closed population (> 0 and finite, or the lane
// fails with an error).
func (ws *BatchWorkspace) SetPopulation(b int, pop float64) { ws.pop[b] = pop }

// Lambda returns lane b's converged throughput. Defined only when Err(b) is
// nil.
func (ws *BatchWorkspace) Lambda(b int) float64 { return ws.lambda[b] }

// Residence returns the converged residence time of station i in lane b.
// Defined only when Err(b) is nil.
func (ws *BatchWorkspace) Residence(i, b int) float64 { return ws.w[b*ws.stations+i] }

// Visit returns the visit ratio of station i in lane b as loaded by Set.
func (ws *BatchWorkspace) Visit(i, b int) float64 { return ws.e[b*ws.stations+i] }

// Weight returns the physical multiplicity of station i in lane b.
func (ws *BatchWorkspace) Weight(i, b int) float64 { return ws.mult[b*ws.stations+i] }

// Iterations returns the number of fixed-point iterations lane b consumed.
func (ws *BatchWorkspace) Iterations(b int) int { return ws.iters[b] }

// Err returns lane b's failure, or nil when the lane converged.
func (ws *BatchWorkspace) Err(b int) error { return ws.errs[b] }

// Run iterates every lane to convergence (or failure), in lane order.
// Results are read off the accessors; lane failures are positional and
// independent — one bad lane never poisons its neighbors.
func (ws *BatchWorkspace) Run(opts BatchOptions) {
	if ws.lanes == 0 {
		return
	}
	n := ws.stations
	tol := opts.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	warm := opts.WarmStart && ws.warmOK && ws.warmN == n
	// The seed of this Run is the previous Run's; a Run without a
	// converged lane must not seed the next one.
	ws.warmOK = false
	last := -1
	for b := 0; b < ws.lanes; b++ {
		ws.iters[b], ws.lambda[b] = 0, 0
		if p := ws.pop[b]; !(p > 0) || math.IsInf(p, 0) {
			ws.errs[b] = fmt.Errorf("mva: batch lane %d: population = %v, want finite > 0", b, p)
		} else {
			ws.errs[b] = ws.iterate(b, warm, tol, maxIter)
		}
		if ws.errs[b] == nil {
			last = b
		} else {
			// Residence times of a failed lane read as zero, whatever a
			// reused buffer held.
			clear(ws.w[b*n : (b+1)*n])
		}
	}
	if last >= 0 {
		ws.warmQ = resizeF(ws.warmQ, n)
		copy(ws.warmQ, ws.q[last*n:(last+1)*n])
		ws.warmOK, ws.warmN = true, n
	}
}

// cycleErr is the error of a lane whose cycle time left (0, +Inf): zero total
// demand is degenerate, anything else is an overflow (see overflowError).
func cycleErr(b, iters int, cycle, tol float64) error {
	if cycle <= 0 {
		return fmt.Errorf("mva: batch lane %d: degenerate zero total demand", b)
	}
	return overflowError(iters, tol)
}

// iterate runs lane b's fixed-point loop from its seed — the warm
// continuation seed when warm, else the lane's own uniform spread — and
// publishes its iterate, throughput, residence times and iteration count.
//
// The coefficients a = s/srv and the cycle weight e·μ are hoisted out of the
// loop, as are the regrouped-cycle constants: the cycle time Σ e·μ·w expands
// exactly to
//
//	Σ_G GEMA_G·tot_G − S/pop + EMS
//
// with GEMA_G = Σ_{i∈G} e·μ·a, EMS = Σ e·μ·s and S = Σ e·μ·a·q, so each
// iteration is ONE pass over the stations plus O(groups) scalar work. The
// pass publishes the next iterate while accumulating its group totals and S
// moment; the group totals ping-pong between the two halves of ws.tot so the
// totals of the point being consumed stay intact. Residence times are
// materialized only when the lane converges, from the totals its converging
// sweep consumed, which reproduces exactly the w vector the two-pass form
// would have published.
//
// Sweeps alternate Aitken legs. Leg 1 takes the plain step in place,
// snapshotting the pre-sweep iterate into xPrev. Leg 2 writes the sweep
// output into gq so x survives, projects the two consecutive residuals, then
// commits the safeguarded Irons–Tuck extrapolant optimistically in one pass;
// an extrapolant that leaves [0, population] is repaired to the plain step
// afterwards.
func (ws *BatchWorkspace) iterate(b int, warm bool, tol float64, maxIter int) error {
	n, ng := ws.stations, ws.groups
	lo, hi := b*n, (b+1)*n
	e, s, srv, mult := ws.e[lo:hi], ws.s[lo:hi], ws.srv[lo:hi], ws.mult[lo:hi]
	q := ws.q[lo:hi]
	group := ws.group[:n]
	es, ea, xp, gq := ws.es[:n], ws.ea[:n], ws.xPrev[:n], ws.gq[:n]
	totA, totB := ws.tot[:ng], ws.tot[ng:2*ng]
	gema := ws.gema[:ng]
	pop := ws.pop[b]
	inv := 1 / pop

	clear(gema)
	var ems float64
	for i, sv := range s {
		av := sv / srv[i]
		em := e[i] * mult[i]
		es[i] = e[i] * sv
		ea[i] = e[i] * av
		ems += em * sv
		gema[group[i]] += em * av
	}

	if warm {
		// Continuation across batches: start from the previous batch's last
		// converged solution, unvisited stations zeroed (their update is
		// identically zero; zeroing keeps the first residence times sane).
		for i, v := range ws.warmQ[:n] {
			if e[i] == 0 {
				v = 0
			}
			q[i] = v
		}
	} else {
		// Cold entry: the population spread uniformly over the visited
		// physical stations, so the answer depends on nothing but this
		// lane's own inputs.
		visited := 0.0
		for i, ev := range e {
			if ev > 0 {
				visited += mult[i]
			}
		}
		var each float64
		if visited > 0 {
			each = pop / visited
		}
		for i, ev := range e {
			q[i] = 0
			if ev > 0 {
				q[i] = each
			}
		}
	}

	// Group totals and S moment of the seed; every later pass folds the
	// accumulation of the point it publishes into the same sweep.
	clear(totA)
	var sa float64
	for i, x := range q {
		tn := mult[i] * x
		totA[group[i]] += tn
		sa += ea[i] * tn
	}
	leg2Min := math.Inf(1)
	var md float64
	for iter := 0; iter < maxIter; iter++ {
		// Steps 2b–3 collapsed to scalars: the cycle time from the
		// regrouped form, with a degeneracy guard before the update so no
		// NaN ever enters the iterate.
		cycle := ems - sa*inv
		for g, gm := range gema {
			cycle += gm * totA[g]
		}
		if !(cycle > 0) || math.IsInf(cycle, 0) {
			return cycleErr(b, iter, cycle, tol)
		}
		lam := pop / cycle
		md = 0
		clear(totB)
		sa = 0
		if iter%2 == 0 {
			// Step 4, Aitken leg 1: plain step in place, remembering where
			// it started.
			for i, x := range q {
				g := group[i]
				qn := lam * (es[i] + ea[i]*(totA[g]-x*inv))
				if d := math.Abs(qn - x); d > md {
					md = d
				}
				xp[i] = x
				q[i] = qn
				tn := mult[i] * qn
				totB[g] += tn
				sa += ea[i] * tn
			}
			ws.iters[b] = iter + 1
			if md < tol {
				ws.lambda[b] = lam
				ws.materializeW(b, totA, xp)
				return nil
			}
			totA, totB = totB, totA
			continue
		}
		// Step 4, Aitken leg 2: x = G(xPrev) is current, so evaluating
		// g = G(x) into gq gives consecutive plain residuals r1 = x − xPrev
		// and r2 = g − x, whose projections estimate the contraction
		// factor μ.
		var r11, r12 float64
		for i, x := range q {
			qn := lam * (es[i] + ea[i]*(totA[group[i]]-x*inv))
			r2 := qn - x
			if d := math.Abs(r2); d > md {
				md = d
			}
			r1 := x - xp[i]
			r11 += r1 * r1
			r12 += r1 * r2
			gq[i] = qn
		}
		ws.iters[b] = iter + 1
		if md < tol {
			ws.lambda[b] = lam
			ws.materializeW(b, totA, q)
			copy(q, gq)
			return nil
		}
		// The factor fac = μ/(1−μ), with NaN marking "take the plain step".
		// The stall guard: extrapolate only when this leg-2 residual is the
		// smallest the lane has reached. Otherwise the last extrapolant set
		// it back, and extrapolating again from there can cycle forever
		// (seen on lanes seeded near a neighbour's fixed point); plain steps
		// then run until the residual reaches a new minimum.
		fac := math.NaN()
		if md < leg2Min && r11 > 0 {
			if mu := r12 / r11; mu > -1 && mu < 1 {
				fac = mu / (1 - mu)
			}
		}
		leg2Min = min(leg2Min, md)
		// Commit x* = g + fac·(g−x) optimistically, accumulating the
		// published totals and S, until a candidate leaves [0, population]
		// (a NaN fac fails that check on the first one).
		plain := false
		for i, g0 := range gq {
			cand := g0 + fac*(g0-q[i])
			if !(cand >= 0 && cand <= pop) {
				plain = true
				break
			}
			q[i] = cand
			tn := mult[i] * cand
			totB[group[i]] += tn
			sa += ea[i] * tn
		}
		if plain {
			// Republish the plain step g and rebuild the totals and S from
			// scratch over the partial commit.
			clear(totB)
			sa = 0
			for i, v := range gq {
				q[i] = v
				tn := mult[i] * v
				totB[group[i]] += tn
				sa += ea[i] * tn
			}
		}
		totA, totB = totB, totA
	}
	return &NonConvergenceError{Iterations: ws.iters[b], MaxDelta: md, Tolerance: tol}
}

// materializeW publishes lane b's residence times: w = a·seen + s evaluated
// at the iterate x its converging sweep consumed, with tot the group totals
// of that same point — exactly the w vector the explicit residence sweep
// would have stored.
func (ws *BatchWorkspace) materializeW(b int, tot, x []float64) {
	n := ws.stations
	lo := b * n
	inv := 1 / ws.pop[b]
	for i, g := range ws.group[:n] {
		at := lo + i
		seen := tot[g] - x[i]*inv
		ws.w[at] = ws.s[at]/ws.srv[at]*seen + ws.s[at]
	}
}
