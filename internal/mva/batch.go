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
// Figure 3, steps 2a–4) of B independent operating points in lockstep. All
// lanes must share one station shape: the same station count and the same
// station→group assignment, where a group is a set of stations whose queue
// lengths are summed to form the customers-seen term (the symmetric MMS
// solver's role totals; singleton groups degenerate to the plain single-class
// iteration).
//
// Layout is struct-of-arrays, station-major and lane-minor: the iterate of
// station i in lane b lives at q[i*B+b], so each inner loop walks B adjacent
// elements with no per-lane indirection — the flat row-major layout of
// Workspace, widened by one lane axis. Residence times use the precomputed
// two-coefficient form
//
//	w = (s/srv)·seen + s
//
// (algebraically identical to s/srv·(1+seen) + s·(srv−1)/srv), which removes
// both divisions from the hot loop. The lockstep loop itself is a single wide
// pass per sweep: cycle times come from an exact per-lane regrouping of
// Σ e·μ·w into group-total scalars (see Run), and residence times are
// materialized only on the sweep a lane retires.
//
// A station row may stand for several identical physical stations: SetWeight
// gives row i in lane b a physical multiplicity μ, and the group totals
// (Σ μ·q) and cycle times (Σ μ·e·w) weight the row accordingly while the
// per-station update q ← λ·e·w is untouched — identical physical stations
// hold identical queue lengths at every iterate, so one representative row
// carries them all. Callers with symmetric topologies (the MMS model's
// role-homogeneous memories and switches) collapse their station set this
// way and shrink every inner loop by the dedup factor.
//
// Per-lane convergence drives physical lane compaction, not masking: the
// still-iterating lanes are packed into the leading columns, and a lane that
// converges (or fails: invalid population, degenerate zero cycle time)
// retires by swapping its column behind the live window, its q, w and λ left
// exactly as published by the iteration it converged in (accessors map the
// caller's lane index through the permutation). The wide loops therefore run
// dense over contiguous leading columns — branch-free, prefetch-friendly and
// with Σ_b iters(b) total lane-sweeps rather than B·max_b iters(b).
//
// The lockstep loop is accelerated per lane by a safeguarded vector Aitken
// Δ² (Irons–Tuck) scheme, from the first sweep of a cold lane on: two plain
// sweeps estimate the dominant contraction factor μ from consecutive residuals and
// the geometric tail is summed in closed form, x* = g + μ/(1−μ)·(g−x).
// Acceleration only moves the point the next sweep is evaluated at — the map
// and the raw-residual stopping test are unchanged, so the fixed point is
// exactly the plain iteration's. A lane whose μ estimate is not a contraction
// or whose extrapolant leaves [0, population] takes the plain step instead,
// and so does a lane whose leg-2 residual is not the smallest it has reached
// (the stall guard: without it a lane seeded near its fixed point can cycle
// between extrapolants that never converge).
//
// Seeding implements shared warm-start continuation. On a cold batch, every
// lane starts from its own uniform spread (ApproxMultiClass's cold guess), so
// a cold lane's result, iteration count included, is the one a one-lane
// batch of the same inputs would give. Every Run keeps its last converged
// lane's solution; with BatchOptions.WarmStart the next Run of the same
// station count seeds all of its lanes from it instead — the batched analogue
// of AMVAOptions.WarmStart.
//
// The zero value is ready to use. A BatchWorkspace may be used by one
// goroutine at a time; Run performs no allocations in steady state (error
// construction on failed lanes aside).
type BatchWorkspace struct {
	lanes    int
	stations int
	groups   int

	group          []int // station → group, shared by every lane
	e, s, srv, pop []float64
	mult           []float64 // physical stations represented, per (station, lane)

	a          []float64 // s/srv per (station, lane), derived in Run
	em         []float64 // e·mult per (station, lane), derived in Run
	es, ea     []float64 // e·s and e·a per (station, lane), derived in Run
	q, w       []float64
	xPrev      []float64 // Aitken: iterate two sweeps back (leg 1 snapshot)
	gq         []float64 // Aitken: leg-2 sweep output G(x), kept apart from x
	groupTot   []float64 // ping-pong group totals Σ μ·q, tot(x) and tot(x')
	groupTot2  []float64
	gema       []float64 // Σ_{i∈G} e·μ·a per (group, lane), derived in Run
	sAcc       []float64 // per-lane moment S = Σ e·μ·a·q of the current iterate
	ems        []float64 // per-lane constant Σ e·μ·s, derived in Run
	lambda     []float64
	invPop     []float64
	maxDelta   []float64
	r1r1, r1r2 []float64 // per-lane Aitken residual projections
	leg2Min    []float64 // per-lane smallest leg-2 residual so far (the stall guard)
	lane       []int     // packed slot → original lane
	slot       []int     // original lane → packed slot
	iters      []int
	errs       []error

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
	ws.a = resizeF(ws.a, n)
	ws.em = resizeF(ws.em, n)
	ws.q = resizeF(ws.q, n)
	ws.w = resizeF(ws.w, n)
	ws.xPrev = resizeF(ws.xPrev, n)
	ws.gq = resizeF(ws.gq, n)
	ws.es = resizeF(ws.es, n)
	ws.ea = resizeF(ws.ea, n)
	ws.group = resizeInt(ws.group, stations)
	ws.pop = resizeF(ws.pop, lanes)
	ws.groupTot = resizeF(ws.groupTot, groups*lanes)
	ws.groupTot2 = resizeF(ws.groupTot2, groups*lanes)
	ws.gema = resizeF(ws.gema, groups*lanes)
	ws.sAcc = resizeF(ws.sAcc, lanes)
	ws.ems = resizeF(ws.ems, lanes)
	ws.lambda = resizeF(ws.lambda, lanes)
	ws.invPop = resizeF(ws.invPop, lanes)
	ws.maxDelta = resizeF(ws.maxDelta, lanes)
	ws.r1r1 = resizeF(ws.r1r1, lanes)
	ws.r1r2 = resizeF(ws.r1r2, lanes)
	ws.leg2Min = resizeF(ws.leg2Min, lanes)
	ws.lane = resizeInt(ws.lane, lanes)
	ws.slot = resizeInt(ws.slot, lanes)
	ws.iters = resizeInt(ws.iters, lanes)
	for b := 0; b < lanes; b++ {
		ws.lane[b], ws.slot[b] = b, b
	}
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
	at := i*ws.lanes + b
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
	ws.mult[i*ws.lanes+b] = weight
}

// SetPopulation fills lane b's closed population (> 0 and finite, or the lane
// fails with an error).
func (ws *BatchWorkspace) SetPopulation(b int, pop float64) { ws.pop[b] = pop }

// Lambda returns lane b's converged throughput. Defined only when Err(b) is
// nil.
func (ws *BatchWorkspace) Lambda(b int) float64 { return ws.lambda[ws.slot[b]] }

// Residence returns the converged residence time of station i in lane b.
// Defined only when Err(b) is nil.
func (ws *BatchWorkspace) Residence(i, b int) float64 { return ws.w[i*ws.lanes+ws.slot[b]] }

// Visit returns the visit ratio of station i in lane b as loaded by Set.
func (ws *BatchWorkspace) Visit(i, b int) float64 { return ws.e[i*ws.lanes+ws.slot[b]] }

// Weight returns the physical multiplicity of station i in lane b.
func (ws *BatchWorkspace) Weight(i, b int) float64 { return ws.mult[i*ws.lanes+ws.slot[b]] }

// Iterations returns the number of fixed-point iterations lane b consumed.
func (ws *BatchWorkspace) Iterations(b int) int { return ws.iters[b] }

// Err returns lane b's failure, or nil when the lane converged.
func (ws *BatchWorkspace) Err(b int) error { return ws.errs[b] }

// Run iterates every lane to convergence (or failure). Results are read off
// the accessors; lane failures are positional and independent — one bad lane
// never poisons its neighbors.
func (ws *BatchWorkspace) Run(opts BatchOptions) {
	B, n := ws.lanes, ws.stations
	if B == 0 {
		return
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}

	// Derived coefficients and per-lane admission. The residence coefficient
	// a = s/srv and the cycle weight e·μ are hoisted out of the fixed-point
	// loop entirely, as are the regrouped-cycle constants: per lane the
	// cycle time Σ e·μ·w expands exactly to
	//
	//	Σ_G GEMA_G·tot_G − S/pop + EMS
	//
	// with GEMA_G = Σ_{i∈G} e·μ·a, EMS = Σ e·μ·s and S = Σ e·μ·a·q, so the
	// lockstep loop never sweeps stations to form cycle times at all.
	for i, sv := range ws.s {
		av := sv / ws.srv[i]
		ws.a[i] = av
		ws.em[i] = ws.e[i] * ws.mult[i]
		ws.es[i] = ws.e[i] * sv
		ws.ea[i] = ws.e[i] * av
	}
	for b := 0; b < B; b++ {
		ws.ems[b] = 0
	}
	for g := 0; g < ws.groups*B; g++ {
		ws.gema[g] = 0
	}
	for i := 0; i < n; i++ {
		base := i * B
		g := ws.group[i] * B
		for b := 0; b < B; b++ {
			ws.ems[b] += ws.em[base+b] * ws.s[base+b]
			ws.gema[g+b] += ws.em[base+b] * ws.a[base+b]
		}
	}
	for b := 0; b < B; b++ {
		ws.lane[b], ws.slot[b] = b, b
		ws.iters[b] = 0
		ws.lambda[b] = 0
		p := ws.pop[b]
		if !(p > 0) || math.IsInf(p, 0) {
			ws.errs[b] = fmt.Errorf("mva: batch lane %d: population = %v, want finite > 0", b, p)
			ws.invPop[b] = 0
			continue
		}
		ws.errs[b] = nil
		ws.invPop[b] = 1 / p
	}
	// Residence times are (re)computed from scratch; stale contents of a
	// reused buffer must not leak into lanes that converge on their first
	// sweep.
	for i := range ws.w {
		ws.w[i] = 0
	}

	warm := opts.WarmStart && ws.warmOK && ws.warmN == n
	// The iterate is in flux until this batch completes; a failed Run must
	// not seed the next one.
	ws.warmOK = false
	if warm {
		// Continuation across batches (BatchOptions.WarmStart): every lane
		// starts from the previous batch's last converged solution, its
		// unvisited stations zeroed (their update is identically zero;
		// zeroing keeps the first residence times sane).
		for i := 0; i < n; i++ {
			v := ws.warmQ[i]
			row := ws.q[i*B : (i+1)*B]
			ev := ws.e[i*B : (i+1)*B]
			for b := range row {
				row[b] = v
				if ev[b] == 0 {
					row[b] = 0
				}
			}
		}
	} else {
		// Cold entry: every lane starts from its own uniform spread, so its
		// answer depends on nothing but its own inputs.
		for b := 0; b < B; b++ {
			if ws.errs[b] == nil {
				ws.seedUniform(b)
			}
		}
	}

	// Pack the lanes that still need iterating into the leading columns:
	// admission-failed lanes are resolved, so they retire to the tail before
	// the wide loops start.
	live := B
	for c := 0; c < live; {
		if ws.errs[ws.lane[c]] != nil {
			live = ws.retire(c, live)
			continue
		}
		c++
	}

	ws.iterate(tol, maxIter, live)

	// Save the last converged lane as the next batch's continuation seed.
	for b := B - 1; b >= 0; b-- {
		if ws.errs[b] != nil {
			continue
		}
		ws.warmQ = resizeF(ws.warmQ, n)
		sl := ws.slot[b]
		for i := 0; i < n; i++ {
			ws.warmQ[i] = ws.q[i*B+sl]
		}
		ws.warmOK, ws.warmN = true, n
		break
	}
}

// retire removes the lane in packed column c from the live window [0, live)
// by swapping columns c and live-1 across every per-lane buffer (group totals
// included — they persist between iterations now that their accumulation is
// fused into the update passes) and updating the lane↔slot permutation; it returns the shrunk live count. Retired
// columns sit untouched behind the window with the lane's published q, w and
// λ, read back through the permutation by the accessors. iters and errs stay
// indexed by the caller's lane numbers and never move.
func (ws *BatchWorkspace) retire(c, live int) int {
	d := live - 1
	if c != d {
		B := ws.lanes
		q, w, xp, gq := ws.q, ws.w, ws.xPrev, ws.gq
		e, s, av, em, mu := ws.e, ws.s, ws.a, ws.em, ws.mult
		es, ea := ws.es, ws.ea
		for base := 0; base < len(q); base += B {
			i, j := base+c, base+d
			q[i], q[j] = q[j], q[i]
			w[i], w[j] = w[j], w[i]
			xp[i], xp[j] = xp[j], xp[i]
			gq[i], gq[j] = gq[j], gq[i]
			e[i], e[j] = e[j], e[i]
			s[i], s[j] = s[j], s[i]
			av[i], av[j] = av[j], av[i]
			em[i], em[j] = em[j], em[i]
			mu[i], mu[j] = mu[j], mu[i]
			es[i], es[j] = es[j], es[i]
			ea[i], ea[j] = ea[j], ea[i]
		}
		// srv is consumed deriving a in Run's prologue and never read again,
		// so it alone stays put; Reset requires a full refill anyway.
		gt, gt2, gm := ws.groupTot, ws.groupTot2, ws.gema
		for base := 0; base < len(gt); base += B {
			i, j := base+c, base+d
			gt[i], gt[j] = gt[j], gt[i]
			gt2[i], gt2[j] = gt2[j], gt2[i]
			gm[i], gm[j] = gm[j], gm[i]
		}
		ws.pop[c], ws.pop[d] = ws.pop[d], ws.pop[c]
		ws.invPop[c], ws.invPop[d] = ws.invPop[d], ws.invPop[c]
		ws.lambda[c], ws.lambda[d] = ws.lambda[d], ws.lambda[c]
		ws.sAcc[c], ws.sAcc[d] = ws.sAcc[d], ws.sAcc[c]
		ws.ems[c], ws.ems[d] = ws.ems[d], ws.ems[c]
		ws.maxDelta[c], ws.maxDelta[d] = ws.maxDelta[d], ws.maxDelta[c]
		ws.r1r1[c], ws.r1r1[d] = ws.r1r1[d], ws.r1r1[c]
		ws.r1r2[c], ws.r1r2[d] = ws.r1r2[d], ws.r1r2[c]
		ws.leg2Min[c], ws.leg2Min[d] = ws.leg2Min[d], ws.leg2Min[c]
		lc, ld := ws.lane[c], ws.lane[d]
		ws.lane[c], ws.lane[d] = ld, lc
		ws.slot[lc], ws.slot[ld] = d, c
	}
	return d
}

// seedUniform spreads lane b's population uniformly over its visited
// physical stations (ApproxMultiClass's cold initial guess, weights
// counted).
func (ws *BatchWorkspace) seedUniform(b int) {
	B, n := ws.lanes, ws.stations
	visited := 0.0
	for i := 0; i < n; i++ {
		if ws.e[i*B+b] > 0 {
			visited += ws.mult[i*B+b]
		}
	}
	var each float64
	if visited > 0 {
		each = ws.pop[b] / visited
	}
	for i := 0; i < n; i++ {
		if ws.e[i*B+b] > 0 {
			ws.q[i*B+b] = each
		} else {
			ws.q[i*B+b] = 0
		}
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

// iterate runs the lockstep fixed-point loop over the packed live columns
// [0, live). Each iteration is ONE wide pass over the stations plus O(groups)
// scalar work per lane: the cycle time comes from the regrouped form
// Σ_G GEMA_G·tot_G − S/pop + EMS (see Run), and the update pass publishes the
// next iterate while accumulating its group totals and S moment in the same
// sweep — the group totals ping-pong between two buffers so the totals of the
// point being consumed stay intact. Residence times are materialized per lane
// only when it retires, from the totals its converging sweep consumed, which
// reproduces exactly the w vector the two-pass form would have published.
//
// Sweeps alternate Aitken legs. Leg 1 takes the plain step in place,
// snapshotting the pre-sweep iterate into xPrev. Leg 2 writes the sweep
// output into gq so x survives, projects the two consecutive residuals per
// lane, then commits the safeguarded Irons–Tuck extrapolant optimistically in
// one pass — lanes whose extrapolant leaves [0, population] (a NaN factor
// included) are repaired column-wise to the plain step afterwards. A lane
// that converges (raw residual below tol) or fails retires its column behind
// the live window (see retire).
func (ws *BatchWorkspace) iterate(tol float64, maxIter int, live int) {
	B, n := ws.lanes, ws.stations
	md := ws.maxDelta
	inv := ws.invPop
	lam := ws.lambda
	pop := ws.pop
	r11 := ws.r1r1
	r12 := ws.r1r2
	sa := ws.sAcc
	totA, totB := ws.groupTot, ws.groupTot2
	leg2Min := ws.leg2Min
	for b := range leg2Min[:live] {
		leg2Min[b] = math.Inf(1)
	}

	// Group totals and S moment of the seed; every later pass folds the
	// accumulation of the point it publishes into the same sweep.
	for b := range sa[:live] {
		sa[b] = 0
	}
	for g := 0; g < ws.groups; g++ {
		tot := totA[g*B : g*B+live]
		for b := range tot {
			tot[b] = 0
		}
	}
	for i := 0; i < n; i++ {
		base := i * B
		g := ws.group[i] * B
		tot := totA[g : g+live]
		row := ws.q[base : base+live]
		mi := ws.mult[base : base+live]
		eai := ws.ea[base : base+live]
		for b := range row {
			tn := mi[b] * row[b]
			tot[b] += tn
			sa[b] += eai[b] * tn
		}
	}
	for iter := 0; iter < maxIter && live > 0; iter++ {
		// Steps 2b–3 collapsed to per-lane scalars: cycle time from the
		// regrouped form, with a degeneracy guard applied per lane — a
		// failing lane retires before the update, so no NaN ever enters a
		// live column.
		for c := 0; c < live; {
			cycle := ws.ems[c] - sa[c]*inv[c]
			for g := 0; g < ws.groups; g++ {
				cycle += ws.gema[g*B+c] * totA[g*B+c]
			}
			if !(cycle > 0) || math.IsInf(cycle, 0) {
				b := ws.lane[c]
				ws.errs[b] = cycleErr(b, ws.iters[b], cycle, tol)
				lam[c] = 0
				live = ws.retire(c, live)
				continue
			}
			lam[c] = pop[c] / cycle
			md[c] = 0
			c++
		}
		if live == 0 {
			break
		}
		if iter%2 == 0 {
			// Step 4, Aitken leg 1: plain step in place, remembering where
			// it started; group totals and S of the published point ride
			// the same sweep into the spare buffer.
			for g := 0; g < ws.groups; g++ {
				tot := totB[g*B : g*B+live]
				for b := range tot {
					tot[b] = 0
				}
			}
			for b := range sa[:live] {
				sa[b] = 0
			}
			for i := 0; i < n; i++ {
				base := i * B
				g := ws.group[i] * B
				told := totA[g : g+live]
				tnew := totB[g : g+live]
				row := ws.q[base : base+live]
				mi := ws.mult[base : base+live]
				esi := ws.es[base : base+live]
				eai := ws.ea[base : base+live]
				xp := ws.xPrev[base : base+live]
				for b := range row {
					x := row[b]
					u := told[b] - x*inv[b]
					qn := lam[b] * (esi[b] + eai[b]*u)
					if d := math.Abs(qn - x); d > md[b] {
						md[b] = d
					}
					xp[b] = x
					row[b] = qn
					tn := mi[b] * qn
					tnew[b] += tn
					sa[b] += eai[b] * tn
				}
			}
			// Converged lanes materialize w from the totals their sweep
			// consumed and retire; a column swapped in from the window end
			// is rescanned at the same slot.
			for c := 0; c < live; {
				ws.iters[ws.lane[c]]++
				if md[c] < tol {
					ws.materializeW(c, totA, ws.xPrev)
					live = ws.retire(c, live)
					continue
				}
				c++
			}
			totA, totB = totB, totA
			continue
		}
		// Step 4, Aitken leg 2: x = G(xPrev) is current, so evaluating
		// g = G(x) into gq gives consecutive plain residuals r1 = x − xPrev
		// and r2 = g − x; project per lane to estimate the contraction
		// factor μ.
		for b := range r11[:live] {
			r11[b] = 0
			r12[b] = 0
		}
		for i := 0; i < n; i++ {
			base := i * B
			g := ws.group[i] * B
			told := totA[g : g+live]
			row := ws.q[base : base+live]
			esi := ws.es[base : base+live]
			eai := ws.ea[base : base+live]
			xp := ws.xPrev[base : base+live]
			gi := ws.gq[base : base+live]
			for b := range row {
				x := row[b]
				u := told[b] - x*inv[b]
				qn := lam[b] * (esi[b] + eai[b]*u)
				r2 := qn - x
				if d := math.Abs(r2); d > md[b] {
					md[b] = d
				}
				r1 := x - xp[b]
				r11[b] += r1 * r1
				r12[b] += r1 * r2
				gi[b] = qn
			}
		}
		// Converged lanes materialize w(x), publish g and retire; survivors
		// pick their factor fac = μ/(1−μ), with NaN marking "take the plain
		// step" (r1r1 is reused as the factor and r1r2, re-zeroed here, as
		// the feasibility flag below). The stall guard: a lane extrapolates
		// only when its leg-2 residual is the smallest it has reached.
		// Otherwise the last extrapolant set it back, and extrapolating again
		// from there can cycle forever (seen on lanes seeded near a
		// neighbour's fixed point); plain steps then run until the residual
		// reaches a new minimum.
		for c := 0; c < live; {
			ws.iters[ws.lane[c]]++
			if md[c] < tol {
				ws.materializeW(c, totA, ws.q)
				for i := 0; i < n; i++ {
					ws.q[i*B+c] = ws.gq[i*B+c]
				}
				live = ws.retire(c, live)
				continue
			}
			fac := math.NaN()
			if rr := r11[c]; md[c] < leg2Min[c] && rr > 0 {
				if mu := r12[c] / rr; mu > -1 && mu < 1 {
					fac = mu / (1 - mu)
				}
			}
			leg2Min[c] = min(leg2Min[c], md[c])
			r11[c] = fac
			r12[c] = 0
			c++
		}
		// Commit x* = g + fac·(g−x) optimistically in one pass, accumulating
		// the published group totals and S and flagging lanes whose
		// extrapolant leaves [0, population] — a NaN fac fails the bound
		// check too, folding the plain-step fallback into the same flag.
		for g := 0; g < ws.groups; g++ {
			tot := totB[g*B : g*B+live]
			for b := range tot {
				tot[b] = 0
			}
		}
		for b := range sa[:live] {
			sa[b] = 0
		}
		for i := 0; i < n; i++ {
			base := i * B
			g := ws.group[i] * B
			tnew := totB[g : g+live]
			row := ws.q[base : base+live]
			gi := ws.gq[base : base+live]
			mi := ws.mult[base : base+live]
			eai := ws.ea[base : base+live]
			for b := range row {
				g0 := gi[b]
				cand := g0 + r11[b]*(g0-row[b])
				if !(cand >= 0 && cand <= pop[b]) {
					r12[b] = 1
				}
				row[b] = cand
				tn := mi[b] * cand
				tnew[b] += tn
				sa[b] += eai[b] * tn
			}
		}
		// Repair flagged lanes column-wise: republish the plain step g and
		// rebuild the lane's totals and S from scratch (a NaN candidate has
		// poisoned them, so incremental patching won't do). The safeguard
		// trips on few lanes past the first sweeps, so the strided repair is
		// far cheaper than a separate candidate pass.
		for c := 0; c < live; c++ {
			if r12[c] == 0 {
				continue
			}
			sa[c] = 0
			for g := 0; g < ws.groups; g++ {
				totB[g*B+c] = 0
			}
			for i := 0; i < n; i++ {
				at := i*B + c
				v := ws.gq[at]
				ws.q[at] = v
				tn := ws.mult[at] * v
				totB[ws.group[i]*B+c] += tn
				sa[c] += ws.ea[at] * tn
			}
		}
		totA, totB = totB, totA
	}
	for c := 0; c < live; c++ {
		b := ws.lane[c]
		ws.errs[b] = &NonConvergenceError{Iterations: ws.iters[b], MaxDelta: md[c], Tolerance: tol}
	}
}

// materializeW publishes the residence times of the lane in packed column c:
// w = a·seen + s evaluated at the iterate x its converging sweep consumed,
// with tot the group totals of that same point — exactly the w vector the
// explicit residence sweep would have stored.
func (ws *BatchWorkspace) materializeW(c int, tot, x []float64) {
	B := ws.lanes
	ic := ws.invPop[c]
	for i := 0; i < ws.stations; i++ {
		at := i*B + c
		seen := tot[ws.group[i]*B+c] - x[at]*ic
		ws.w[at] = ws.a[at]*seen + ws.s[at]
	}
}
