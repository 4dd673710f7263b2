package mva

import (
	"errors"
	"fmt"
	"math"
)

// Kernel iterates the Bard–Schweitzer fixed point (the paper's Figure 3,
// steps 2a–4) of one operating point of a grouped single-class network.
// Each row is a station; a group is a set of rows whose queue lengths are
// summed to form the customers-seen term (the symmetric MMS solver's role
// totals; singleton groups degenerate to the plain single-class iteration).
// Residence times use the precomputed two-coefficient form
//
//	w = (s/srv)·seen + s
//
// (algebraically identical to s/srv·(1+seen) + s·(srv−1)/srv), which removes
// both divisions from the loop. Each sweep is a single pass over the rows:
// the cycle time comes from an exact regrouping of Σ e·μ·w into group-total
// scalars (see iterate), and residence times are materialized only on the
// sweep the point converges in.
//
// A row may stand for several identical physical stations: its weight μ
// counts it μ times into its group total (Σ μ·q) and the cycle time
// (Σ μ·e·w), while the per-station update q ← λ·e·w is untouched — identical
// physical stations hold identical queue lengths at every iterate, so one
// representative row carries them all. Callers with symmetric topologies
// (the MMS model's role-homogeneous memories and switches) collapse their
// station set this way and shrink every sweep by the dedup factor.
//
// The loop is accelerated by a safeguarded vector Aitken Δ² (Irons–Tuck)
// scheme, from its first sweep on: two plain sweeps estimate the dominant
// contraction factor μ from consecutive residuals and the geometric tail is
// summed in closed form, x* = g + μ/(1−μ)·(g−x). Acceleration only moves the
// point the next sweep is evaluated at — the map and the raw-residual
// stopping test ‖G(n) − n‖∞ < tol are unchanged, so the fixed point is
// exactly the plain iteration's. The step is plain instead when the μ
// estimate is not a contraction, when the extrapolant leaves
// [0, population], or when the leg-2 residual is not the smallest the solve
// has reached (the stall guard: without it a point seeded near its fixed
// point can cycle between extrapolants that never converge).
//
// The zero value is ready to use. A Kernel may be used by one goroutine at a
// time; Solve performs no allocations in steady state (error construction
// aside).
type Kernel struct {
	rows, groups int

	// Per row: the loaded inputs, the iterate and the published residence
	// times.
	e, s, srv, mult []float64
	q, w            []float64
	group           []int

	// Solve scratch: es = e·s and ea = e·s/srv per row, the Aitken leg-1
	// snapshot xPrev and leg-2 sweep output gq, the ping-pong group totals
	// Σ μ·q and the regrouped-cycle constants gema = Σ_{i∈G} e·μ·s/srv.
	es, ea, xPrev, gq []float64
	tot, gema         []float64
}

// Reset sizes the kernel for a point of `rows` rows in `groups` queue-length
// groups. The caller must then load every row with SetRow before Solve:
// buffer contents are otherwise unspecified.
func (k *Kernel) Reset(rows, groups int) {
	k.rows, k.groups = rows, groups
	k.e = resizeF(k.e, rows)
	k.s = resizeF(k.s, rows)
	k.srv = resizeF(k.srv, rows)
	k.mult = resizeF(k.mult, rows)
	k.q = resizeF(k.q, rows)
	k.w = resizeF(k.w, rows)
	k.group = resizeInt(k.group, rows)
	k.es = resizeF(k.es, rows)
	k.ea = resizeF(k.ea, rows)
	k.xPrev = resizeF(k.xPrev, rows)
	k.gq = resizeF(k.gq, rows)
	k.tot = resizeF(k.tot, 2*groups)
	k.gema = resizeF(k.gema, groups)
}

// SetRow loads row i: its queue-length group (0 <= group < groups), visit
// ratio, mean service time, parallel-server count and weight, the number of
// identical physical stations it stands for. All values must be finite,
// visit and service non-negative, servers and weight >= 1.
func (k *Kernel) SetRow(i, group int, visit, service, servers, weight float64) {
	k.group[i] = group
	k.e[i] = visit
	k.s[i] = service
	k.srv[i] = servers
	k.mult[i] = weight
}

// Solve iterates the loaded point with closed population pop to the
// residual tol, within maxIter sweeps, and returns its throughput λ and the
// sweeps taken. A nil seed starts cold, from the population spread
// uniformly over the visited physical stations, so the answer depends on
// nothing but the loaded inputs. Otherwise seed holds one finite,
// non-negative total per group, typically the Totals of a neighbouring
// point, whatever its row count: each group's total is spread over the
// group's visited rows in proportion to visit ratio, and the whole seed is
// scaled to pop (a seed that puts nothing on a visited row starts cold). A
// population that is not finite and > 0, a cycle time that leaves
// (0, +Inf) and non-convergence are errors; the residence times of a failed
// solve read as zero.
func (k *Kernel) Solve(pop float64, seed []float64, tol float64, maxIter int) (lambda float64, iters int, err error) {
	if seed != nil && len(seed) != k.groups {
		panic(fmt.Sprintf("mva: Kernel.Solve: len(seed) = %d, want %d groups", len(seed), k.groups))
	}
	if !(pop > 0) || math.IsInf(pop, 0) {
		err = fmt.Errorf("mva: population = %v, want finite > 0", pop)
	} else {
		lambda, iters, err = k.iterate(pop, seed, tol, maxIter)
	}
	if err != nil {
		clear(k.w)
	}
	return lambda, iters, err
}

// Residence returns the converged residence time of row i.
func (k *Kernel) Residence(i int) float64 { return k.w[i] }

// Totals writes the group totals Σ μ·q of the converged queue lengths into
// dst, one per group: the seed that continues from this point. It is
// meaningful only after a Solve that converged.
func (k *Kernel) Totals(dst []float64) {
	clear(dst[:k.groups])
	for i, x := range k.q[:k.rows] {
		dst[k.group[i]] += k.mult[i] * x
	}
}

// cycleErr is the error of a point whose cycle time left (0, +Inf): zero
// total demand is degenerate, anything else is an overflow (see
// overflowError).
func cycleErr(iters int, cycle, tol float64) error {
	if cycle <= 0 {
		return errors.New("mva: degenerate zero total demand")
	}
	return overflowError(iters, tol)
}

// iterate runs the fixed-point loop from seed (nil: the uniform cold
// spread) and publishes the iterate and residence times.
//
// The coefficients a = s/srv and the cycle weight e·μ are hoisted out of the
// loop, as are the regrouped-cycle constants: the cycle time Σ e·μ·w expands
// exactly to
//
//	Σ_G GEMA_G·tot_G − S/pop + EMS
//
// with GEMA_G = Σ_{i∈G} e·μ·a, EMS = Σ e·μ·s and S = Σ e·μ·a·q, so each
// iteration is ONE pass over the rows plus O(groups) scalar work. The pass
// publishes the next iterate while accumulating its group totals and S
// moment; the group totals ping-pong between the two halves of k.tot so the
// totals of the point being consumed stay intact. Residence times are
// materialized only on convergence, from the totals the converging sweep
// consumed, which reproduces exactly the w vector the two-pass form would
// have published.
//
// Sweeps alternate Aitken legs. Leg 1 takes the plain step in place,
// snapshotting the pre-sweep iterate into xPrev. Leg 2 writes the sweep
// output into gq so x survives, projects the two consecutive residuals, then
// commits the safeguarded Irons–Tuck extrapolant optimistically in one pass;
// an extrapolant that leaves [0, population] is repaired to the plain step
// afterwards.
func (k *Kernel) iterate(pop float64, seed []float64, tol float64, maxIter int) (float64, int, error) {
	n, ng := k.rows, k.groups
	e, s, srv, mult := k.e[:n], k.s[:n], k.srv[:n], k.mult[:n]
	q := k.q[:n]
	group := k.group[:n]
	es, ea, xp, gq := k.es[:n], k.ea[:n], k.xPrev[:n], k.gq[:n]
	totA, totB := k.tot[:ng], k.tot[ng:2*ng]
	gema := k.gema[:ng]
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

	if seed == nil || !k.spread(pop, seed, totA) {
		// Cold entry: the population spread uniformly over the visited
		// physical stations, so the answer depends on nothing but this
		// point's own inputs.
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
			return 0, iter, cycleErr(iter, cycle, tol)
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
			if md < tol {
				k.materializeW(pop, totA, xp)
				return lam, iter + 1, nil
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
		if md < tol {
			k.materializeW(pop, totA, q)
			copy(q, gq)
			return lam, iter + 1, nil
		}
		// The factor fac = μ/(1−μ), with NaN marking "take the plain step".
		// The stall guard: extrapolate only when this leg-2 residual is the
		// smallest the solve has reached. Otherwise the last extrapolant set
		// it back, and extrapolating again from there can cycle forever
		// (seen on points seeded near a neighbour's fixed point); plain
		// steps then run until the residual reaches a new minimum.
		fac := math.NaN()
		if md < leg2Min && r11 > 0 {
			if mu := r12 / r11; mu > -1 && mu < 1 {
				fac = mu / (1 - mu)
			}
		}
		leg2Min = min(leg2Min, md)
		// Commit x* = g + fac·(g−x) optimistically, accumulating the
		// published totals and S, until a candidate leaves [0, population]
		// (a NaN fac fails that check on the first one). Only the lower
		// bound is tested: sweep outputs and seeds both have weighted rows
		// summing to pop, so x* does too, and a row above the population
		// always comes with a negative row.
		plain := false
		for i, g0 := range gq {
			cand := g0 + fac*(g0-q[i])
			if !(cand >= 0) {
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
	return 0, maxIter, &NonConvergenceError{Iterations: maxIter, MaxDelta: md, Tolerance: tol}
}

// spread loads the continuation seed into the iterate: row i of group G
// gets seed_G·e_i / Σ_{j∈G} μ_j·e_j, so the group's weighted total is
// seed_G when any of its rows is visited, and every row is then scaled so
// the weighted totals sum to pop (the sum every sweep output has). den is
// group-sized scratch. It reports false, leaving the iterate untouched, when
// the seed puts nothing on a visited row.
func (k *Kernel) spread(pop float64, seed, den []float64) bool {
	e, group := k.e[:k.rows], k.group[:k.rows]
	clear(den)
	for i, ev := range e {
		den[group[i]] += k.mult[i] * ev
	}
	var sum float64
	for g, d := range den {
		if d > 0 {
			sum += seed[g]
		}
	}
	if !(sum > 0) {
		return false
	}
	for g, d := range den {
		if d > 0 {
			den[g] = seed[g] / d * (pop / sum)
		}
	}
	for i, ev := range e {
		k.q[i] = den[group[i]] * ev
	}
	return true
}

// materializeW publishes the residence times: w = a·seen + s evaluated at
// the iterate x the converging sweep consumed, with tot the group totals of
// that same point — exactly the w vector the explicit residence sweep would
// have stored.
func (k *Kernel) materializeW(pop float64, tot, x []float64) {
	inv := 1 / pop
	for i, g := range k.group[:k.rows] {
		seen := tot[g] - x[i]*inv
		k.w[i] = k.s[i]/k.srv[i]*seen + k.s[i]
	}
}
