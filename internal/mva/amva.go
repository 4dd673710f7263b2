package mva

import (
	"fmt"
	"math"

	"lattol/internal/queueing"
	"lattol/internal/validate"
)

// Accel selects a fixed-point acceleration scheme layered over the
// Bard–Schweitzer iteration. Every scheme converges to the same fixed point
// as the plain iteration — the convergence test is always the raw residual
// ‖G(n) − n‖∞ < Tolerance — it only changes how many iterations are needed
// to get there.
type Accel int

const (
	// AccelNone runs the plain Bard–Schweitzer successive substitution of
	// the paper's Figure 3. Default.
	AccelNone Accel = iota
	// AccelAnderson runs depth-3 Anderson mixing (fixpoint.Anderson): the
	// next iterate combines the last three residuals through a
	// least-squares step. When the LS system is ill-conditioned or the mixed
	// iterate leaves the feasible region (negative or non-finite queue
	// lengths), the step falls back to the plain iteration and the history
	// restarts.
	AccelAnderson
)

func (a Accel) String() string {
	switch a {
	case AccelNone:
		return "none"
	case AccelAnderson:
		return "anderson"
	default:
		return fmt.Sprintf("Accel(%d)", int(a))
	}
}

// AMVAOptions tunes the approximate solver. The zero value selects sensible
// defaults.
type AMVAOptions struct {
	// Tolerance is the convergence threshold on the largest absolute change
	// of any per-class per-station queue length between successive
	// iterations. Default 1e-10. Negative values are rejected by Validate;
	// zero selects the default.
	Tolerance float64
	// MaxIterations bounds the fixed-point loop. Default 100000.
	MaxIterations int
	// Accel selects a fixed-point acceleration scheme. All schemes converge
	// to the same fixed point (the convergence test is the raw residual);
	// they differ only in iteration count. Default AccelNone.
	Accel Accel
	// WarmStart seeds the queue-length iterate from the workspace's previous
	// converged solution instead of the uniform initial spread. The seed is
	// shape-checked: when the workspace's last converged solve had a
	// different class or station count (or did not converge), the solver
	// falls back to the uniform guess. Warm starting never changes the fixed
	// point — only the starting guess — so adjacent solves of a continuation
	// sweep converge in a fraction of the cold iteration count.
	WarmStart bool
}

// Validate reports the first invalid option as a field-named error
// (*validate.FieldError). Zero values are valid: they select the defaults.
func (o AMVAOptions) Validate() error {
	if math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0) || o.Tolerance < 0 {
		return validate.Fieldf("mva.AMVAOptions", "Tolerance", "= %v, want finite >= 0", o.Tolerance)
	}
	switch o.Accel {
	case AccelNone, AccelAnderson:
	default:
		return validate.Fieldf("mva.AMVAOptions", "Accel", "= %d, want AccelNone or AccelAnderson", int(o.Accel))
	}
	return nil
}

// Defaults selected by zero-valued AMVAOptions fields. Exported so layers
// above (metrics bucketing, documentation) can reference the real caps
// instead of restating them.
const (
	// DefaultTolerance is the convergence threshold on the raw residual
	// ‖G(n) − n‖∞ selected by a zero Tolerance.
	DefaultTolerance = 1e-10
	// DefaultMaxIterations is the fixed-point iteration budget selected by a
	// zero MaxIterations.
	DefaultMaxIterations = 100000
)

func (o AMVAOptions) withDefaults() AMVAOptions {
	if o.Tolerance <= 0 {
		o.Tolerance = DefaultTolerance
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = DefaultMaxIterations
	}
	return o
}

// NonConvergenceError reports that the Bard–Schweitzer fixed point did not
// stabilize within the iteration budget, with the diagnostics of the last
// iteration: how many iterations ran and how far from the tolerance the
// iterate still was.
type NonConvergenceError struct {
	// Iterations is the number of fixed-point iterations performed.
	Iterations int
	// MaxDelta is the largest absolute queue-length change observed in the
	// final iteration (the quantity compared against Tolerance).
	MaxDelta float64
	// Tolerance is the convergence threshold that was not reached.
	Tolerance float64
}

func (e *NonConvergenceError) Error() string {
	if math.IsInf(e.MaxDelta, 1) {
		return fmt.Sprintf("mva: Bard–Schweitzer iterate overflowed float64 after %d iterations; the times are out of range", e.Iterations)
	}
	return fmt.Sprintf("mva: Bard–Schweitzer did not converge within %d iterations (tol %g, last max delta %g)",
		e.Iterations, e.Tolerance, e.MaxDelta)
}

// overflowError is the error of an iteration whose cycle time left float64
// (+Inf or NaN): the network's times are outside float64 range, so the
// iterate can never reach the fixed point. It reports non-convergence after
// the iterations that ran, with an unbounded last step, and — like every
// failed solve — never seeds a warm start.
func overflowError(iters int, tol float64) *NonConvergenceError {
	return &NonConvergenceError{Iterations: iters, MaxDelta: math.Inf(1), Tolerance: tol}
}

// ApproxMultiClass solves a closed multiclass network with the
// Bard–Schweitzer approximate MVA — the algorithm of the paper's Figure 3.
//
// The fixed point iterates, for every class i and station m:
//
//	n_m(N-1_i) ≈ (N_i-1)/N_i · n_{i,m}(N) + Σ_{j≠i} n_{j,m}(N)   (step 2a)
//	w_{i,m}    = s_m · (1 + n_m(N-1_i))   [FCFS; w = s_m at delay] (step 2b)
//	λ_i        = N_i / Σ_m e_{i,m}·w_{i,m}                        (step 3)
//	n_{i,m}    = λ_i·e_{i,m}·w_{i,m}                              (step 4)
//
// until queue lengths stabilize (step 5). On non-convergence the returned
// error is a *NonConvergenceError carrying the last iteration's diagnostics.
//
// The returned Result is freshly allocated and owned by the caller. For
// repeated solves that should reuse buffers (and warm-start from the previous
// solution), use (*Workspace).ApproxMultiClass.
func ApproxMultiClass(net *queueing.Network, opts AMVAOptions) (*Result, error) {
	var ws Workspace
	return ws.ApproxMultiClass(net, opts)
}

// ApproxMultiClass runs the Bard–Schweitzer solver using the workspace's
// buffers. The returned Result aliases the workspace and is valid until the
// next solve on it; see the Workspace reuse contract. With
// AMVAOptions.WarmStart the iterate is seeded from the workspace's previous
// converged solution when its shape (class and station counts) matches.
func (ws *Workspace) ApproxMultiClass(net *queueing.Network, opts AMVAOptions) (*Result, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	nc := len(net.Classes)
	nm := len(net.Stations)
	warm := opts.WarmStart && ws.warmOK && ws.warmNC == nc && ws.warmNM == nm
	r := ws.ensure(nc, nm, warm)
	// The iterate is in flux until this solve converges; a failed or
	// interrupted solve must not seed the next warm start.
	ws.warmOK = false
	q := ws.q

	if warm {
		// q already holds the previous converged solution. Classes the
		// iteration skips (zero population) must read as zero: stale mass in
		// a skipped row would never be updated and would shift the fixed
		// point through the column sums.
		for c, cl := range net.Classes {
			if cl.Population == 0 {
				row := q[c*nm : (c+1)*nm]
				for i := range row {
					row[i] = 0
				}
			}
		}
	} else {
		// Step 1: spread each class's population evenly over the stations it
		// visits.
		for c, cl := range net.Classes {
			if cl.Population == 0 {
				continue
			}
			visited := 0
			for m := range net.Stations {
				if cl.Visits[m] > 0 {
					visited++
				}
			}
			for m := range net.Stations {
				if cl.Visits[m] > 0 {
					q[c*nm+m] = float64(cl.Population) / float64(visited)
				}
			}
		}
	}

	if err := ws.iterate(net, opts, r); err != nil {
		return nil, err
	}
	r.Method = MethodApprox
	for c := 0; c < nc; c++ {
		copy(r.QueueLen[c], q[c*nm:(c+1)*nm])
	}
	ws.warmOK, ws.warmNC, ws.warmNM = true, nc, nm
	return r, nil
}
