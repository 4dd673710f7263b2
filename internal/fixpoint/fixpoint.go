// Package fixpoint implements safeguarded Anderson acceleration for
// successive-substitution iterations x ← G(x) on nonnegative vectors, used
// by the multiclass AMVA solver (mva.ApproxMultiClass, behind mms's
// FullAMVA and heterogeneous models). The symmetric solver's batch kernel
// (mva.BatchWorkspace) inlines its own guarded per-lane Aitken step.
//
// The accelerator never evaluates the map itself: the caller evaluates
// g = G(x), tests its own convergence criterion on the raw residual g − x,
// and only then asks the accelerator where to evaluate next. Acceleration
// therefore changes the evaluation points, never the map or the stopping
// test, so an accelerated iteration converges to exactly the same fixed
// point as the plain one — just in fewer evaluations.
package fixpoint

import "math"

// Scheme selects an acceleration scheme.
type Scheme int

const (
	// None takes the plain step x ← g.
	None Scheme = iota
	// Anderson runs depth-3 Anderson mixing: the next iterate combines the
	// last three residual differences through a least-squares step. When the LS
	// system is ill-conditioned or the mixed iterate leaves [0, upper], the
	// step falls back to the plain iteration and the history restarts.
	Anderson
)

// mixDepth is the Anderson mixing depth m: how many recent residual
// differences enter the least-squares step.
const mixDepth = 3

// Accelerator holds the state and scratch buffers of one accelerated
// iteration. The zero value is unusable; call Reset before the first
// Advance. Buffers are retained across Resets, so a reused accelerator
// allocates nothing in steady state.
type Accelerator struct {
	scheme Scheme

	// Anderson: f is the current residual g−x; fPrev/gPrev the previous
	// residual and map value (valid iff haveRes); dF/dG the depth×n
	// difference histories (flattened row-major, ring-indexed); gram, rhs
	// and gamma the normal-equations system.
	f, fPrev, gPrev  []float64
	dF, dG           []float64
	gram, rhs, gamma []float64
	haveRes          bool
	histLen, histPos int
}

// Reset prepares the accelerator for a fresh iteration over vectors of
// length n. None keeps no state.
func (a *Accelerator) Reset(scheme Scheme, n int) {
	a.scheme = scheme
	a.haveRes = false
	a.histLen, a.histPos = 0, 0
	if scheme == Anderson {
		a.f = resize(a.f, n)
		a.fPrev = resize(a.fPrev, n)
		a.gPrev = resize(a.gPrev, n)
		a.dF = resize(a.dF, mixDepth*n)
		a.dG = resize(a.dG, mixDepth*n)
		a.gram = resize(a.gram, mixDepth*mixDepth)
		a.rhs = resize(a.rhs, mixDepth)
		a.gamma = resize(a.gamma, mixDepth)
	}
}

// Advance consumes one map evaluation g = G(x) and writes the next iterate
// into x (g is not modified). upper[i] is the feasibility bound of component
// i: any accelerated candidate outside [0, upper[i]] (or non-finite) is
// rejected in favor of the plain step. len(x), len(g) and len(upper) must
// equal the n passed to Reset.
func (a *Accelerator) Advance(x, g, upper []float64) {
	if a.scheme == Anderson {
		a.advanceAnderson(x, g, upper)
	} else {
		copy(x, g)
	}
}

func (a *Accelerator) advanceAnderson(x, g, upper []float64) {
	n := len(x)
	f := a.f
	for i := 0; i < n; i++ {
		f[i] = g[i] - x[i]
	}
	if a.haveRes {
		col := a.histPos * n
		for i := 0; i < n; i++ {
			a.dF[col+i] = f[i] - a.fPrev[i]
			a.dG[col+i] = g[i] - a.gPrev[i]
		}
		a.histPos = (a.histPos + 1) % mixDepth
		if a.histLen < mixDepth {
			a.histLen++
		}
	}
	copy(a.fPrev, f)
	copy(a.gPrev, g)
	a.haveRes = true

	if a.histLen == 0 || !a.mix(x, g) || !feasible(x, upper) {
		// No history yet, the LS step was ill-conditioned, or the mixed
		// iterate left the feasible region: plain step, restart the history.
		copy(x, g)
		a.histLen, a.histPos = 0, 0
	}
}

// mix solves the least-squares problem γ = argmin ‖f − ΔF·γ‖₂ over the
// histLen stored difference columns via the normal equations and writes the
// mixed iterate x = g − ΔG·γ. It reports false — leaving x untouched — when
// the system is singular or ill-conditioned (a pivot below 1e-12 of the
// largest Gram diagonal).
func (a *Accelerator) mix(x, g []float64) bool {
	n := len(x)
	mk := a.histLen
	dF, dG := a.dF, a.dG
	gram, rhs, gamma := a.gram, a.rhs, a.gamma

	maxDiag := 0.0
	for j := 0; j < mk; j++ {
		for k := j; k < mk; k++ {
			var s float64
			for i := 0; i < n; i++ {
				s += dF[j*n+i] * dF[k*n+i]
			}
			gram[j*mk+k] = s
			gram[k*mk+j] = s
		}
		if d := gram[j*mk+j]; d > maxDiag {
			maxDiag = d
		}
		var s float64
		for i := 0; i < n; i++ {
			s += dF[j*n+i] * a.f[i]
		}
		rhs[j] = s
	}
	if maxDiag == 0 || math.IsNaN(maxDiag) || math.IsInf(maxDiag, 0) {
		return false
	}

	// Gaussian elimination with partial pivoting on the mk×mk system.
	for col := 0; col < mk; col++ {
		piv := col
		for rw := col + 1; rw < mk; rw++ {
			if math.Abs(gram[rw*mk+col]) > math.Abs(gram[piv*mk+col]) {
				piv = rw
			}
		}
		if math.Abs(gram[piv*mk+col]) <= 1e-12*maxDiag {
			return false
		}
		if piv != col {
			for k := col; k < mk; k++ {
				gram[col*mk+k], gram[piv*mk+k] = gram[piv*mk+k], gram[col*mk+k]
			}
			rhs[col], rhs[piv] = rhs[piv], rhs[col]
		}
		for rw := col + 1; rw < mk; rw++ {
			fct := gram[rw*mk+col] / gram[col*mk+col]
			if fct == 0 {
				continue
			}
			for k := col; k < mk; k++ {
				gram[rw*mk+k] -= fct * gram[col*mk+k]
			}
			rhs[rw] -= fct * rhs[col]
		}
	}
	for j := mk - 1; j >= 0; j-- {
		s := rhs[j]
		for k := j + 1; k < mk; k++ {
			s -= gram[j*mk+k] * gamma[k]
		}
		gamma[j] = s / gram[j*mk+j]
	}

	for i := 0; i < n; i++ {
		xi := g[i]
		for j := 0; j < mk; j++ {
			xi -= gamma[j] * dG[j*n+i]
		}
		x[i] = xi
	}
	return true
}

// feasible reports whether every component is finite, non-negative and at
// most its bound.
func feasible(x, upper []float64) bool {
	for i, v := range x {
		if math.IsNaN(v) || v < 0 || v > upper[i] {
			return false
		}
	}
	return true
}

func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
