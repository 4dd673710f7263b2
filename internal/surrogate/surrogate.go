// Package surrogate answers solve requests by interpolation instead of
// iteration: a dense golden grid of converged AMVA solutions is precomputed
// once (through mms.SolveBatch), and a query inside the grid is served
// by multilinear interpolation over the cell that contains it — a few hundred
// nanoseconds and zero allocations instead of a solver run.
//
// What makes the tier usable at all is that every answer carries a certified
// relative error bound. The paper's surfaces (Figures 4–7) are smooth and
// coordinate-wise monotone in the thread count, runlength and remote fraction
// — the same structure the conformance suite's monotonicity checks pin down —
// and for a coordinate-wise monotone function both the true value and the
// multilinear interpolant lie between the smallest and largest cell corner.
// The per-cell corner spread is therefore a rigorous bound on the
// interpolation error; a curvature margin estimated from lattice second
// differences tightens it on smooth cells and widens it where a lattice line
// is not monotone (see bounds.go for the derivation). A client states its
// tolerance as a relative max_error; the grid serves the query only when the
// cell's certified bound is within it, and reports BoundExceeded otherwise so
// the caller can fall back to the exact solver and request refinement of the
// offending cell (see refine.go).
//
// Grids persist to disk under content-addressed, versioned keys (store.go):
// restarts are warm, and a grid built by a different solver version is never
// trusted.
package surrogate

import (
	"fmt"
	"math"
	"sync/atomic"

	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/validate"
)

// numFields is the number of interpolated metric fields per grid node; see
// fieldsOf for the order.
const numFields = 9

// fieldsOf flattens the interpolated metrics into the grid's field order.
func fieldsOf(m mms.Metrics, out *[numFields]float64) {
	out[0] = m.Up
	out[1] = m.LambdaProc
	out[2] = m.LambdaNet
	out[3] = m.SObs
	out[4] = m.LObs
	out[5] = m.CycleTime
	out[6] = m.MemUtilization
	out[7] = m.OutUtilization
	out[8] = m.InUtilization
}

// metricsOf is the inverse of fieldsOf. Iterations is zero: an interpolated
// answer runs no solver.
func metricsOf(f *[numFields]float64) mms.Metrics {
	return mms.Metrics{
		Up:             f[0],
		LambdaProc:     f[1],
		LambdaNet:      f[2],
		SObs:           f[3],
		LObs:           f[4],
		CycleTime:      f[5],
		MemUtilization: f[6],
		OutUtilization: f[7],
		InUtilization:  f[8],
	}
}

// Spec defines a grid: the five lattice axes (k, n_t, R, p_remote, p_sw) and
// the parameters held fixed across the whole grid. Everything else about the
// model is pinned to the paper's defaults — geometric access pattern with
// per-distance normalization, zero context-switch overhead, single-ported
// memory and switches, symmetric AMVA — and the serving layer only routes a
// request to the grid when its canonical key matches those defaults.
//
// K and NT are exact-match axes (integer knobs are not interpolated); R,
// PRemote and Psw are interpolation axes. All axes must be strictly
// increasing.
type Spec struct {
	// Solver is the solver-version tag the grid values were computed by
	// (mva.SolverVersion). It participates in the spec hash, so a solver
	// change orphans persisted grids instead of silently serving stale
	// numbers.
	Solver string

	// MemoryTime and SwitchTime are the fixed L and S of every node.
	MemoryTime float64
	SwitchTime float64

	K       []int
	NT      []int
	R       []float64
	PRemote []float64
	Psw     []float64
}

// DefaultSpec covers the paper's operating region (Figures 4–7) on the 4×4
// torus: every thread count of the figures, runlengths 5–30, the full
// p_remote sweep at cell width 0.05 and five locality settings.
func DefaultSpec() Spec {
	return Spec{
		Solver:     mva.SolverVersion,
		MemoryTime: 10,
		SwitchTime: 10,
		K:          []int{4},
		NT:         []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		R:          []float64{5, 10, 15, 20, 25, 30},
		PRemote: []float64{
			0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45,
			0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90,
		},
		Psw: []float64{0.2, 0.35, 0.5, 0.65, 0.8},
	}
}

// maxNodes bounds a grid build; beyond it the spec is rejected rather than
// silently consuming gigabytes.
const maxNodes = 1 << 22

// Validate reports the first invalid spec component as a field-named error.
func (s Spec) Validate() error {
	if s.Solver == "" {
		return validate.Fieldf("surrogate.Spec", "Solver", "is empty, want a solver version tag (mva.SolverVersion)")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"MemoryTime", s.MemoryTime}, {"SwitchTime", s.SwitchTime}} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return validate.Fieldf("surrogate.Spec", p.name, "= %v, want finite >= 0", p.v)
		}
	}
	if len(s.K) == 0 {
		return validate.Fieldf("surrogate.Spec", "K", "is empty")
	}
	for i, k := range s.K {
		if k < 2 {
			return validate.Fieldf("surrogate.Spec", "K", "[%d] = %d, want >= 2 (K = 1 has no network to interpolate)", i, k)
		}
		if i > 0 && k <= s.K[i-1] {
			return validate.Fieldf("surrogate.Spec", "K", "[%d] = %d, want strictly increasing", i, k)
		}
	}
	if len(s.NT) == 0 {
		return validate.Fieldf("surrogate.Spec", "NT", "is empty")
	}
	for i, nt := range s.NT {
		if nt < 1 {
			return validate.Fieldf("surrogate.Spec", "NT", "[%d] = %d, want >= 1", i, nt)
		}
		if i > 0 && nt <= s.NT[i-1] {
			return validate.Fieldf("surrogate.Spec", "NT", "[%d] = %d, want strictly increasing", i, nt)
		}
	}
	for _, ax := range []struct {
		name     string
		vals     []float64
		min, max float64
	}{
		{"R", s.R, math.SmallestNonzeroFloat64, math.MaxFloat64},
		{"PRemote", s.PRemote, math.SmallestNonzeroFloat64, 1},
		{"Psw", s.Psw, math.SmallestNonzeroFloat64, 1},
	} {
		if len(ax.vals) == 0 {
			return validate.Fieldf("surrogate.Spec", ax.name, "is empty")
		}
		for i, v := range ax.vals {
			if math.IsNaN(v) || v < ax.min || v > ax.max {
				return validate.Fieldf("surrogate.Spec", ax.name, "[%d] = %v, want in (0,%v]", i, v, ax.max)
			}
			if i > 0 && v <= ax.vals[i-1] {
				return validate.Fieldf("surrogate.Spec", ax.name, "[%d] = %v, want strictly increasing", i, v)
			}
		}
	}
	if n := s.nodes(); n > maxNodes {
		return validate.Fieldf("surrogate.Spec", "K", "spec has %d lattice nodes, want <= %d", n, maxNodes)
	}
	return nil
}

// nodes is the lattice node count.
func (s Spec) nodes() int {
	return len(s.K) * len(s.NT) * len(s.R) * len(s.PRemote) * len(s.Psw)
}

// cellsPerAxis returns the cell count along an axis of the given length; a
// single-value (exact-match) axis contributes one degenerate cell.
func cellsPerAxis(n int) int {
	if n <= 1 {
		return 1
	}
	return n - 1
}

// cells is the interpolation cell count.
func (s Spec) cells() int {
	return len(s.K) * len(s.NT) * cellsPerAxis(len(s.R)) * cellsPerAxis(len(s.PRemote)) * cellsPerAxis(len(s.Psw))
}

// config assembles the model configuration of one lattice node.
func (s Spec) config(ki, ni, ri, pi, si int) mms.Config {
	return mms.Config{
		K:          s.K[ki],
		Threads:    s.NT[ni],
		Runlength:  s.R[ri],
		MemoryTime: s.MemoryTime,
		SwitchTime: s.SwitchTime,
		PRemote:    s.PRemote[pi],
		Psw:        s.Psw[si],
	}
}

// Query is one lookup point. K and NT must equal a lattice value exactly; R,
// PRemote and Psw may lie anywhere inside their axis ranges.
type Query struct {
	K, NT           int
	R, PRemote, Psw float64
}

// Status classifies a lookup outcome.
type Status uint8

const (
	// Hit: the query is inside the grid and the cell's certified bound is
	// within the requested tolerance; the interpolated metrics are valid.
	Hit Status = iota
	// Ineligible: the query lies outside the lattice (axis value not
	// covered). The caller must solve.
	Ineligible
	// BoundExceeded: the query is inside the grid but the cell's certified
	// bound is wider than the requested tolerance. The caller must solve,
	// and may request refinement of the cell.
	BoundExceeded
)

func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Ineligible:
		return "ineligible"
	default:
		return "bound-exceeded"
	}
}

// Grid is an immutable precomputed lattice plus its certified per-cell error
// bounds. The only mutable state is the refinement overlay map, swapped
// atomically by a Refiner; Grid is safe for concurrent lookups.
type Grid struct {
	spec Spec

	// vals holds the converged metrics, node-major in the axis order
	// (K, NT, R, PRemote, Psw), numFields floats per node.
	vals []float64
	// bounds holds one certified relative error bound per cell (the maximum
	// over metric fields); +Inf marks a cell the grid refuses to serve.
	bounds []float64
	// curvs holds the per-cell relative curvature margin, kept so cell
	// refinement can scale it with the halved step (see refine.go).
	curvs []float64

	// refined maps cell index → one-level subdivision overlay. Copy-on-write:
	// lookups load the map pointer once and never lock.
	refined atomic.Pointer[map[int]*overlay]
}

// BuildOptions tunes a grid build. The zero value selects the solver
// defaults, which is what persisted grids must use: the build must be a pure
// function of the spec for content addressing to mean anything.
type BuildOptions struct {
	Tolerance     float64
	MaxIterations int
}

// Build solves every lattice node as one mms.SolveBatch (grouped by station
// shape, continuation-seeded in node order) and derives the per-cell
// certified bounds. Building the DefaultSpec grid (5400 nodes) takes
// well under a second.
func Build(spec Spec, opts BuildOptions) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.nodes()
	items := make([]mms.BatchItem, 0, n)
	for ki := range spec.K {
		for ni := range spec.NT {
			for ri := range spec.R {
				for pi := range spec.PRemote {
					for si := range spec.Psw {
						items = append(items, mms.BatchItem{Config: spec.config(ki, ni, ri, pi, si)})
					}
				}
			}
		}
	}
	results := mms.SolveBatch(items, mms.SolveOptions{
		Tolerance:     opts.Tolerance,
		MaxIterations: opts.MaxIterations,
		WarmStart:     true,
		Workspace:     new(mms.Workspace),
	})
	g := &Grid{spec: spec, vals: make([]float64, n*numFields)}
	var f [numFields]float64
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("surrogate: building node %d (%+v): %w", i, items[i].Config, res.Err)
		}
		fieldsOf(res.Metrics, &f)
		copy(g.vals[i*numFields:(i+1)*numFields], f[:])
	}
	g.bounds, g.curvs = computeBounds(spec, g.vals)
	return g, nil
}

// Spec returns the grid's spec. The slices are shared — callers must not
// mutate them.
func (g *Grid) Spec() Spec { return g.spec }

// Nodes returns the lattice node count.
func (g *Grid) Nodes() int { return g.spec.nodes() }

// Cells returns the interpolation cell count.
func (g *Grid) Cells() int { return g.spec.cells() }

// CellBound returns the certified relative bound of cell i (for tooling and
// tests; the serving path reads it through Lookup).
func (g *Grid) CellBound(i int) float64 { return g.bounds[i] }

// findInt returns the index of x in vals, or -1.
func findInt(vals []int, x int) int {
	for i, v := range vals {
		if v == x {
			return i
		}
	}
	return -1
}

// locate finds the cell-lo index and the in-cell fraction of x along an
// axis. A single-value axis requires an exact match (fraction 0); on a
// multi-value axis x must lie within [first, last].
func locate(vals []float64, x float64) (int, float64, bool) {
	n := len(vals)
	if n == 1 {
		if x == vals[0] {
			return 0, 0, true
		}
		return 0, 0, false
	}
	if !(x >= vals[0] && x <= vals[n-1]) { // NaN fails too
		return 0, 0, false
	}
	// Linear scan: axes hold at most a few dozen values, where a
	// branch-predictable scan beats binary search.
	i := 0
	for i+2 < n && x >= vals[i+1] {
		i++
	}
	return i, (x - vals[i]) / (vals[i+1] - vals[i]), true
}

// nodeIndex maps lattice coordinates to the node-major index.
func (g *Grid) nodeIndex(ki, ni, ri, pi, si int) int {
	s := &g.spec
	return (((ki*len(s.NT)+ni)*len(s.R)+ri)*len(s.PRemote)+pi)*len(s.Psw) + si
}

// cellIndex maps cell coordinates to the cell-major index.
func (g *Grid) cellIndex(ki, ni, cr, cp, cs int) int {
	s := &g.spec
	cR, cP, cS := cellsPerAxis(len(s.R)), cellsPerAxis(len(s.PRemote)), cellsPerAxis(len(s.Psw))
	_ = cR
	return (((ki*len(s.NT)+ni)*cR+cr)*cP+cp)*cS + cs
}

// cellOf locates the cell containing a query (for refinement requests).
func (g *Grid) cellOf(q Query) (int, bool) {
	ki := findInt(g.spec.K, q.K)
	ni := findInt(g.spec.NT, q.NT)
	if ki < 0 || ni < 0 {
		return 0, false
	}
	ri, _, okR := locate(g.spec.R, q.R)
	pi, _, okP := locate(g.spec.PRemote, q.PRemote)
	si, _, okS := locate(g.spec.Psw, q.Psw)
	if !okR || !okP || !okS {
		return 0, false
	}
	return g.cellIndex(ki, ni, ri, pi, si), true
}

// Lookup answers a query by multilinear interpolation when the certified
// relative error bound of the containing cell (or refined subcell) is within
// maxRel. It returns the interpolated metrics, the certified bound and the
// outcome status; on BoundExceeded the bound reports how tight the cell
// currently is, and on Ineligible it is zero. Lookup allocates nothing and
// takes a few hundred nanoseconds — the serving layer's sub-µs tier.
func (g *Grid) Lookup(q Query, maxRel float64) (mms.Metrics, float64, Status) {
	ki := findInt(g.spec.K, q.K)
	ni := findInt(g.spec.NT, q.NT)
	if ki < 0 || ni < 0 {
		return mms.Metrics{}, 0, Ineligible
	}
	ri, fr, okR := locate(g.spec.R, q.R)
	pi, fp, okP := locate(g.spec.PRemote, q.PRemote)
	si, fs, okS := locate(g.spec.Psw, q.Psw)
	if !okR || !okP || !okS {
		return mms.Metrics{}, 0, Ineligible
	}
	exact := (fr == 0 || fr == 1) && (fp == 0 || fp == 1) && (fs == 0 || fs == 1)
	cell := g.cellIndex(ki, ni, ri, pi, si)
	if m := g.refined.Load(); !exact && m != nil {
		if ov := (*m)[cell]; ov != nil {
			return ov.lookup(fr, fp, fs, maxRel)
		}
	}
	bound := g.bounds[cell]
	if exact {
		// The query sits on a lattice node: all interpolation weights are 0
		// or 1 and the answer reproduces a converged solve bit-for-bit.
		bound = 0
	}
	if !(bound <= maxRel) { // NaN/+Inf bounds are exceeded by construction
		return mms.Metrics{}, bound, BoundExceeded
	}
	s := &g.spec
	nR, nP, nS := len(s.R), len(s.PRemote), len(s.Psw)
	base := g.nodeIndex(ki, ni, ri, pi, si)
	// Strides to the hi corner per axis; zero on single-value axes (their
	// fraction is 0, so the hi corner carries no weight and must not step
	// out of bounds).
	dR, dP, dS := nP*nS, nS, 1
	if nR == 1 {
		dR = 0
	}
	if nP == 1 {
		dP = 0
	}
	if nS == 1 {
		dS = 0
	}
	met := interp3(g.vals, base, dR, dP, dS, fr, fp, fs)
	return met, bound, Hit
}

// interp3 trilinearly interpolates all metric fields from the 8 corners at
// base + {0,dR}+{0,dP}+{0,dS}, with fractions (fr, fp, fs) toward the hi
// corners. vals is node-major with numFields floats per node.
func interp3(vals []float64, base, dR, dP, dS int, fr, fp, fs float64) mms.Metrics {
	wR := [2]float64{1 - fr, fr}
	wP := [2]float64{1 - fp, fp}
	wS := [2]float64{1 - fs, fs}
	var acc [numFields]float64
	for cr := 0; cr < 2; cr++ {
		if wR[cr] == 0 {
			continue
		}
		for cp := 0; cp < 2; cp++ {
			if wP[cp] == 0 {
				continue
			}
			wrp := wR[cr] * wP[cp]
			for cs := 0; cs < 2; cs++ {
				w := wrp * wS[cs]
				if w == 0 {
					continue
				}
				off := (base + cr*dR + cp*dP + cs*dS) * numFields
				row := vals[off : off+numFields : off+numFields]
				for f, v := range row {
					acc[f] += w * v
				}
			}
		}
	}
	return metricsOf(&acc)
}
