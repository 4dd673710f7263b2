package surrogate

import (
	"math"
	"sync"

	"lattol/internal/mms"
)

// Cell refinement: when a query lands in a cell whose certified bound is
// wider than the client asked for, the caller solves exactly (correctness is
// never at stake) and may hand the cell to a Refiner. The Refiner solves a
// one-level 3×3×3 midpoint sub-lattice over the cell (27 nodes, one batch),
// splitting it into 8 subcells with their own corner spreads. Halving the
// step along each axis quarters the curvature margin, so a smooth cell's
// certified bound shrinks ~4x per refinement level; one level is enough to
// move most of the paper's surface under a 1e-2..1e-3 tolerance ask.
//
// Refined overlays are published copy-on-write through an atomic map pointer:
// lookups stay lock-free and allocation-free, and a cell is refined at most
// once (further misses keep falling through to the exact solver, which is
// the correct answer anyway).

// overlay is one refined cell: the sub-lattice values in (r, p, s) row-major
// order with stride 3, and the 8 subcell relative bounds.
type overlay struct {
	vals   [27 * numFields]float64
	bounds [8]float64
}

// lookup interpolates within the refined cell. The incoming fractions are
// cell-relative; they split into a subcell choice plus subcell-relative
// fractions.
func (ov *overlay) lookup(fr, fp, fs, maxRel float64) (mms.Metrics, float64, Status) {
	br, fr2 := splitHalf(fr)
	bp, fp2 := splitHalf(fp)
	bs, fs2 := splitHalf(fs)
	bound := ov.bounds[(br*2+bp)*2+bs]
	if !(bound <= maxRel) {
		return mms.Metrics{}, bound, BoundExceeded
	}
	base := (br*3+bp)*3 + bs
	met := interp3(ov.vals[:], base, 9, 3, 1, fr2, fp2, fs2)
	return met, bound, Hit
}

// splitHalf maps a cell fraction to (subcell index, subcell fraction).
func splitHalf(f float64) (int, float64) {
	if f <= 0.5 {
		return 0, 2 * f
	}
	return 1, 2*f - 1
}

// subAxis returns the (lo, mid, hi) axis values of a cell along one axis; a
// degenerate axis repeats its single value.
func subAxis(vals []float64, c int) [3]float64 {
	if len(vals) == 1 {
		return [3]float64{vals[0], vals[0], vals[0]}
	}
	lo, hi := vals[c], vals[c+1]
	return [3]float64{lo, lo + 0.5*(hi-lo), hi}
}

// cellCoords inverts cellIndex.
func (g *Grid) cellCoords(cell int) (ki, ni, cr, cp, cs int) {
	s := &g.spec
	cR, cP, cS := cellsPerAxis(len(s.R)), cellsPerAxis(len(s.PRemote)), cellsPerAxis(len(s.Psw))
	cs = cell % cS
	cell /= cS
	cp = cell % cP
	cell /= cP
	cr = cell % cR
	cell /= cR
	ni = cell % len(s.NT)
	ki = cell / len(s.NT)
	return
}

// refineCell solves the midpoint sub-lattice of one cell and derives the 8
// subcell bounds with the same cell-local machinery as computeBounds, run on
// the sub-lattice: corner spread, edge monotonicity, and a curvature margin
// from the sub-lattice's own second differences (three nodes per axis give
// one triple per corner line, at half the parent step — so the margin
// naturally lands near a quarter of the parent's). Each subcell bound is
// additionally capped at the parent cell's bound, which remains valid on
// every subcell, so refinement can never loosen what the grid already
// certified.
func (g *Grid) refineCell(cell int, opts BuildOptions) (*overlay, error) {
	ki, ni, cr, cp, cs := g.cellCoords(cell)
	rv := subAxis(g.spec.R, cr)
	pv := subAxis(g.spec.PRemote, cp)
	sv := subAxis(g.spec.Psw, cs)
	var items [27]mms.BatchItem
	for ir := 0; ir < 3; ir++ {
		for ip := 0; ip < 3; ip++ {
			for is := 0; is < 3; is++ {
				items[(ir*3+ip)*3+is] = mms.BatchItem{Config: mms.Config{
					K:          g.spec.K[ki],
					Threads:    g.spec.NT[ni],
					Runlength:  rv[ir],
					MemoryTime: g.spec.MemoryTime,
					SwitchTime: g.spec.SwitchTime,
					PRemote:    pv[ip],
					Psw:        sv[is],
				}}
			}
		}
	}
	results := mms.SolveBatch(items[:], mms.SolveOptions{
		Tolerance:     opts.Tolerance,
		MaxIterations: opts.MaxIterations,
		WarmStart:     true,
		Workspace:     new(mms.Workspace),
	})
	ov := new(overlay)
	var f [numFields]float64
	for i, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
		fieldsOf(res.Metrics, &f)
		copy(ov.vals[i*numFields:(i+1)*numFields], f[:])
	}
	sub := func(fi, ir, ip, is int) float64 {
		return ov.vals[((ir*3+ip)*3+is)*numFields+fi]
	}
	// Monotonicity slack from the sub-lattice magnitude, as in computeBounds.
	var slack [numFields]float64
	for fi := 0; fi < numFields; fi++ {
		scale := 0.0
		for i := 0; i < 27; i++ {
			if a := math.Abs(ov.vals[i*numFields+fi]); a > scale {
				scale = a
			}
		}
		slack[fi] = monoSlack * scale
	}
	degenerate := [3]bool{len(g.spec.R) == 1, len(g.spec.PRemote) == 1, len(g.spec.Psw) == 1}
	parent := g.bounds[cell]
	for br := 0; br < 2; br++ {
		for bp := 0; bp < 2; bp++ {
			for bs := 0; bs < 2; bs++ {
				blo := [3]int{br, bp, bs}
				at := func(fi, ax, t, du, dw int) float64 {
					switch ax {
					case 0:
						return sub(fi, t, bp+du, bs+dw)
					case 1:
						return sub(fi, br+du, t, bs+dw)
					default:
						return sub(fi, br+du, bp+dw, t)
					}
				}
				worst := 0.0
				for fi := 0; fi < numFields; fi++ {
					mn, mx := math.Inf(1), math.Inf(-1)
					for dr := 0; dr < 2; dr++ {
						for dp := 0; dp < 2; dp++ {
							for ds := 0; ds < 2; ds++ {
								v := sub(fi, br+dr, bp+dp, bs+ds)
								mn = math.Min(mn, v)
								mx = math.Max(mx, v)
							}
						}
					}
					spread := mx - mn

					monotone := true
					curvSum := 0.0
					for ax := 0; ax < 3; ax++ {
						if degenerate[ax] {
							continue
						}
						dir, maxD2 := 0.0, 0.0
						for du := 0; du < 2; du++ {
							for dw := 0; dw < 2; dw++ {
								d := at(fi, ax, blo[ax]+1, du, dw) - at(fi, ax, blo[ax], du, dw)
								if math.Abs(d) > math.Abs(dir) {
									dir = d
								}
							}
						}
						for du := 0; du < 2; du++ {
							for dw := 0; dw < 2; dw++ {
								d := at(fi, ax, blo[ax]+1, du, dw) - at(fi, ax, blo[ax], du, dw)
								if d*dir < 0 && math.Abs(d) > slack[fi] {
									monotone = false
								}
								d2 := math.Abs(at(fi, ax, 0, du, dw) - 2*at(fi, ax, 1, du, dw) + at(fi, ax, 2, du, dw))
								if d2 > maxD2 {
									maxD2 = d2
								}
							}
						}
						curvSum += maxD2
					}
					abs := 0.25 * curvSum

					var b float64
					if monotone {
						b = math.Min(spread, abs)
					} else {
						b = spread + abs
					}
					rel := math.Inf(1)
					if b == 0 {
						rel = 0
					} else if mn > 0 {
						rel = b / mn
					}
					worst = math.Max(worst, rel)
				}
				ov.bounds[(br*2+bp)*2+bs] = math.Min(worst, parent)
			}
		}
	}
	return ov, nil
}

// publish installs a refined overlay copy-on-write; concurrent lookups see
// either the old map or the new one, never a partial state.
func (g *Grid) publish(cell int, ov *overlay) {
	for {
		old := g.refined.Load()
		var m map[int]*overlay
		if old == nil {
			m = map[int]*overlay{cell: ov}
		} else {
			m = make(map[int]*overlay, len(*old)+1)
			for k, v := range *old {
				m[k] = v
			}
			m[cell] = ov
		}
		if g.refined.CompareAndSwap(old, &m) {
			return
		}
	}
}

// Refined reports how many cells carry a refinement overlay.
func (g *Grid) Refined() int {
	if m := g.refined.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// Refiner refines cells in the background, one at a time, deduplicating
// requests. Request never blocks the serving path: a full queue or duplicate
// request is simply dropped (the exact solver already answered the client).
type Refiner struct {
	g    *Grid
	opts BuildOptions

	mu      sync.Mutex
	ch      chan int
	pending map[int]struct{}
	closed  bool
	wg      sync.WaitGroup

	// onRefined, when set before the first Request, observes each completed
	// refinement (tests).
	onRefined func(cell int, err error)
}

// NewRefiner starts the background refinement worker for a grid.
func NewRefiner(g *Grid, opts BuildOptions) *Refiner {
	r := &Refiner{
		g:       g,
		opts:    opts,
		ch:      make(chan int, 64),
		pending: make(map[int]struct{}),
	}
	r.wg.Add(1)
	go r.loop()
	return r
}

// Request asks for the cell containing q to be refined. It returns false —
// without blocking — when the query is outside the grid, the cell is already
// refined or queued, the queue is full, or the refiner is closed.
func (r *Refiner) Request(q Query) bool {
	cell, ok := r.g.cellOf(q)
	if !ok {
		return false
	}
	if m := r.g.refined.Load(); m != nil {
		if _, done := (*m)[cell]; done {
			return false
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	if _, dup := r.pending[cell]; dup {
		return false
	}
	select {
	case r.ch <- cell:
		r.pending[cell] = struct{}{}
		return true
	default:
		return false
	}
}

func (r *Refiner) loop() {
	defer r.wg.Done()
	for cell := range r.ch {
		ov, err := r.g.refineCell(cell, r.opts)
		if err == nil {
			r.g.publish(cell, ov)
		}
		r.mu.Lock()
		delete(r.pending, cell)
		hook := r.onRefined
		r.mu.Unlock()
		if hook != nil {
			hook(cell, err)
		}
	}
}

// Close stops the worker after draining queued requests and waits for it.
// Safe to call more than once.
func (r *Refiner) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.ch)
	}
	r.mu.Unlock()
	r.wg.Wait()
}
