package mms

import (
	"sync"

	"lattol/internal/fixpoint"
	"lattol/internal/mva"
)

// Workspace holds the reusable scratch buffers of the model solvers: the
// flattened class-0 station vectors of the symmetric AMVA and an mva.Workspace
// for the multiclass solvers. Sweeps that solve many configurations reuse one
// workspace per worker (see sweep.RunWithWorker) so the steady-state solve
// loop performs no per-call allocations.
//
// Reuse contract: a Workspace may be used by one goroutine at a time. Every
// solve overwrites the buffers in place; the Metrics returned by Model.Solve
// is a plain value and never aliases the workspace. The zero value is ready
// to use.
type Workspace struct {
	// Symmetric-AMVA vectors, one entry per class-0 station
	// (1 processor + 3 per node): visit ratios, service times, server
	// counts, the queue-length iterate and residence times.
	e, s, srv, q, w []float64
	role            []StationRole
	// Accelerated-path scratch: g is the evaluated sweep, upper the
	// feasibility bounds, accel the scheme state (see internal/fixpoint).
	g, upper []float64
	accel    fixpoint.Accelerator
	// mvaWS backs the FullAMVA multiclass solver and the extension solvers
	// (topology comparison, heterogeneous and hot-spot workloads).
	mvaWS mva.Workspace
	// Symmetric-solver warm-start state: q holds a converged symWarmN-station
	// solution iff symWarmOK. With SolveOptions.WarmStart a later symmetric
	// solve of the same station count seeds its iterate from it.
	symWarmOK bool
	symWarmN  int

	// Batch-solve scratch: the SoA lockstep kernel plus the grouping
	// bookkeeping of SolveBatch (lane→item indices, per-item models, shape
	// partition flags). Disjoint from the scalar buffers above, so batch and
	// scalar solves can interleave on one workspace.
	batch       mva.BatchWorkspace
	batchIdx    []int
	batchModels []*Model
	batchDone   []bool
	// Station-dedup scratch: the per-item merged shapes of the current
	// batch (the row lists themselves are cached on each Model at Build)
	// and the hoisted per-lane role parameters of the kernel load.
	batchShapes []batchShape
	batchRole   []float64
	// Sharing scratch of SolveBatch: each item's first identical item (or
	// -1), and the first item of each distinct system and of each distinct
	// elaborated geometry in the current batch.
	batchDupOf      []int
	batchSystems    itemIndex
	batchGeometries itemIndex
}

// ensureSym sizes the symmetric-solver vectors for n stations. Contents are
// not zeroed — solveSymmetric overwrites every entry before reading it.
func (ws *Workspace) ensureSym(n int) {
	ws.e = resizeF(ws.e, n)
	ws.s = resizeF(ws.s, n)
	ws.srv = resizeF(ws.srv, n)
	ws.q = resizeF(ws.q, n)
	ws.w = resizeF(ws.w, n)
	if cap(ws.role) < n {
		ws.role = make([]StationRole, n)
	}
	ws.role = ws.role[:n]
}

func resizeF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// wsPool supplies workspaces to solves that were not handed one explicitly
// (SolveOptions.Workspace == nil), so even one-off Model.Solve calls reuse
// buffers across the process instead of re-allocating per call.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

func getWorkspace() *Workspace   { return wsPool.Get().(*Workspace) }
func putWorkspace(ws *Workspace) { wsPool.Put(ws) }
