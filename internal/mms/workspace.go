package mms

import (
	"sync"

	"lattol/internal/mva"
)

// Workspace holds the reusable scratch of the model solvers and of
// SolveBatch's elaboration: the one-point kernel that runs every
// symmetric-AMVA solve with its continuation seed, an mva.Workspace for the
// multiclass solvers, and the tables and slabs SolveBatch builds its own
// models from. A long-lived solver (a serving pool worker, an eval.Solver)
// keeps one workspace and reuses it for every solve or batch, so the
// steady-state solve loop, elaboration of new batch items included,
// performs no per-call allocations.
//
// Reuse contract: a Workspace may be used by one goroutine at a time. Every
// solve overwrites the buffers in place; the Metrics returned by Model.Solve
// and SolveBatch are plain values and never alias the workspace. A model
// SolveBatch builds in the slabs lives until the next SolveBatch on the
// workspace and never leaves the call. The zero value is ready to use.
type Workspace struct {
	// mvaWS backs the FullAMVA multiclass solver and the extension solvers
	// (topology comparison, heterogeneous and hot-spot workloads).
	mvaWS mva.Workspace
	// kernel solves every symmetric-AMVA item. seed is the continuation
	// seed, the role totals (processor, memory, outbound, inbound) of the
	// last converged symmetric solve; its zero value, before any, starts
	// the kernel cold.
	kernel mva.Kernel
	seed   [4]float64
	// SolveBatch's per-item models.
	batchModels []*Model
	// Sharing scratch of SolveBatch: the first item of each distinct system
	// and of each distinct elaborated geometry in the current batch.
	batchSystems    itemIndex
	batchGeometries itemIndex
	// Elaboration state of SolveBatch: the memoized tables per torus and
	// access pattern and the slabs holding the models, visit vectors and
	// merged rows of the items it builds or rebases itself (see elaborate).
	tables map[tableKey]*elabTable
	models slab[Model]
	floats slab[float64]
}

// wsPool supplies workspaces to solves that were not handed one explicitly
// (SolveOptions.Workspace == nil), so even one-off Model.Solve calls reuse
// buffers across the process instead of re-allocating per call.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

func getWorkspace() *Workspace   { return wsPool.Get().(*Workspace) }
func putWorkspace(ws *Workspace) { wsPool.Put(ws) }
