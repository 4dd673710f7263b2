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
	// seed: the converged iterate of the last converged item of the group
	// solved before (empty when that group had none), so its length is that
	// item's row count. next holds the current group's last converged
	// iterate until endGroup makes it the seed.
	kernel     mva.Kernel
	seed, next []float64
	// SolveBatch's per-item models and pass-2 done flags.
	batchModels []*Model
	batchDone   []bool
	// Sharing scratch of SolveBatch: each item's first identical item (or
	// -1), and the first item of each distinct system and of each distinct
	// elaborated geometry in the current batch.
	batchDupOf      []int
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

// startGroup begins a group of rows-row items and returns the seed each of
// them starts from: with warm, the continuation seed when its row count is
// rows (the rule compares row count only, not shape), else nil, a cold
// start.
func (ws *Workspace) startGroup(rows int, warm bool) []float64 {
	ws.next = ws.next[:0]
	if warm && len(ws.seed) == rows {
		return ws.seed
	}
	return nil
}

// endGroup makes the group's last converged iterate the continuation seed;
// a group with no converged item clears it.
func (ws *Workspace) endGroup() { ws.seed, ws.next = ws.next, ws.seed }
