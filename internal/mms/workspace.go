package mms

import (
	"sync"

	"lattol/internal/mva"
)

// Workspace holds the reusable scratch of the model solvers and of
// SolveBatch's elaboration: the batch kernel that runs every
// symmetric-AMVA solve (Model.Solve is a one-lane batch), an mva.Workspace
// for the multiclass solvers, and the tables and slabs SolveBatch builds
// its own models from. A long-lived solver (a serving pool worker, an
// eval.Solver) keeps one workspace and reuses it for every solve or batch,
// so the steady-state solve loop, elaboration of new batch items included,
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
	// Symmetric-AMVA scratch: the lane-major batch kernel (which also keeps the
	// WarmStart continuation state) plus the grouping bookkeeping of
	// SolveBatch (lane→item indices, per-item models, shape partition flags).
	batch       mva.BatchWorkspace
	batchIdx    []int
	batchModels []*Model
	batchDone   []bool
	// Station-dedup scratch: the per-item merged shapes of the current
	// batch (the row lists themselves are cached on each Model at Build).
	batchShapes []batchShape
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
