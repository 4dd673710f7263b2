package mms

import (
	"fmt"

	"lattol/internal/validate"
)

// BatchItem is one operating point of a batch solve.
type BatchItem struct {
	// Config describes the point; it is elaborated with Build unless Model
	// is set.
	Config Config
	// Model, when non-nil, is the prebuilt model solved for this item and
	// Config is ignored. Passing prebuilt models keeps repeated batches
	// allocation-free.
	Model *Model
	// Solver selects the solution procedure for this item. SymmetricAMVA
	// items (the default) are solved on the workspace's one-point kernel;
	// FullAMVA and ExactMVA items are solved one by one (Model.Solve) on
	// the same workspace.
	Solver Solver
}

// BatchResult is the positional outcome of one batch item.
type BatchResult struct {
	Metrics Metrics
	Err     error
}

// SolveBatch solves many operating points as one batch and reports each
// outcome positionally: a failing item (invalid configuration,
// non-convergence) never affects its neighbors. Items are solved one at a
// time in submission order, symmetric-AMVA ones on the workspace's
// mva.Kernel — the kernel every Model.Solve runs — and land on the same
// fixed point as item-by-item Model.Solve calls (same raw-residual stopping
// rule and tolerance).
//
// Each distinct system is elaborated and solved once per call. A Config
// item whose Config and Solver equal an earlier item's takes no solve of its
// own: it receives that item's result, with a kernel error renamed to its
// own index. One whose geometry (K, PRemote, Uniform, Psw, GeometricMode)
// matches an earlier elaborated item's is rebased onto that item's model.
// Every other Config item is elaborated into the workspace, from a table
// memoized per access pattern, with visits bit for bit those of Build. All
// of this is exact — a rebased model solves bit for bit like a built one —
// so the results equal those of the same batch with its duplicates removed
// and every model built separately.
//
// opts supplies Tolerance, MaxIterations, WarmStart and the Workspace;
// opts.Solver is ignored (each item carries its own). With WarmStart, every
// symmetric-AMVA item starts from the role totals of the last converged
// symmetric solve on the workspace — the item before it, or an earlier
// batch or Model.Solve call — whatever its shape; it applies to FullAMVA
// items as in Model.Solve.
func SolveBatch(items []BatchItem, opts SolveOptions) []BatchResult {
	out := make([]BatchResult, len(items))
	SolveBatchInto(out, items, opts)
	return out
}

// SolveBatchInto is SolveBatch writing into caller-provided storage, so
// steady-state callers (benchmarks, the serve layer's worker loop) can keep
// the solve path allocation-free. len(dst) must equal len(items).
func SolveBatchInto(dst []BatchResult, items []BatchItem, opts SolveOptions) {
	if len(dst) != len(items) {
		panic(fmt.Sprintf("mms: SolveBatchInto: len(dst) = %d, want len(items) = %d", len(dst), len(items)))
	}
	if len(items) == 0 {
		return
	}
	if err := opts.Validate(); err != nil {
		for i := range dst {
			dst[i] = BatchResult{Err: err}
		}
		return
	}
	opts = opts.withDefaults()
	ws := opts.Workspace
	if ws == nil {
		ws = getWorkspace()
		defer putWorkspace(ws)
	}
	models := resizeModels(ws.batchModels, len(items))
	ws.batchModels = models
	ws.batchSystems.reset(len(items))
	ws.batchGeometries.reset(len(items))
	ws.models.reset()
	ws.floats.reset()

	for i := range items {
		dst[i] = BatchResult{}
		models[i] = nil
		it := &items[i]
		m := it.Model
		if m == nil {
			j, slot := ws.batchSystems.lookup(systemHash(it), func(j int) bool { return items[j] == *it })
			if j >= 0 {
				// A duplicate takes its first occurrence's outcome.
				dst[i] = dst[j]
				if e, ok := dst[j].Err.(*itemError); ok {
					dst[i].Err = &itemError{item: i, err: e.err}
				}
				continue
			}
			ws.batchSystems.record(slot, i)
			g := it.Config.geometry()
			if j, slot := ws.batchGeometries.lookup(g.hash(), func(j int) bool { return items[j].Config.geometry() == g }); j >= 0 && it.Config.Validate() == nil {
				m = ws.newModel()
				models[j].rebaseInto(m, it.Config)
			} else {
				var err error
				if m, err = ws.elaborate(it.Config); err != nil {
					dst[i].Err = err
					continue
				}
				if j < 0 {
					ws.batchGeometries.record(slot, i)
				}
			}
		}
		models[i] = m
		switch it.Solver {
		case SymmetricAMVA, FullAMVA, ExactMVA:
			opts.Solver = it.Solver
			dst[i].Metrics, dst[i].Err = m.solve(ws, opts)
			if dst[i].Err != nil && it.Solver == SymmetricAMVA {
				dst[i].Err = &itemError{item: i, err: dst[i].Err}
			}
		default:
			dst[i].Err = validate.Fieldf("mms.BatchItem", "Solver",
				"= %d, want SymmetricAMVA, FullAMVA or ExactMVA", int(it.Solver))
		}
	}
}

// itemError is a kernel failure, reported against the batch item it solved
// (or, for a duplicate item, against the duplicate).
type itemError struct {
	item int
	err  error
}

func (e *itemError) Error() string { return fmt.Sprintf("mms: batch item %d: %v", e.item, e.err) }

func (e *itemError) Unwrap() error { return e.err }

// distinctVisits compacts vis into (value, physical count) pairs, dropping
// zero visits, first-seen order. vals/counts are reused scratch. The
// symmetric MMS topology makes most stations of a role identical — on the
// class-0 chain, stations of one role share service time and server count,
// so stations with equal visit ratios are exact copies of each other and
// hold identical queue lengths at every Bard–Schweitzer iterate. Each
// distinct value becomes ONE kernel row whose physical weight
// (mva.Kernel.SetRow) is the copy count, shrinking the kernel's sweeps by
// the dedup factor (a 4×4 torus under the default distance-decay pattern:
// 49 physical stations → 22 rows).
func distinctVisits(vis, vals, counts []float64) ([]float64, []float64) {
	vals, counts = vals[:0], counts[:0]
	for _, x := range vis {
		if x == 0 {
			continue
		}
		found := false
		for k := range vals {
			if vals[k] == x {
				counts[k]++
				found = true
				break
			}
		}
		if !found {
			vals = append(vals, x)
			counts = append(counts, 1)
		}
	}
	return vals, counts
}

// solveSymmetric solves the model on the workspace's kernel and, when it
// converges, records its role totals as the continuation seed; with
// WarmStart it starts from the seed the last converged solve recorded
// (none yet: a cold start). The layout is class 0's view of the symmetric
// network (0 = processor, then memory, outbound, inbound role groups), with
// each role collapsed to its distinct visit values as weighted
// representative rows (see distinctVisits). Every class is a torus
// translation of class 0, so the total queue length a class-0 customer sees
// at a station of one role is the role total Σ_d n_0[station_d] — the
// kernel's group total — and the Bard–Schweitzer fixed point can be
// iterated on class 0 alone. The role totals are therefore the one seed that
// carries over between points of any torus size or access pattern.
func (m *Model) solveSymmetric(ws *Workspace, opts SolveOptions) (Metrics, error) {
	k := &ws.kernel
	cfg := &m.cfg
	k.Reset(1+len(m.mergeVals[0])+len(m.mergeVals[1])+len(m.mergeVals[2]), len(ws.seed))
	k.SetRow(0, int(Processor), 1, cfg.processorService(), 1, 1)
	row := 1
	for r, vals := range m.mergeVals {
		service, ports := cfg.SwitchTime, float64(cfg.switchPorts())
		if r == 0 {
			service, ports = cfg.MemoryTime, float64(cfg.memoryPorts())
		}
		for j, v := range vals {
			k.SetRow(row, int(Memory)+r, v, service, ports, m.mergeCounts[r][j])
			row++
		}
	}
	var seed []float64
	if opts.WarmStart {
		seed = ws.seed[:]
	}
	lambda, iters, err := k.Solve(float64(cfg.Threads), seed, opts.Tolerance, opts.MaxIterations)
	if err != nil {
		return Metrics{}, err
	}
	k.Totals(ws.seed[:])
	var lObs, sObsSum float64
	row = 1
	for r, vals := range m.mergeVals {
		for j, v := range vals {
			if c := m.mergeCounts[r][j] * v * k.Residence(row); r == 0 {
				lObs += c
			} else {
				sObsSum += c
			}
			row++
		}
	}
	met := m.assembleMetrics(lambda, lObs, sObsSum)
	met.Iterations = iters
	return met, nil
}

func resizeModels(buf []*Model, n int) []*Model {
	if cap(buf) < n {
		return make([]*Model, n)
	}
	return buf[:n]
}
