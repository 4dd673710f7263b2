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
// non-convergence) never affects its neighbors. Symmetric-AMVA items are
// solved one at a time on the workspace's mva.Kernel — the kernel every
// Model.Solve runs — grouped by merged row shape in first-occurrence order,
// and land on the same fixed point as item-by-item Model.Solve calls (same
// raw-residual stopping rule and tolerance).
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
// item of a shape group starts from the last converged item of the group
// solved before it — across successive batches and Model.Solve calls on the
// workspace too — when the two row counts are equal; it applies to FullAMVA
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
		opts.Workspace = ws
	}
	models := resizeModels(ws.batchModels, len(items))
	ws.batchModels = models
	done := resizeBool(ws.batchDone, len(items))
	ws.batchDone = done
	dupOf := resizeInts(ws.batchDupOf, len(items))
	ws.batchDupOf = dupOf
	ws.batchSystems.reset(len(items))
	ws.batchGeometries.reset(len(items))
	ws.models.reset()
	ws.floats.reset()

	// Pass 1: elaborate models, solve FullAMVA and ExactMVA items, resolve the
	// trivial ones and set duplicates aside. Whatever remains is
	// symmetric-AMVA work for the kernel.
	for i := range items {
		dst[i] = BatchResult{}
		done[i] = false
		dupOf[i] = -1
		models[i] = nil
		it := &items[i]
		m := it.Model
		if m == nil {
			j, slot := ws.batchSystems.lookup(systemHash(it), func(j int) bool { return items[j] == *it })
			if j >= 0 {
				dupOf[i] = j
				done[i] = true
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
					done[i] = true
					continue
				}
				if j < 0 {
					ws.batchGeometries.record(slot, i)
				}
			}
		}
		models[i] = m
		switch it.Solver {
		case SymmetricAMVA:
			if m.cfg.Threads == 0 {
				done[i] = true // zero-valued Metrics, as in Model.Solve
			}
		case FullAMVA, ExactMVA:
			sopts := opts
			sopts.Solver = it.Solver
			dst[i].Metrics, dst[i].Err = m.Solve(sopts)
			done[i] = true
		default:
			dst[i].Err = validate.Fieldf("mms.BatchItem", "Solver",
				"= %d, want SymmetricAMVA, FullAMVA or ExactMVA", int(it.Solver))
			done[i] = true
		}
	}

	// Pass 2: solve the kernel work item by item, grouped by merged row
	// shape in first-occurrence order and in the caller's order within a
	// shape. Every item of a group starts from the same continuation seed.
	for i := range items {
		if done[i] {
			continue
		}
		sh := batchShapeOf(models[i])
		seed := ws.startGroup(sh.rows(), opts.WarmStart)
		for j := i; j < len(items); j++ {
			if done[j] || batchShapeOf(models[j]) != sh {
				continue
			}
			done[j] = true
			if dst[j].Metrics, dst[j].Err = models[j].solveSymmetric(ws, seed, opts); dst[j].Err != nil {
				dst[j].Err = &itemError{item: j, err: dst[j].Err}
			}
		}
		ws.endGroup()
	}

	// Pass 3: every duplicate takes its first occurrence's outcome.
	for i, j := range dupOf {
		if j < 0 {
			continue
		}
		dst[i] = dst[j]
		if e, ok := dst[j].Err.(*itemError); ok {
			dst[i].Err = &itemError{item: i, err: e.err}
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

// batchShape is the merged station signature of one item: how many distinct
// (visit ratio) values each role carries once zero-visit stations are
// dropped. The symmetric MMS topology makes most stations of a role
// identical — on the class-0 chain, stations of one role share service time
// and server count, so stations with equal visit ratios are exact copies of
// each other and hold identical queue lengths at every Bard–Schweitzer
// iterate. Each distinct value becomes ONE kernel row whose physical
// weight (mva.Kernel.SetRow) is the copy count, shrinking the kernel's
// sweeps by the dedup factor (a 4×4 torus under the default distance-decay
// pattern: 49 physical stations → 22 rows). SolveBatch groups its items by
// this signature.
type batchShape struct {
	mem, out, in int
}

// rows returns the kernel station count of the merged layout (processor +
// distinct rows per role).
func (sh batchShape) rows() int { return 1 + sh.mem + sh.out + sh.in }

// distinctVisits compacts vis into (value, physical count) pairs, dropping
// zero visits, first-seen order. vals/counts are reused scratch.
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

// batchShapeOf reads a model's merged station signature off the row lists
// cached at Build.
func batchShapeOf(m *Model) batchShape {
	return batchShape{
		mem: len(m.mergeVals[0]),
		out: len(m.mergeVals[1]),
		in:  len(m.mergeVals[2]),
	}
}

// solveSymmetric solves one item on the kernel from seed (nil: a cold
// start) and, when it converges, records its iterate as the group's
// continuation seed. The layout is class 0's view of the symmetric network
// (0 = processor, then memory, outbound, inbound role groups), with each
// role collapsed to its distinct visit values as weighted representative
// rows. Every class is a torus translation of class 0, so the total queue
// length a class-0 customer sees at a station of one role is the role total
// Σ_d n_0[station_d] — the kernel's group total — and the Bard–Schweitzer
// fixed point can be iterated on class 0 alone.
func (m *Model) solveSymmetric(ws *Workspace, seed []float64, opts SolveOptions) (Metrics, error) {
	k := &ws.kernel
	cfg := &m.cfg
	k.Reset(batchShapeOf(m).rows(), 4)
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
	lambda, iters, err := k.Solve(float64(cfg.Threads), seed, opts.Tolerance, opts.MaxIterations)
	if err != nil {
		return Metrics{}, err
	}
	ws.next = append(ws.next[:0], k.Iterate()...)
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

func resizeBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
