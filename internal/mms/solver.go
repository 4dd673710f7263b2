package mms

import (
	"fmt"
	"math"

	"lattol/internal/mva"
	"lattol/internal/queueing"
	"lattol/internal/topology"
	"lattol/internal/validate"
)

// Solver selects how the queueing network is solved.
type Solver int

const (
	// SymmetricAMVA exploits the SPMD symmetry of the workload: every class
	// is a torus translation of class 0, so the Bard–Schweitzer fixed point
	// can be iterated on class 0 alone with total queue lengths obtained by
	// symmetry. It computes the same fixed point as FullAMVA at 1/P the work
	// per iteration, and is the default.
	SymmetricAMVA Solver = iota
	// FullAMVA runs the general multiclass Bard–Schweitzer iteration on all
	// P classes and 4P stations (the paper's Figure 3, verbatim).
	FullAMVA
	// ExactMVA runs the exact multiclass recursion; only feasible for very
	// small systems (it is exponential in P·n_t) and used to gauge AMVA
	// accuracy.
	ExactMVA
)

func (s Solver) String() string {
	switch s {
	case SymmetricAMVA:
		return "symmetric-amva"
	case FullAMVA:
		return "full-amva"
	case ExactMVA:
		return "exact-mva"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ParseSolver maps the CLI/wire name of a solver to its Solver value. The
// short names ("symmetric", "full", "exact") and the String() renderings
// ("symmetric-amva", ...) are both accepted; the empty string selects the
// default SymmetricAMVA. Unknown names yield a field-named error.
func ParseSolver(name string) (Solver, error) {
	switch name {
	case "", "symmetric", "symmetric-amva":
		return SymmetricAMVA, nil
	case "full", "full-amva":
		return FullAMVA, nil
	case "exact", "exact-mva":
		return ExactMVA, nil
	default:
		return 0, validate.Fieldf("mms.SolveOptions", "Solver", "= %q, want symmetric, full or exact", name)
	}
}

// SolveOptions tunes the solution procedure. The zero value is the default:
// symmetric AMVA with tolerance 1e-10.
type SolveOptions struct {
	Solver        Solver
	Tolerance     float64 // convergence threshold on queue lengths (default 1e-10)
	MaxIterations int     // default 200000
	// Accel has no effect: every AMVA solve, symmetric or full, takes the
	// same guarded Irons–Tuck step.
	//
	// Deprecated: ignored. It remains only so that the benchmark module,
	// which sets it to mva.AccelAnderson, still compiles; it goes with that
	// setting.
	Accel int
	// WarmStart seeds the AMVA iterate from the workspace's previous
	// converged solution when the network shape matches (ignored by
	// ExactMVA). For SymmetricAMVA it is the batch kernel's continuation
	// (mva.BatchOptions.WarmStart), shared by Model.Solve and SolveBatch on
	// one workspace. Effective only with an explicit Workspace reused across
	// solves — pool-borrowed workspaces give no locality guarantee. Without
	// it a solve's result, Iterations included, does not depend on what the
	// workspace solved before.
	WarmStart bool
	// Workspace, when non-nil, supplies reusable solver scratch buffers;
	// sweeps hand each worker its own so repeated solves allocate nothing.
	// When nil, a workspace is borrowed from a process-wide pool for the
	// duration of the call. See the Workspace reuse contract.
	Workspace *Workspace
}

// Validate reports the first invalid option as a field-named error
// (*validate.FieldError). Zero values are valid: they select the defaults.
func (o SolveOptions) Validate() error {
	switch o.Solver {
	case SymmetricAMVA, FullAMVA, ExactMVA:
	default:
		return validate.Fieldf("mms.SolveOptions", "Solver", "= %d, want SymmetricAMVA, FullAMVA or ExactMVA", int(o.Solver))
	}
	if o.Tolerance < 0 || math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0) {
		return validate.Fieldf("mms.SolveOptions", "Tolerance", "= %v, want finite >= 0", o.Tolerance)
	}
	return nil
}

// DefaultMaxIterations is the iteration budget selected by a zero
// SolveOptions.MaxIterations. It is deliberately above mva.DefaultMaxIterations:
// the service layer solves through this package, so observability bucketing
// must cover this cap.
const DefaultMaxIterations = 200000

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-10
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = DefaultMaxIterations
	}
	return o
}

// Metrics holds the paper's performance measures for one (any) processor —
// the workload is SPMD-symmetric so every PE reports the same values.
type Metrics struct {
	// Up is the processor utilization U_p = λ·R in [0,1] (paper Eq. 3).
	Up float64
	// LambdaProc is λ_i: the rate at which the processor issues memory
	// accesses.
	LambdaProc float64
	// LambdaNet is λ_net = λ_i·p_remote: the message rate to the network
	// (paper Eq. 2).
	LambdaNet float64
	// SObs is the observed one-way network latency per remote access,
	// including queueing (paper Eq. 1, normalized per remote access per
	// direction). Zero when there are no remote accesses.
	SObs float64
	// LObs is the observed memory latency per access, including queueing.
	LObs float64
	// CycleTime is the mean time for a thread to complete one
	// compute-access-resume cycle.
	CycleTime float64
	// MemUtilization, OutUtilization, InUtilization are the utilizations of a
	// memory module, an outbound switch and an inbound switch.
	MemUtilization float64
	OutUtilization float64
	InUtilization  float64
	// Iterations is the number of solver iterations (0 for exact MVA).
	Iterations int
}

// Solve builds the model for cfg and solves it with default options.
func Solve(cfg Config) (Metrics, error) {
	model, err := Build(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return model.Solve(SolveOptions{})
}

// Solve computes the steady-state performance measures.
func (m *Model) Solve(opts SolveOptions) (Metrics, error) {
	if err := opts.Validate(); err != nil {
		return Metrics{}, err
	}
	opts = opts.withDefaults()
	if m.cfg.Threads == 0 {
		return Metrics{}, nil
	}
	ws := opts.Workspace
	if ws == nil {
		ws = getWorkspace()
		defer putWorkspace(ws)
	}
	if opts.Solver != SymmetricAMVA {
		return m.solveFull(opts, ws)
	}
	// One lane of the batch kernel. A lane error is reported unwrapped: this
	// solve has no batch item to name.
	var out [1]BatchResult
	solveSymmetricBatch(ws, []*Model{m}, []int{0}, batchShapeOf(m), opts, out[:])
	if e, ok := out[0].Err.(*laneError); ok {
		return Metrics{}, e.err
	}
	return out[0].Metrics, nil
}

// solveFull solves the complete multiclass network and reads class 0's
// measures off the result.
func (m *Model) solveFull(opts SolveOptions, ws *Workspace) (Metrics, error) {
	res, err := solveNetwork(m.network(), opts, ws)
	if err != nil {
		return Metrics{}, err
	}
	nNodes := m.torus.Nodes()
	var lObs, sObsSum float64
	for j := 0; j < nNodes; j++ {
		node := topology.Node(j)
		lObs += m.visitMem[j] * res.Wait[0][stationIndex(nNodes, Memory, node)]
		sObsSum += m.visitOut[j]*res.Wait[0][stationIndex(nNodes, Outbound, node)] +
			m.visitIn[j]*res.Wait[0][stationIndex(nNodes, Inbound, node)]
	}
	met := m.assembleMetrics(res.Throughput[0], lObs, sObsSum)
	met.Iterations = res.Iterations
	return met, nil
}

// solveNetwork runs the multiclass solve opts selects on net: the exact
// recursion for ExactMVA, the full Bard–Schweitzer AMVA otherwise. The
// result aliases ws.
func solveNetwork(net *queueing.Network, opts SolveOptions, ws *Workspace) (*mva.Result, error) {
	if opts.Solver == ExactMVA {
		return ws.mvaWS.ExactMultiClass(net, 0)
	}
	return ws.mvaWS.ApproxMultiClass(net, mva.AMVAOptions{
		Tolerance:     opts.Tolerance,
		MaxIterations: opts.MaxIterations,
		WarmStart:     opts.WarmStart,
	})
}

// assembleMetrics builds the paper's measures from class-0 throughput λ and
// the visit-weighted latency sums Σ e_m·w_m (memory) and Σ e·w (switches).
func (m *Model) assembleMetrics(lambda, lObs, sObsSum float64) Metrics {
	cfg := m.cfg
	met := Metrics{
		LambdaProc: lambda,
		LambdaNet:  lambda * cfg.PRemote,
		Up:         lambda * cfg.processorService(),
	}
	met.LObs = lObs
	if cfg.PRemote > 0 {
		met.SObs = sObsSum / (2 * cfg.PRemote)
	}
	if lambda > 0 {
		met.CycleTime = float64(cfg.Threads) / lambda
	}
	// Subsystem utilizations follow from visit totals and symmetry: each
	// memory serves one full access stream (Σ_d em = 1), each outbound switch
	// 2·p_remote visits per cycle, each inbound switch 2·p_remote·d_avg;
	// multi-port stations divide the load across their servers.
	met.MemUtilization = lambda * cfg.MemoryTime / float64(cfg.memoryPorts())
	met.OutUtilization = lambda * cfg.SwitchTime * 2 * cfg.PRemote / float64(cfg.switchPorts())
	met.InUtilization = lambda * cfg.SwitchTime * 2 * cfg.PRemote * m.MeanDistance() / float64(cfg.switchPorts())
	return met
}
