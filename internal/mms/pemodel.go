package mms

import (
	"math"

	"lattol/internal/access"
	"lattol/internal/queueing"
	"lattol/internal/topology"
	"lattol/internal/validate"
)

// PEModel is an MMS whose processors are not interchangeable: each PE's
// class has its own visit ratios or its own population. It is the paper's
// closed multiclass network (one class per processor) without the SPMD
// symmetry Model relies on, so it is solved on all P classes and reported
// per PE. Three constructors break the symmetry one way each:
// BuildHeterogeneous (per-PE thread counts), BuildHotSpot (remote traffic
// concentrated on one module) and BuildOnTopology (a network that is not
// vertex-transitive, such as a mesh).
type PEModel struct {
	cfg Config
	net *queueing.Network // read-only once built; Network() hands out copies
}

// PEMetrics reports per-PE processor utilization and machine aggregates.
// The slices have one entry per PE, also when no PE has threads.
type PEMetrics struct {
	// PerClassUp[i] is U_p of PE i. Under hot-spot traffic the hot node
	// itself usually fares *worst*: its local memory is the saturated
	// module, so its own threads queue behind the whole machine's hot
	// traffic. On a mesh, corners and centers differ.
	PerClassUp []float64
	// MinUp, MaxUp, MeanUp aggregate PerClassUp.
	MinUp, MaxUp, MeanUp float64
	// TotalThroughput is Σ_i λ_i·(R+C) — the machine-wide rate of useful
	// cycles (equals P·U_p when balanced).
	TotalThroughput float64
	// MeanSObs and MeanLObs average the observed network latency (per
	// remote access per direction) and memory latency over the PEs that
	// run threads.
	MeanSObs, MeanLObs float64
	// MeanDistance is d_avg: the mean hop count of a remote access,
	// averaged over the PEs that make remote accesses.
	MeanDistance float64
	// MemUtilization[j] is the per-port utilization of memory module j.
	MemUtilization []float64
	// Iterations is the AMVA iteration count (0 for ExactMVA).
	Iterations int
}

// BuildHeterogeneous builds an MMS whose PE i runs threads[i] threads. The
// Threads field of cfg is ignored; len(threads) must equal K².
func BuildHeterogeneous(cfg Config, threads []int) (*PEModel, error) {
	probe := cfg
	probe.Threads = 1 // validate the remaining fields
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	torus, pat, err := torusPattern(cfg)
	if err != nil {
		return nil, err
	}
	if len(threads) != torus.Nodes() {
		return nil, validate.Fieldf("mms.BuildHeterogeneous", "threads", "has %d counts, want one per PE (%d)", len(threads), torus.Nodes())
	}
	for i, nt := range threads {
		if nt < 0 {
			return nil, validate.Fieldf("mms.BuildHeterogeneous", "threads", "[%d] = %d, want >= 0", i, nt)
		}
	}
	return newPEModel(cfg, torus, threads, func(home topology.Node) (float64, func(topology.Node) float64) {
		return cfg.PRemote, patternRow(pat, home)
	}), nil
}

// BuildHotSpot builds a hot-spot variant of cfg: each class sends fraction
// frac of its remote accesses to memory module hot (its own pattern covers
// the rest). For the hot node's own class the redirected fraction stays
// local. frac must lie in [0, 1]. It quantifies how concentrated sharing (a
// lock, a reduction variable, a master data structure) erodes latency
// tolerance — the contention concern behind the paper's Section 7
// discussion of memory response.
func BuildHotSpot(cfg Config, hot topology.Node, frac float64) (*PEModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return nil, validate.Fieldf("mms.BuildHotSpot", "frac", "= %v, want in [0,1]", frac)
	}
	torus, pat, err := torusPattern(cfg)
	if err != nil {
		return nil, err
	}
	if int(hot) < 0 || int(hot) >= torus.Nodes() {
		return nil, validate.Fieldf("mms.BuildHotSpot", "hot", "= %d, want in [0,%d)", hot, torus.Nodes())
	}
	return newPEModel(cfg, torus, nil, func(home topology.Node) (float64, func(topology.Node) float64) {
		switch {
		case pat == nil:
			return cfg.PRemote, nil
		case home == hot:
			// The redirected fraction is local for the hot node's own
			// threads: shrink its remote probability instead.
			return cfg.PRemote * (1 - frac), patternRow(pat, home)
		}
		return cfg.PRemote, func(dst topology.Node) float64 {
			v := (1 - frac) * pat.Prob(home, dst)
			if dst == hot {
				v += frac
			}
			return v
		}
	}), nil
}

// BuildOnTopology elaborates cfg on the given network under the per-origin
// geometric pattern with cfg.Psw. cfg.K is ignored (the network defines the
// size), and the uniform pattern is not offered on general networks.
// PRemote > 0 requires >= 2 nodes.
func BuildOnTopology(cfg Config, net topology.Network) (*PEModel, error) {
	if cfg.Uniform {
		return nil, validate.Fieldf("mms.Config", "Uniform", "= true, want false: BuildOnTopology models the geometric pattern only")
	}
	probe := cfg
	probe.K = 1
	probe.PRemote = 0 // K/pattern are validated separately below
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	if cfg.PRemote < 0 || cfg.PRemote > 1 || math.IsNaN(cfg.PRemote) {
		return nil, validate.Fieldf("mms.Config", "PRemote", "= %v, want in [0,1]", cfg.PRemote)
	}
	if net.Nodes() < 2 && cfg.PRemote > 0 {
		return nil, validate.Fieldf("mms.Config", "PRemote", "= %v, want 0 on a single-node network", cfg.PRemote)
	}
	var pat access.Pattern
	if cfg.PRemote > 0 {
		geo, err := access.NewGeometricOn(net, cfg.Psw, cfg.GeometricMode)
		if err != nil {
			return nil, err
		}
		pat = geo
	}
	return newPEModel(cfg, net, nil, func(home topology.Node) (float64, func(topology.Node) float64) {
		return cfg.PRemote, patternRow(pat, home)
	}), nil
}

// patternRow returns the remote-target distribution of PE home under pat
// (nil when pat is).
func patternRow(pat access.Pattern, home topology.Node) func(topology.Node) float64 {
	if pat == nil {
		return nil
	}
	return func(dst topology.Node) float64 { return pat.Prob(home, dst) }
}

// newPEModel assembles the network of cfg's machine on t: the class of PE c
// runs threads[c] threads (cfg.Threads when threads is nil) and makes remote
// accesses with probability p to targets drawn from q, where p, q =
// route(c).
func newPEModel(cfg Config, t topology.Network, threads []int, route func(home topology.Node) (float64, func(topology.Node) float64)) *PEModel {
	return &PEModel{cfg: cfg, net: newNetwork(cfg, t.Nodes(), func(c int) (int, []float64) {
		pop := cfg.Threads
		if threads != nil {
			pop = threads[c]
		}
		p, q := route(topology.Node(c))
		return pop, visitsFrom(t, topology.Node(c), p, q)
	})}
}

// visitsFrom computes the per-cycle visit ratios of the class anchored at
// `home` over the 4P stations (see stationIndex): one processor visit, the
// local memory with probability 1-p and the remote module dst with
// probability p·q(dst); requests enter the network through outbound[home],
// traverse the inbound switch of every node on the dimension-order route
// (destination included), and responses return through outbound[dst] and
// the reverse route. q must sum to 1 over dst ≠ home (it is ignored when
// p == 0). Every route is walked into one reused buffer. It fills every
// PEModel class; a torus Model runs fillVisits, which adds in the same
// order.
func visitsFrom(t topology.Network, home topology.Node, p float64, q func(topology.Node) float64) []float64 {
	n := t.Nodes()
	v := make([]float64, 4*n)
	mem, out, in := v[n:2*n:2*n], v[2*n:3*n:3*n], v[3*n:]
	v[stationIndex(n, Processor, home)] = 1
	mem[home] = 1 - p
	if p == 0 || q == nil {
		return v
	}
	out[home] = p
	var buf [32]topology.Node // longer routes grow it once
	route := buf[:0]
	for j := 0; j < n; j++ {
		dst := topology.Node(j)
		if dst == home {
			continue
		}
		em := p * q(dst)
		mem[j] = em
		out[j] += em
		if em == 0 {
			continue
		}
		route = t.AppendRoute(route[:0], home, dst)
		for _, hop := range route {
			in[hop] += em
		}
		route = t.AppendRoute(route[:0], dst, home)
		for _, hop := range route {
			in[hop] += em
		}
	}
	return v
}

// Network returns a fresh copy of the model's multiclass queueing network,
// which the caller may modify.
func (m *PEModel) Network() *queueing.Network { return m.net.Clone() }

// Solve solves the network on all P classes and reads out the per-PE
// measures. ExactMVA runs the exact recursion; SymmetricAMVA and FullAMVA
// both run the full multiclass AMVA, with opts.Accel and opts.WarmStart, as
// Model's FullAMVA does.
func (m *PEModel) Solve(opts SolveOptions) (PEMetrics, error) {
	if err := opts.Validate(); err != nil {
		return PEMetrics{}, err
	}
	opts = opts.withDefaults()
	net := m.net
	n := len(net.Classes)
	out := PEMetrics{
		PerClassUp:     make([]float64, n),
		MemUtilization: make([]float64, n),
		MeanDistance:   m.meanDistance(),
	}
	if net.TotalPopulation() == 0 {
		return out, nil
	}
	ws := opts.Workspace
	if ws == nil {
		ws = getWorkspace()
		defer putWorkspace(ws)
	}
	// res aliases the workspace; it is consumed before the workspace is
	// released.
	res, err := solveNetwork(net, opts, ws)
	if err != nil {
		return PEMetrics{}, err
	}
	out.Iterations = res.Iterations
	out.MinUp, out.MaxUp = math.Inf(1), math.Inf(-1)
	r := m.cfg.processorService()
	var active int
	var sObsSum, lObsSum float64
	for c, cl := range net.Classes {
		up := res.Throughput[c] * r
		out.PerClassUp[c] = up
		out.TotalThroughput += up
		out.MinUp = math.Min(out.MinUp, up)
		out.MaxUp = math.Max(out.MaxUp, up)
		if cl.Population == 0 {
			continue // a PE without threads observes no latency
		}
		active++
		v, w := cl.Visits, res.Wait[c]
		var lObs, sObs float64
		for j := 0; j < n; j++ {
			node := topology.Node(j)
			mj, oj, ij := stationIndex(n, Memory, node), stationIndex(n, Outbound, node), stationIndex(n, Inbound, node)
			lObs += v[mj] * w[mj]
			sObs += v[oj]*w[oj] + v[ij]*w[ij]
		}
		lObsSum += lObs
		if p := v[stationIndex(n, Outbound, topology.Node(c))]; p > 0 {
			sObsSum += sObs / (2 * p)
		}
	}
	out.MeanUp = out.TotalThroughput / float64(n)
	out.MeanLObs = lObsSum / float64(active)
	out.MeanSObs = sObsSum / float64(active)
	ports := float64(m.cfg.memoryPorts())
	for j := range out.MemUtilization {
		out.MemUtilization[j] = res.TotalUtilization(net, stationIndex(n, Memory, topology.Node(j))) / ports
	}
	return out, nil
}

// meanDistance returns d_avg from the visit ratios: a remote access of PE
// c's class (probability p = its outbound[c] visits) crosses as many inbound
// switches as its route has hops, each way, so d_c = Σ_j inbound[j] / 2p.
func (m *PEModel) meanDistance() float64 {
	n := len(m.net.Classes)
	var sum float64
	var remote int
	for c, cl := range m.net.Classes {
		p := cl.Visits[stationIndex(n, Outbound, topology.Node(c))]
		if p == 0 {
			continue
		}
		var hops float64
		for _, e := range cl.Visits[stationIndex(n, Inbound, 0):] {
			hops += e
		}
		sum += hops / (2 * p)
		remote++
	}
	if remote == 0 {
		return 0
	}
	return sum / float64(remote)
}

// Imbalance distributes `total` threads over P PEs with the given spread:
// half the PEs (round-robin by parity of a diagonal index) get extra threads
// and the other half lose the same number, preserving the total. spread = 0
// is the balanced SPMD workload. It is a convenience generator for imbalance
// studies.
func Imbalance(t *topology.Torus, total, spread int) ([]int, error) {
	p := t.Nodes()
	if total < 0 || total%p != 0 {
		return nil, validate.Fieldf("mms.Imbalance", "total", "= %d, want a non-negative multiple of %d PEs", total, p)
	}
	per := total / p
	if spread < 0 || spread > per {
		return nil, validate.Fieldf("mms.Imbalance", "spread", "= %d, want in [0,%d]", spread, per)
	}
	if p%2 != 0 && spread != 0 {
		return nil, validate.Fieldf("mms.Imbalance", "spread", "= %d, want 0 on an odd number of PEs (%d)", spread, p)
	}
	out := make([]int, p)
	for i := range out {
		x, y := t.Coord(topology.Node(i))
		if (x+y)%2 == 0 {
			out[i] = per + spread
		} else {
			out[i] = per - spread
		}
	}
	return out, nil
}
