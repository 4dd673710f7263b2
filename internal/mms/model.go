package mms

import (
	"fmt"
	"sync"

	"lattol/internal/access"
	"lattol/internal/queueing"
	"lattol/internal/topology"
)

// StationRole identifies the subsystem a station models.
type StationRole int

const (
	// Processor is the multithreaded processor of a PE.
	Processor StationRole = iota
	// Memory is the distributed-shared-memory module of a PE.
	Memory
	// Outbound is the switch through which a PE injects messages into the IN
	// and through which memory responses leave their home node.
	Outbound
	// Inbound is the switch that accepts messages from the IN at each hop and
	// delivers them at the destination.
	Inbound
)

func (r StationRole) String() string {
	switch r {
	case Processor:
		return "processor"
	case Memory:
		return "memory"
	case Outbound:
		return "outbound"
	case Inbound:
		return "inbound"
	default:
		return fmt.Sprintf("StationRole(%d)", int(r))
	}
}

// Model is a fully elaborated MMS instance: topology, access pattern and the
// per-class visit ratios of the closed queueing network of the paper's
// Figure 2.
type Model struct {
	cfg     Config
	torus   *topology.Torus
	pattern access.Pattern // nil when PRemote == 0 or K == 1

	// Class-0 visit ratios per PE index; other classes are torus
	// translations of these (the workload is SPMD-symmetric).
	visitMem []float64 // em[0][j]
	visitOut []float64 // eo[0][j]
	visitIn  []float64 // ei[0][j]

	// Merged kernel rows, one (visit value, physical count) list per role
	// (memory, outbound, inbound) with zero-visit stations dropped —
	// computed once at elaboration so every symmetric solve loads plain
	// cached slices (see distinctVisits, solveSymmetric).
	mergeVals   [3][]float64
	mergeCounts [3][]float64

	// netOnce/net cache the network for the internal read-only solver path;
	// see network().
	netOnce sync.Once
	net     *queueing.Network
}

// Build elaborates a configuration into a model.
func Build(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	torus, pat, err := torusPattern(cfg)
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, torus: torus, pattern: pat}
	// The table is used once, so its pattern row lives in the memory visit
	// vector, which the fill then overwrites in place: one allocation fewer
	// than a table of its own.
	vis := make([]float64, 3*torus.Nodes())
	tab := newElabTable(torus, pat, vis[:torus.Nodes()])
	nnz := m.setVisits(&tab, vis)
	m.setRows(nnz, make([]float64, rowFloats(nnz)))
	return m, nil
}

// torusPattern resolves cfg's torus and access pattern (nil pattern when
// remote accesses are impossible).
func torusPattern(cfg Config) (*topology.Torus, access.Pattern, error) {
	torus, err := topology.NewTorus(cfg.K)
	if err != nil {
		return nil, nil, err
	}
	pat, err := cfg.pattern(torus)
	return torus, pat, err
}

// Config returns the configuration the model was built from.
func (m *Model) Config() Config { return m.cfg }

// rebaseInto assigns dst in full: cfg over this model's topology, pattern,
// visits and rows. It is valid when cfg is valid and has this model's
// geometry (K, PRemote, Uniform, Psw and GeometricMode equal), which is how
// SolveBatch elaborates each geometry of a batch once; the rebased model
// solves bit for bit like a built one. The shared slices are read-only in
// both models.
func (m *Model) rebaseInto(dst *Model, cfg Config) {
	*dst = Model{cfg: cfg, torus: m.torus, pattern: m.pattern,
		visitMem: m.visitMem, visitOut: m.visitOut, visitIn: m.visitIn,
		mergeVals: m.mergeVals, mergeCounts: m.mergeCounts}
}

// Torus returns the model's topology.
func (m *Model) Torus() *topology.Torus { return m.torus }

// Pattern returns the resolved remote access pattern (nil when remote
// accesses are impossible).
func (m *Model) Pattern() access.Pattern { return m.pattern }

// MeanDistance returns d_avg under the resolved pattern (0 when there are no
// remote accesses).
func (m *Model) MeanDistance() float64 {
	if m.pattern == nil {
		return 0
	}
	return m.pattern.MeanDistance()
}

// UnloadedNetworkLatency returns the one-way network latency without
// queueing: (d_avg + 1)·S — d_avg inbound hops plus the outbound injection.
func (m *Model) UnloadedNetworkLatency() float64 {
	if m.pattern == nil {
		return 0
	}
	return (m.MeanDistance() + 1) * m.cfg.SwitchTime
}

// stationIndex numbers the 4P stations of a P-node machine grouped by role
// in the order Processor, Memory, Outbound, Inbound:
// station(role, node) = int(role)*P + node.
func stationIndex(p int, role StationRole, node topology.Node) int {
	return int(role)*p + int(node)
}

// StationCount returns the total number of stations (4 per PE).
func (m *Model) StationCount() int { return 4 * m.torus.Nodes() }

// ClassVisits returns the visit-ratio vector of the class anchored at PE
// `home` over all 4P stations, by torus translation of the class-0 ratios.
func (m *Model) ClassVisits(home topology.Node) []float64 {
	n := m.torus.Nodes()
	v := make([]float64, m.StationCount())
	hx, hy := m.torus.Coord(home)
	v[stationIndex(n, Processor, home)] = 1
	for j := 0; j < n; j++ {
		jx, jy := m.torus.Coord(topology.Node(j))
		dst := m.torus.NodeAt(jx+hx, jy+hy)
		v[stationIndex(n, Memory, dst)] = m.visitMem[j]
		v[stationIndex(n, Outbound, dst)] = m.visitOut[j]
		v[stationIndex(n, Inbound, dst)] = m.visitIn[j]
	}
	return v
}

// Network builds the full multiclass closed queueing network: one class per
// PE with population n_t, 4P FCFS stations.
func (m *Model) Network() *queueing.Network {
	return newNetwork(m.cfg, m.torus.Nodes(), func(c int) (int, []float64) {
		return m.cfg.Threads, m.ClassVisits(topology.Node(c))
	})
}

// newNetwork lays out the closed network of cfg's machine on p nodes: 4P
// FCFS stations numbered by stationIndex, and one class per PE, named
// "pe<c>", whose population and visit vector over the 4P stations class(c)
// returns. Model and PEModel assemble their networks with it.
func newNetwork(cfg Config, p int, class func(c int) (int, []float64)) *queueing.Network {
	net := &queueing.Network{
		Stations: make([]queueing.Station, 4*p),
		Classes:  make([]queueing.Class, p),
	}
	for _, role := range []StationRole{Processor, Memory, Outbound, Inbound} {
		for j := 0; j < p; j++ {
			net.Stations[stationIndex(p, role, topology.Node(j))] = queueing.Station{
				Name:        fmt.Sprintf("%s[%d]", role, j),
				Kind:        queueing.FCFS,
				ServiceTime: cfg.serviceTime(role),
				Servers:     cfg.serverCount(role),
			}
		}
	}
	for c := range net.Classes {
		pop, visits := class(c)
		net.Classes[c] = queueing.Class{Name: fmt.Sprintf("pe%d", c), Population: pop, Visits: visits}
	}
	return net
}

// network returns a lazily built network shared by every solve of this
// model, so repeated full/exact solves (sweeps, the conformance harness)
// do not rebuild stations and visit vectors per call. The cached network is
// strictly read-only; Network() builds a fresh one a caller may modify.
func (m *Model) network() *queueing.Network {
	m.netOnce.Do(func() { m.net = m.Network() })
	return m.net
}
