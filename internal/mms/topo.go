package mms

import (
	"fmt"
	"math"

	"lattol/internal/access"
	"lattol/internal/mva"
	"lattol/internal/queueing"
	"lattol/internal/topology"
	"lattol/internal/validate"
)

// TopoModel is an MMS on an arbitrary topology.Network (e.g. a mesh without
// wraparound links). General networks are not vertex-transitive, so every
// class gets its own visit-ratio vector and the system is solved with the
// full multiclass AMVA; metrics are reported per PE and aggregated.
type TopoModel struct {
	cfg     Config
	net     topology.Network
	pattern access.Pattern

	// per-class visit arrays indexed [class][node]
	mem [][]float64
	out [][]float64
	in  [][]float64
}

// TopoMetrics aggregates per-PE measures for a general-topology system.
type TopoMetrics struct {
	// PerClassUp[i] is U_p of PE i (corners vs centers differ on a mesh).
	PerClassUp []float64
	// MinUp, MaxUp, MeanUp aggregate PerClassUp.
	MinUp, MaxUp, MeanUp float64
	// MeanSObs and MeanLObs average the observed latencies over PEs.
	MeanSObs float64
	MeanLObs float64
	// MeanDistance is d_avg under the resolved pattern.
	MeanDistance float64
	// Iterations is the AMVA iteration count.
	Iterations int
}

// BuildOnTopology elaborates cfg on the given network under the per-origin
// geometric pattern with cfg.Psw. cfg.K is ignored (the network defines the
// size), and the uniform pattern is not offered on general networks.
// PRemote > 0 requires >= 2 nodes.
func BuildOnTopology(cfg Config, net topology.Network) (*TopoModel, error) {
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
		return nil, fmt.Errorf("mms: PRemote = %v, want in [0,1]", cfg.PRemote)
	}
	if net.Nodes() < 2 && cfg.PRemote > 0 {
		return nil, fmt.Errorf("mms: single-node network cannot have PRemote > 0")
	}
	m := &TopoModel{cfg: cfg, net: net}
	if cfg.PRemote > 0 {
		pat, err := access.NewGeometricOn(net, cfg.Psw, cfg.GeometricMode)
		if err != nil {
			return nil, err
		}
		m.pattern = pat
	}
	for c := 0; c < net.Nodes(); c++ {
		home := topology.Node(c)
		var q func(topology.Node) float64
		if m.pattern != nil {
			q = func(dst topology.Node) float64 { return m.pattern.Prob(home, dst) }
		}
		mem, out, in := visitsFrom(net, home, cfg.PRemote, q)
		m.mem = append(m.mem, mem)
		m.out = append(m.out, out)
		m.in = append(m.in, in)
	}
	return m, nil
}

// Topology returns the model's network.
func (m *TopoModel) Topology() topology.Network { return m.net }

// Pattern returns the resolved access pattern (nil when PRemote == 0).
func (m *TopoModel) Pattern() access.Pattern { return m.pattern }

func (m *TopoModel) stationIndex(role StationRole, node topology.Node) int {
	return int(role)*m.net.Nodes() + int(node)
}

// Network builds the full multiclass queueing network.
func (m *TopoModel) Network() *queueing.Network {
	nNodes := m.net.Nodes()
	layout := &Model{cfg: m.cfg} // for serviceTime/serverCount only
	net := &queueing.Network{
		Stations: make([]queueing.Station, 4*nNodes),
		Classes:  make([]queueing.Class, nNodes),
	}
	for _, role := range []StationRole{Processor, Memory, Outbound, Inbound} {
		for j := 0; j < nNodes; j++ {
			net.Stations[m.stationIndex(role, topology.Node(j))] = queueing.Station{
				Name:        fmt.Sprintf("%s[%d]", role, j),
				Kind:        queueing.FCFS,
				ServiceTime: layout.serviceTime(role),
				Servers:     layout.serverCount(role),
			}
		}
	}
	for c := 0; c < nNodes; c++ {
		v := make([]float64, 4*nNodes)
		v[m.stationIndex(Processor, topology.Node(c))] = 1
		for j := 0; j < nNodes; j++ {
			v[m.stationIndex(Memory, topology.Node(j))] = m.mem[c][j]
			v[m.stationIndex(Outbound, topology.Node(j))] = m.out[c][j]
			v[m.stationIndex(Inbound, topology.Node(j))] = m.in[c][j]
		}
		net.Classes[c] = queueing.Class{
			Name:       fmt.Sprintf("pe%d", c),
			Population: m.cfg.Threads,
			Visits:     v,
		}
	}
	return net
}

// Solve runs the full multiclass AMVA and aggregates the paper's measures.
func (m *TopoModel) Solve(opts SolveOptions) (TopoMetrics, error) {
	opts = opts.withDefaults()
	nNodes := m.net.Nodes()
	out := TopoMetrics{PerClassUp: make([]float64, nNodes)}
	if m.pattern != nil {
		out.MeanDistance = m.pattern.MeanDistance()
	}
	if m.cfg.Threads == 0 {
		return out, nil
	}
	net := m.Network()
	ws := opts.Workspace
	if ws == nil {
		ws = getWorkspace()
		defer putWorkspace(ws)
	}
	// res aliases the workspace; it is consumed before the workspace is
	// released.
	res, err := ws.mvaWS.ApproxMultiClass(net, mva.AMVAOptions{
		Tolerance:     opts.Tolerance,
		MaxIterations: opts.MaxIterations,
	})
	if err != nil {
		return TopoMetrics{}, err
	}
	out.Iterations = res.Iterations
	out.MinUp = math.Inf(1)
	out.MaxUp = math.Inf(-1)
	r := m.cfg.processorService()
	var upSum, sObsSum, lObsSum float64
	for c := 0; c < nNodes; c++ {
		up := res.Throughput[c] * r
		out.PerClassUp[c] = up
		upSum += up
		out.MinUp = math.Min(out.MinUp, up)
		out.MaxUp = math.Max(out.MaxUp, up)
		var lObs, sObs float64
		for j := 0; j < nNodes; j++ {
			lObs += m.mem[c][j] * res.Wait[c][m.stationIndex(Memory, topology.Node(j))]
			sObs += m.out[c][j]*res.Wait[c][m.stationIndex(Outbound, topology.Node(j))] +
				m.in[c][j]*res.Wait[c][m.stationIndex(Inbound, topology.Node(j))]
		}
		lObsSum += lObs
		if m.cfg.PRemote > 0 {
			sObsSum += sObs / (2 * m.cfg.PRemote)
		}
	}
	out.MeanUp = upSum / float64(nNodes)
	out.MeanLObs = lObsSum / float64(nNodes)
	out.MeanSObs = sObsSum / float64(nNodes)
	return out, nil
}
