package experiments

import (
	"context"
	"fmt"
	"strings"

	"lattol/internal/mms"
	"lattol/internal/report"
	"lattol/internal/simmms"
	"lattol/internal/sweep"
	"lattol/internal/topology"
)

// Extensions returns the studies that go beyond the paper's own exhibits:
// they implement the implications and footnotes its evaluation left
// unexplored (memory multiporting, local-priority memory scheduling, finite
// network buffering, pipelined switches, hot-spot traffic).
func Extensions() []Exhibit {
	return []Exhibit{
		{"ext-memports", "Extension: memory multiporting (paper §7 implication)", func() (string, error) {
			d, err := ExtensionMemoryPorts()
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-priority", "Extension: local-priority memory scheduling (EM-4 note)", func() (string, error) {
			d, err := ExtensionLocalPriority(ValidationOptions{})
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-buffers", "Extension: finite network buffering (paper footnote 3)", func() (string, error) {
			d, err := ExtensionFiniteBuffers(ValidationOptions{})
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-pipelined", "Extension: pipelined switches (paper switch-model assumption)", func() (string, error) {
			d, err := ExtensionPipelinedSwitches()
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-hotspot", "Extension: hot-spot traffic (asymmetric workload)", func() (string, error) {
			d, err := ExtensionHotSpot()
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-imbalance", "Extension: load imbalance (the even-load assumption)", func() (string, error) {
			d, err := ExtensionImbalance()
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-mesh", "Extension: mesh vs torus (what the wraparound links buy)", func() (string, error) {
			d, err := ExtensionMeshVsTorus()
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-barrier", "Extension: barrier synchronization (do-all supersteps)", func() (string, error) {
			d, err := ExtensionBarrier(ValidationOptions{})
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
		{"ext-deviation", "Deviation study: finite vs ideal network (the paper's tol > 1 claim)", func() (string, error) {
			d, err := DeviationStudy(ValidationOptions{})
			if err != nil {
				return "", err
			}
			return d.Render(), nil
		}},
	}
}

// MemoryPortsRow is one analytical operating point of the multiporting study.
type MemoryPortsRow struct {
	IdealNetwork bool
	Ports        int
	Up           float64
	LObs         float64
	MemUtil      float64
}

// MemoryPortsData holds the memory-multiporting study.
type MemoryPortsData struct{ Rows []MemoryPortsRow }

// ExtensionMemoryPorts evaluates the paper's Section 7 suggestion that a
// very fast network needs multiported/pipelined memory: it sweeps 1–4
// memory ports under the real network and under an ideal (zero-delay)
// network at the default operating point.
func ExtensionMemoryPorts() (*MemoryPortsData, error) {
	out := &MemoryPortsData{}
	for _, ideal := range []bool{false, true} {
		for _, portCount := range []int{1, 2, 4} {
			cfg := mms.DefaultConfig()
			cfg.MemoryPorts = portCount
			if ideal {
				cfg.SwitchTime = 0
			}
			met, err := mms.Solve(cfg)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, MemoryPortsRow{
				IdealNetwork: ideal, Ports: portCount,
				Up: met.Up, LObs: met.LObs, MemUtil: met.MemUtilization,
			})
		}
	}
	return out, nil
}

// Gain returns U_p(ports)/U_p(1 port) for the chosen network variant.
func (d *MemoryPortsData) Gain(ideal bool, portCount int) float64 {
	var base, v float64
	for _, r := range d.Rows {
		if r.IdealNetwork == ideal && r.Ports == 1 {
			base = r.Up
		}
		if r.IdealNetwork == ideal && r.Ports == portCount {
			v = r.Up
		}
	}
	if base == 0 {
		return 0
	}
	return v / base
}

// Render prints the multiporting table.
func (d *MemoryPortsData) Render() string {
	t := report.NewTable(
		"Memory multiporting (analytical, n_t=8, R=10, L=10, p_remote=0.2)",
		"network", "mem ports", "U_p", "L_obs", "mem util")
	for _, r := range d.Rows {
		network := "real (S=10)"
		if r.IdealNetwork {
			network = "ideal (S=0)"
		}
		t.Add(network, fmt.Sprintf("%d", r.Ports),
			report.Float(r.Up, 3), report.Float(r.LObs, 1), report.Float(r.MemUtil, 3))
	}
	return t.String() +
		fmt.Sprintf("U_p gain from 4 ports: ideal network %.1f%%, real network %.1f%% — a fast IN needs fast memory\n",
			(d.Gain(true, 4)-1)*100, (d.Gain(false, 4)-1)*100)
}

// PriorityRow compares FCFS with local-priority memory scheduling at one
// operating point (simulation).
type PriorityRow struct {
	IdealNetwork bool
	Priority     bool
	Up           float64
	LObsLocal    float64
	LObsRemote   float64
}

// PriorityData holds the local-priority study.
type PriorityData struct{ Rows []PriorityRow }

// ExtensionLocalPriority measures the EM-4 design choice the paper mentions:
// serving local memory requests ahead of remote ones. The effect is largest
// with a very fast network flooding remote memories.
func ExtensionLocalPriority(opts ValidationOptions) (*PriorityData, error) {
	opts = opts.withDefaults()
	type variant struct {
		ideal, prio bool
	}
	var pts []variant
	for _, ideal := range []bool{false, true} {
		for _, prio := range []bool{false, true} {
			pts = append(pts, variant{ideal, prio})
		}
	}
	// All four variants share one seed (common random numbers), so the
	// scheduling-discipline effect is a paired comparison.
	seed := sweep.DeriveSeed(opts.Seed, 17)
	rows, err := sweep.Run(context.Background(), pts, sweepOptions(), func(v variant) (PriorityRow, error) {
		cfg := mms.DefaultConfig()
		cfg.PRemote = 0.4 // enough remote traffic for scheduling to matter
		if v.ideal {
			cfg.SwitchTime = 0
		}
		r, err := simmms.Run(cfg, simmms.Options{
			Engine: simmms.Direct, Seed: seed,
			Warmup: opts.Warmup, Duration: opts.Duration,
			LocalMemPriority: v.prio,
		})
		if err != nil {
			return PriorityRow{}, err
		}
		return PriorityRow{
			IdealNetwork: v.ideal, Priority: v.prio,
			Up: r.Up, LObsLocal: r.LObsLocal, LObsRemote: r.LObsRemote,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &PriorityData{Rows: rows}, nil
}

// LObsLocalAt returns the local-access memory residence for a variant.
func (d *PriorityData) LObsLocalAt(ideal, priority bool) float64 {
	for _, r := range d.Rows {
		if r.IdealNetwork == ideal && r.Priority == priority {
			return r.LObsLocal
		}
	}
	return 0
}

// Render prints the priority table.
func (d *PriorityData) Render() string {
	t := report.NewTable(
		"Local-priority memory scheduling (Direct DES, p_remote=0.4, n_t=8)",
		"network", "memory discipline", "U_p", "L_obs local", "L_obs remote")
	for _, r := range d.Rows {
		network := "real (S=10)"
		if r.IdealNetwork {
			network = "ideal (S=0)"
		}
		disc := "FCFS"
		if r.Priority {
			disc = "local first"
		}
		t.Add(network, disc, report.Float(r.Up, 3),
			report.Float(r.LObsLocal, 1), report.Float(r.LObsRemote, 1))
	}
	return t.String() +
		"Local priority shields a PE's own accesses (local residence drops sharply) at the cost of\n" +
		"remote ones; in a symmetric SPMD workload the U_p effect is near-neutral because every\n" +
		"deprioritized remote access belongs to some other processor's thread. The EM-4 benefit\n" +
		"needs local work on the critical path, not symmetry.\n"
}

// BufferSeries is S_obs vs n_t for one injection-window size.
type BufferSeries struct {
	Window int // 0 = unbounded
	SObs   []float64
	Up     []float64
}

// BuffersData holds the finite-buffering study.
type BuffersData struct {
	Threads []int
	Series  []BufferSeries
}

// ExtensionFiniteBuffers implements the paper's footnote 3: with limited
// network buffering (modeled as an injection window per PE), S_obs
// saturates with n_t instead of growing without bound.
func ExtensionFiniteBuffers(opts ValidationOptions) (*BuffersData, error) {
	opts = opts.withDefaults()
	out := &BuffersData{Threads: sweep.IntRange(1, 10, 1)}
	windows := []int{0, 4, 2, 1}
	type point struct {
		window, nt int
	}
	var pts []point
	for _, window := range windows {
		for _, nt := range out.Threads {
			pts = append(pts, point{window, nt})
		}
	}
	results, err := sweep.Run(context.Background(), pts, sweepOptions(), func(p point) (simmms.Result, error) {
		cfg := mms.DefaultConfig()
		cfg.PRemote = 0.5
		cfg.Threads = p.nt
		return simmms.Run(cfg, simmms.Options{
			Engine: simmms.Direct, Seed: sweep.DeriveSeed(opts.Seed, int64(p.window), int64(p.nt)),
			Warmup: opts.Warmup, Duration: opts.Duration,
			NetworkWindow: p.window,
		})
	})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, window := range windows {
		series := BufferSeries{Window: window}
		for range out.Threads {
			series.SObs = append(series.SObs, results[i].SObs)
			series.Up = append(series.Up, results[i].Up)
			i++
		}
		out.Series = append(out.Series, series)
	}
	return out, nil
}

// Render prints S_obs vs n_t per window.
func (d *BuffersData) Render() string {
	xs := make([]float64, len(d.Threads))
	for i, nt := range d.Threads {
		xs[i] = float64(nt)
	}
	var series []report.Series
	for _, s := range d.Series {
		name := "window=inf"
		if s.Window > 0 {
			name = fmt.Sprintf("window=%d", s.Window)
		}
		series = append(series, report.Series{Name: name, X: xs, Y: s.SObs})
	}
	var b strings.Builder
	b.WriteString(report.RenderSeries(
		"S_obs vs n_t under injection-window flow control (Direct DES, p_remote=0.5)",
		"n_t", 1, series...))
	b.WriteString("With finite buffering S_obs saturates in n_t (paper footnote 3); unbounded buffering grows linearly.\n")
	return b.String()
}

// PipelinedRow is one operating point of the pipelined-switch study.
type PipelinedRow struct {
	PRemote float64
	Ports   int
	Up      float64
	SObs    float64
}

// PipelinedData holds the pipelined-switch study.
type PipelinedData struct{ Rows []PipelinedRow }

// ExtensionPipelinedSwitches revisits the paper's non-pipelined-switch
// assumption: modeling a pipelined switch as a multi-server station shows
// how much latency and utilization the assumption costs at light vs heavy
// network load.
func ExtensionPipelinedSwitches() (*PipelinedData, error) {
	out := &PipelinedData{}
	for _, p := range []float64{0.1, 0.3, 0.6} {
		for _, portCount := range []int{1, 2, 4} {
			cfg := mms.DefaultConfig()
			cfg.PRemote = p
			cfg.SwitchPorts = portCount
			met, err := mms.Solve(cfg)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, PipelinedRow{PRemote: p, Ports: portCount, Up: met.Up, SObs: met.SObs})
		}
	}
	return out, nil
}

// At returns (U_p, S_obs) for one operating point.
func (d *PipelinedData) At(p float64, portCount int) (float64, float64) {
	for _, r := range d.Rows {
		if r.PRemote == p && r.Ports == portCount {
			return r.Up, r.SObs
		}
	}
	return 0, 0
}

// Render prints the pipelined-switch table.
func (d *PipelinedData) Render() string {
	t := report.NewTable(
		"Pipelined switches as multi-server stations (analytical, n_t=8, R=10)",
		"p_remote", "switch ports", "U_p", "S_obs")
	for _, r := range d.Rows {
		t.Add(report.Float(r.PRemote, -1), fmt.Sprintf("%d", r.Ports),
			report.Float(r.Up, 3), report.Float(r.SObs, 1))
	}
	return t.String() +
		"Below saturation pipelining mostly trims S_obs; past saturation it buys back bandwidth and U_p.\n"
}

// HotSpotRow is one hot-spot fraction's outcome.
type HotSpotRow struct {
	Fraction   float64
	MinUp      float64
	MeanUp     float64
	MaxUp      float64
	HotMemUtil float64
}

// HotSpotData holds the hot-spot study.
type HotSpotData struct{ Rows []HotSpotRow }

// ExtensionHotSpot concentrates a growing fraction of every PE's remote
// accesses on memory module 0 and solves the asymmetric system with the
// full multiclass AMVA.
func ExtensionHotSpot() (*HotSpotData, error) {
	out := &HotSpotData{}
	for _, f := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		cfg := mms.DefaultConfig()
		cfg.PRemote = 0.4
		h, err := mms.BuildHotSpot(cfg, 0, f)
		if err != nil {
			return nil, err
		}
		met, err := h.Solve(mms.SolveOptions{})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, HotSpotRow{
			Fraction: f, MinUp: met.MinUp, MeanUp: met.MeanUp, MaxUp: met.MaxUp,
			HotMemUtil: met.MemUtilization[0],
		})
	}
	return out, nil
}

// Render prints the hot-spot table.
func (d *HotSpotData) Render() string {
	t := report.NewTable(
		"Hot-spot traffic toward memory 0 (full multiclass AMVA, p_remote=0.4, n_t=8)",
		"hot fraction", "min U_p", "mean U_p", "max U_p", "hot mem util")
	for _, r := range d.Rows {
		t.Add(report.Float(r.Fraction, -1),
			report.Float(r.MinUp, 3), report.Float(r.MeanUp, 3), report.Float(r.MaxUp, 3),
			report.Float(r.HotMemUtil, 3))
	}
	return t.String() +
		"Concentrated sharing saturates one module and drags every PE down — locality in the *pattern*, not just distance, decides tolerance.\n"
}

// ImbalanceRow is one thread-distribution spread's outcome.
type ImbalanceRow struct {
	Spread          int
	MinUp           float64
	MeanUp          float64
	MaxUp           float64
	TotalThroughput float64
}

// ImbalanceData holds the load-imbalance study.
type ImbalanceData struct{ Rows []ImbalanceRow }

// ExtensionImbalance keeps the machine-wide thread count fixed (16 PEs × 8
// threads) and skews the distribution checkerboard-style: half the PEs gain
// `spread` threads, half lose them. It quantifies the paper's even-load
// (SPMD) assumption: U_p is concave in n_t, so imbalance always costs total
// throughput.
func ExtensionImbalance() (*ImbalanceData, error) {
	cfg := mms.DefaultConfig()
	tor := topology.MustTorus(cfg.K)
	out := &ImbalanceData{}
	for _, spread := range []int{0, 2, 4, 6, 8} {
		threads, err := mms.Imbalance(tor, tor.Nodes()*cfg.Threads, spread)
		if err != nil {
			return nil, err
		}
		h, err := mms.BuildHeterogeneous(cfg, threads)
		if err != nil {
			return nil, err
		}
		met, err := h.Solve(mms.SolveOptions{})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ImbalanceRow{
			Spread: spread, MinUp: met.MinUp, MeanUp: met.MeanUp, MaxUp: met.MaxUp,
			TotalThroughput: met.TotalThroughput,
		})
	}
	return out, nil
}

// Render prints the imbalance table.
func (d *ImbalanceData) Render() string {
	t := report.NewTable(
		"Load imbalance at fixed total threads (128 over 16 PEs, p_remote=0.2, R=10)",
		"spread (±threads)", "min U_p", "mean U_p", "max U_p", "total P·U_p")
	for _, r := range d.Rows {
		t.Add(fmt.Sprintf("%d", r.Spread),
			report.Float(r.MinUp, 3), report.Float(r.MeanUp, 3), report.Float(r.MaxUp, 3),
			report.Float(r.TotalThroughput, 2))
	}
	return t.String() +
		"U_p is concave in n_t: threads moved from starved PEs help loaded PEs less than they hurt,\n" +
		"so any imbalance costs machine throughput — the paper's SPMD assumption is load-bearing.\n"
}

// MeshRow compares one machine size on both topologies.
type MeshRow struct {
	K            int
	Topology     string
	MeanDistance float64
	MeanUp       float64
	MinUp        float64
	MaxUp        float64
	MeanSObs     float64
}

// MeshData holds the mesh-vs-torus study.
type MeshData struct{ Rows []MeshRow }

// ExtensionMeshVsTorus solves the default workload on a 2-D mesh (no
// wraparound links) and on the paper's torus for several machine sizes. The
// mesh loses twice: routes are longer on average (higher d_avg and S_obs)
// and it is not vertex-transitive, so center switches concentrate traffic
// and per-PE utilization spreads out.
func ExtensionMeshVsTorus() (*MeshData, error) {
	out := &MeshData{}
	for _, k := range []int{4, 6, 8} {
		for _, meshTopo := range []bool{false, true} {
			cfg := mms.DefaultConfig()
			cfg.PRemote = 0.4
			var net topology.Network
			if meshTopo {
				net = topology.MustMesh(k)
			} else {
				net = topology.MustTorus(k)
			}
			model, err := mms.BuildOnTopology(cfg, net)
			if err != nil {
				return nil, err
			}
			met, err := model.Solve(mms.SolveOptions{})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, MeshRow{
				K: k, Topology: net.Name(), MeanDistance: met.MeanDistance,
				MeanUp: met.MeanUp, MinUp: met.MinUp, MaxUp: met.MaxUp, MeanSObs: met.MeanSObs,
			})
		}
	}
	return out, nil
}

// Render prints the mesh-vs-torus table.
func (d *MeshData) Render() string {
	t := report.NewTable(
		"Mesh vs torus under the default workload (p_remote=0.4, n_t=8, R=10)",
		"k", "topology", "d_avg", "mean U_p", "min U_p", "max U_p", "S_obs")
	for _, r := range d.Rows {
		t.Add(fmt.Sprintf("%d", r.K), r.Topology,
			report.Float(r.MeanDistance, 2),
			report.Float(r.MeanUp, 3), report.Float(r.MinUp, 3), report.Float(r.MaxUp, 3),
			report.Float(r.MeanSObs, 1))
	}
	return t.String() +
		"Wraparound links keep d_avg bounded and every PE equivalent; the mesh pays in\n" +
		"longer routes and a corner-to-center utilization spread.\n"
}

// BarrierRow is one barrier-interval operating point (simulation).
type BarrierRow struct {
	Interval int // accesses per thread per superstep; 0 = free running
	Up       float64
	SObs     float64
}

// BarrierData holds the barrier-synchronization study.
type BarrierData struct{ Rows []BarrierRow }

// ExtensionBarrier measures the cost of the synchronization the paper's
// free-running thread model leaves out: real do-all loops separate parallel
// phases with machine-wide barriers. Each row runs the direct simulator with
// a barrier after `interval` accesses per thread.
func ExtensionBarrier(opts ValidationOptions) (*BarrierData, error) {
	opts = opts.withDefaults()
	// Every interval runs on the same seed (common random numbers), so the
	// superstep granularity is the only thing that varies between rows.
	seed := sweep.DeriveSeed(opts.Seed, 91)
	rows, err := sweep.Run(context.Background(), []int{0, 1, 2, 4, 8, 16, 32}, sweepOptions(), func(interval int) (BarrierRow, error) {
		cfg := mms.DefaultConfig()
		cfg.PRemote = 0.3
		r, err := simmms.Run(cfg, simmms.Options{
			Engine: simmms.Direct, Seed: seed,
			Warmup: opts.Warmup, Duration: opts.Duration,
			BarrierInterval: interval,
		})
		if err != nil {
			return BarrierRow{}, err
		}
		return BarrierRow{Interval: interval, Up: r.Up, SObs: r.SObs}, nil
	})
	if err != nil {
		return nil, err
	}
	return &BarrierData{Rows: rows}, nil
}

// Render prints the barrier table.
func (d *BarrierData) Render() string {
	t := report.NewTable(
		"Barrier synchronization between do-all supersteps (Direct DES, p_remote=0.3, n_t=8)",
		"accesses per superstep", "U_p", "S_obs")
	for _, r := range d.Rows {
		label := fmt.Sprintf("%d", r.Interval)
		if r.Interval == 0 {
			label = "free running"
		}
		t.Add(label, report.Float(r.Up, 3), report.Float(r.SObs, 1))
	}
	return t.String() +
		"Machine-wide barriers wait for the slowest of all threads; frequent synchronization\n" +
		"halves U_p, and even 32 accesses per superstep keep a visible tail — the paper's\n" +
		"free-running model is an upper bound on what a real do-all loop achieves.\n"
}
