package experiments

import (
	"fmt"
	"strings"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/report"
	"lattol/internal/sweep"
)

// TolSurfaces holds tol_network (Figure 6) or tol_memory (Figure 8) over the
// n_t × R plane for two values of a secondary parameter.
type TolSurfaces struct {
	Metric    string // "tol_network" or "tol_memory"
	Secondary string // "p_remote" or "L"
	Values    []float64
	Threads   []int
	Runs      []float64
	// Z[vi][ti][ri]
	Z [][][]float64
}

// partitionGrid is the reconstructed n_t × R grid of Figures 6 and 8.
func partitionGrid() ([]int, []float64) {
	return sweep.IntRange(1, 10, 1), []float64{2, 5, 10, 15, 20, 25, 30, 35, 40}
}

// Figure6 computes tol_network over n_t × R for p_remote ∈ {0.2, 0.4}.
func Figure6() (*TolSurfaces, error) {
	return tolSurfaces("tol_network", "p_remote", []float64{0.2, 0.4}, eval.Options{TolNetwork: true},
		func(cfg *mms.Config, p float64) { cfg.PRemote = p })
}

// Figure8 computes tol_memory over n_t × R for L ∈ {10, 20} at
// p_remote = 0.2.
func Figure8() (*TolSurfaces, error) {
	return tolSurfaces("tol_memory", "L", []float64{10, 20}, eval.Options{TolMemory: true},
		func(cfg *mms.Config, l float64) { cfg.MemoryTime = l })
}

// tolSurfaces solves the n_t × R grid at every secondary value (applied to
// the configuration by set) as one batch and keeps the one tolerance index
// opts requests.
func tolSurfaces(metric, secondary string, values []float64, opts eval.Options, set func(*mms.Config, float64)) (*TolSurfaces, error) {
	threads, runs := partitionGrid()
	out := &TolSurfaces{Metric: metric, Secondary: secondary, Values: values, Threads: threads, Runs: runs}
	var cfgs []mms.Config
	for _, v := range values {
		for _, nt := range threads {
			for _, r := range runs {
				cfg := mms.DefaultConfig()
				cfg.Runlength = r
				cfg.Threads = nt
				set(&cfg, v)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	mets, err := solveBatch(cfgs, opts)
	if err != nil {
		return nil, err
	}
	for range values {
		z := make([][]float64, len(threads))
		for ti := range z {
			z[ti] = make([]float64, len(runs))
			for ri := range runs {
				z[ti][ri] = mets[0].TolNetwork
				if opts.TolMemory {
					z[ti][ri] = mets[0].TolMemory
				}
				mets = mets[1:]
			}
		}
		out.Z = append(out.Z, z)
	}
	return out, nil
}

// Render prints one grid per secondary value.
func (s *TolSurfaces) Render() string {
	ys := make([]float64, len(s.Threads))
	for i, nt := range s.Threads {
		ys[i] = float64(nt)
	}
	var b strings.Builder
	for vi, v := range s.Values {
		sur := &report.Surface{
			Title:  fmt.Sprintf("%s with %s = %g", s.Metric, s.Secondary, v),
			XLabel: "R", YLabel: "n_t",
			Xs: s.Runs, Ys: ys, Z: s.Z[vi], Prec: 3,
		}
		b.WriteString(sur.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// PartitionCurves holds Figure 7: tol_network along iso-work curves
// n_t·R = const, as a function of R, for two p_remote values.
type PartitionCurves struct {
	PRemote []float64
	Works   []int
	// Curves[pi][wi] is the series for work = Works[wi] at
	// p_remote = PRemote[pi].
	Curves [][]report.Series
}

// Figure7 evaluates the paper's thread-partitioning strategy: expose a fixed
// amount of computation n_t·R ∈ {20, 40, 60, 80, 100} and trade thread count
// against runlength.
func Figure7() (*PartitionCurves, error) {
	out := &PartitionCurves{
		PRemote: []float64{0.2, 0.4},
		Works:   []int{20, 40, 60, 80, 100},
	}
	var cfgs []mms.Config
	for _, p := range out.PRemote {
		for _, work := range out.Works {
			for _, sp := range workSplits(work) {
				cfg := mms.DefaultConfig()
				cfg.Threads = sp[0]
				cfg.Runlength = float64(sp[1])
				cfg.PRemote = p
				cfgs = append(cfgs, cfg)
			}
		}
	}
	mets, err := solveBatch(cfgs, eval.Options{TolNetwork: true})
	if err != nil {
		return nil, err
	}
	for range out.PRemote {
		var curves []report.Series
		for _, work := range out.Works {
			series := report.Series{Name: fmt.Sprintf("n_t x R = %d", work)}
			for _, sp := range workSplits(work) {
				series.X = append(series.X, float64(sp[1]))
				series.Y = append(series.Y, mets[0].TolNetwork)
				mets = mets[1:]
			}
			curves = append(curves, series)
		}
		out.Curves = append(out.Curves, curves)
	}
	return out, nil
}

// workSplits enumerates (n_t, R) integer factorizations of work with
// n_t >= 1, R >= 2, ordered by increasing R.
func workSplits(work int) [][2]int {
	var out [][2]int
	for r := 2; r <= work; r++ {
		if work%r == 0 {
			out = append(out, [2]int{work / r, r})
		}
	}
	return out
}

// Render prints one block per p_remote.
func (c *PartitionCurves) Render() string {
	var b strings.Builder
	for pi, p := range c.PRemote {
		b.WriteString(report.RenderSeries(
			fmt.Sprintf("tol_network for thread partitioning at p_remote = %g", p),
			"R", 3, c.Curves[pi]...))
		b.WriteByte('\n')
	}
	return b.String()
}

// PartitionRow is one row of Tables 3 and 4: an (n_t, R) split of fixed
// work with all the paper's measures.
type PartitionRow struct {
	PRemote float64
	L       float64
	Threads int
	R       float64
	LObs    float64
	SObs    float64
	LamNet  float64
	Up      float64
	TolNet  float64
	TolMem  float64
}

// PartitionTable holds Table 3 or Table 4.
type PartitionTable struct {
	Title   string
	Columns []string
	Rows    []PartitionRow
}

// Table3 reproduces the thread-partitioning rows with n_t·R = 40 at
// p_remote ∈ {0.2, 0.4}.
func Table3() (*PartitionTable, error) {
	rows, err := partitionRows([]float64{0.2, 0.4}, func(cfg *mms.Config, p float64) { cfg.PRemote = p })
	if err != nil {
		return nil, err
	}
	return &PartitionTable{
		Title:   "Table 3: thread partitioning (n_t·R = 40) and network latency tolerance",
		Columns: []string{"p_remote", "n_t", "R", "L_obs", "S_obs", "lambda_net", "U_p", "tol_network"},
		Rows:    rows,
	}, nil
}

// Table4 reproduces the memory-latency-tolerance rows with n_t·R = 40,
// p_remote = 0.2, L ∈ {10, 20}.
func Table4() (*PartitionTable, error) {
	rows, err := partitionRows([]float64{10, 20}, func(cfg *mms.Config, l float64) { cfg.MemoryTime = l })
	if err != nil {
		return nil, err
	}
	return &PartitionTable{
		Title:   "Table 4: thread partitioning (n_t·R = 40) and memory latency tolerance, p_remote = 0.2",
		Columns: []string{"L", "n_t", "R", "L_obs", "S_obs", "U_p", "tol_memory"},
		Rows:    rows,
	}, nil
}

// partitionRows solves every (n_t, R) split of n_t·R = 40 at every value
// (applied to the configuration by set) as one batch with both tolerance
// indices.
func partitionRows(values []float64, set func(*mms.Config, float64)) ([]PartitionRow, error) {
	var cfgs []mms.Config
	for _, v := range values {
		for _, sp := range workSplits(40) {
			cfg := mms.DefaultConfig()
			cfg.Threads = sp[0]
			cfg.Runlength = float64(sp[1])
			set(&cfg, v)
			cfgs = append(cfgs, cfg)
		}
	}
	mets, err := solveBatch(cfgs, eval.Options{TolNetwork: true, TolMemory: true})
	if err != nil {
		return nil, err
	}
	rows := make([]PartitionRow, len(cfgs))
	for i, cfg := range cfgs {
		m := mets[i]
		rows[i] = PartitionRow{
			PRemote: cfg.PRemote, L: cfg.MemoryTime, Threads: cfg.Threads, R: cfg.Runlength,
			LObs: m.LObs, SObs: m.SObs, LamNet: m.LambdaNet,
			Up: m.Up, TolNet: m.TolNetwork, TolMem: m.TolMemory,
		}
	}
	return rows, nil
}

// Render prints the table.
func (p *PartitionTable) Render() string {
	t := report.NewTable(p.Title, p.Columns...)
	memTable := p.Columns[0] == "L"
	for _, r := range p.Rows {
		if memTable {
			t.Add(
				report.Float(r.L, -1),
				fmt.Sprintf("%d", r.Threads),
				report.Float(r.R, -1),
				report.Float(r.LObs, 1),
				report.Float(r.SObs, 1),
				report.Float(r.Up, 3),
				report.Float(r.TolMem, 3),
			)
		} else {
			t.Add(
				report.Float(r.PRemote, -1),
				fmt.Sprintf("%d", r.Threads),
				report.Float(r.R, -1),
				report.Float(r.LObs, 1),
				report.Float(r.SObs, 1),
				report.Float(r.LamNet, 4),
				report.Float(r.Up, 3),
				report.Float(r.TolNet, 3),
			)
		}
	}
	return t.String()
}
