package experiments

import (
	"context"
	"fmt"
	"strings"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/report"
	"lattol/internal/sweep"
	"lattol/internal/tolerance"
)

// WorkloadSurfaces holds the four panels of the paper's Figures 4 and 5:
// U_p, S_obs, λ_net and tol_network as functions of n_t × p_remote at a
// fixed runlength.
type WorkloadSurfaces struct {
	Runlength float64
	Threads   []int
	PRemote   []float64
	// Panels indexed [ti][pi].
	Up     [][]float64
	SObs   [][]float64
	LamNet [][]float64
	TolNet [][]float64
}

// workloadGrid is the reconstructed axis grid of Figures 4/5: n_t = 1..10,
// p_remote = 0.05..0.90 in steps of 0.05 (computed as exact hundredths so
// axis labels print cleanly).
func workloadGrid() ([]int, []float64) {
	var ps []float64
	for c := 5; c <= 90; c += 5 {
		ps = append(ps, float64(c)/100)
	}
	return sweep.IntRange(1, 10, 1), ps
}

// Figure4 computes the panels at R = 10.
func Figure4() (*WorkloadSurfaces, error) { return workloadSurfaces(10) }

// Figure5 computes the panels at R = 20.
func Figure5() (*WorkloadSurfaces, error) { return workloadSurfaces(20) }

func workloadSurfaces(r float64) (*WorkloadSurfaces, error) {
	threads, ps := workloadGrid()
	w := &WorkloadSurfaces{Runlength: r, Threads: threads, PRemote: ps}
	var cfgs []mms.Config
	for _, nt := range threads {
		for _, p := range ps {
			cfg := mms.DefaultConfig()
			cfg.Runlength = r
			cfg.Threads = nt
			cfg.PRemote = p
			cfgs = append(cfgs, cfg)
		}
	}
	mets, err := solveBatch(cfgs, eval.Options{TolNetwork: true})
	if err != nil {
		return nil, err
	}
	for ti := range threads {
		row := mets[ti*len(ps) : (ti+1)*len(ps)]
		up := make([]float64, len(ps))
		so := make([]float64, len(ps))
		ln := make([]float64, len(ps))
		tl := make([]float64, len(ps))
		for pi, m := range row {
			up[pi], so[pi], ln[pi], tl[pi] = m.Up, m.SObs, m.LambdaNet, m.TolNetwork
		}
		w.Up = append(w.Up, up)
		w.SObs = append(w.SObs, so)
		w.LamNet = append(w.LamNet, ln)
		w.TolNet = append(w.TolNet, tl)
	}
	return w, nil
}

// Render prints the four panels as value grids.
func (w *WorkloadSurfaces) Render() string {
	ys := make([]float64, len(w.Threads))
	for i, nt := range w.Threads {
		ys[i] = float64(nt)
	}
	var b strings.Builder
	for _, panel := range []struct {
		name string
		z    [][]float64
		prec int
	}{
		{"U_p", w.Up, 3},
		{"S_obs", w.SObs, 1},
		{"lambda_net", w.LamNet, 4},
		{"tol_network", w.TolNet, 3},
	} {
		s := &report.Surface{
			Title:  fmt.Sprintf("%s at R = %g", panel.name, w.Runlength),
			XLabel: "p_remote", YLabel: "n_t",
			Xs: w.PRemote, Ys: ys, Z: panel.z, Prec: panel.prec,
		}
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MatchedRow is one row of Table 2: an operating point chosen so that S_obs
// matches a target while (n_t, R, p_remote) differ, demonstrating that S_obs
// alone does not determine tolerance.
type MatchedRow struct {
	R       float64
	Threads int
	PRemote float64
	LObs    float64
	SObs    float64
	LamNet  float64
	Up      float64
	TolNet  float64
	Zone    tolerance.Zone
}

// Table2Data holds the matched-S_obs rows for R = 10 and R = 20.
type Table2Data struct {
	Rows []MatchedRow
}

// Table2 reproduces the paper's Table 2 construction: for each runlength it
// picks several thread counts and, for each, searches the p_remote that
// makes S_obs land on a common target (53 cycles at R = 10, 56 at R = 20 —
// the values quoted in the paper), then reports the very different tolerance
// indices at those matched latencies.
func Table2() (*Table2Data, error) {
	type pt struct {
		r      float64
		target float64
		nt     int
	}
	var pts []pt
	for _, grp := range []struct {
		r      float64
		target float64
		nts    []int
	}{
		{10, 53, []int{3, 5, 8, 10}},
		{20, 56, []int{3, 4, 6, 8}},
	} {
		for _, nt := range grp.nts {
			pts = append(pts, pt{grp.r, grp.target, nt})
		}
	}
	rows, err := sweep.Run(context.Background(), pts, sweepOptions(), func(p pt) (MatchedRow, error) {
		return matchSObs(p.r, p.nt, p.target)
	})
	if err != nil {
		return nil, err
	}
	return &Table2Data{Rows: rows}, nil
}

// matchSObs binary-searches p_remote in (0, 0.95] so the solved S_obs hits
// the target; S_obs is monotone in p_remote until network saturation, where
// it plateaus — the search returns the plateau point in that case.
func matchSObs(r float64, nt int, target float64) (MatchedRow, error) {
	cfg := mms.DefaultConfig()
	cfg.Runlength = r
	cfg.Threads = nt
	lo, hi := 0.01, 0.95
	var best mms.Metrics
	bestP := hi
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		cfg.PRemote = mid
		met, err := mms.Solve(cfg)
		if err != nil {
			return MatchedRow{}, err
		}
		best, bestP = met, mid
		if met.SObs < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	cfg.PRemote = bestP
	idx, err := tolerance.NetworkIndex(cfg)
	if err != nil {
		return MatchedRow{}, err
	}
	return MatchedRow{
		R: r, Threads: nt, PRemote: bestP,
		LObs: best.LObs, SObs: best.SObs, LamNet: best.LambdaNet,
		Up: best.Up, TolNet: idx.Tol, Zone: idx.Zone(),
	}, nil
}

// Render prints Table 2.
func (d *Table2Data) Render() string {
	t := report.NewTable(
		"Table 2: network latency tolerance at matched S_obs — same latency, different tolerance",
		"R", "n_t", "p_remote", "L_obs", "S_obs", "lambda_net", "U_p", "tol_network", "zone")
	for _, r := range d.Rows {
		t.Add(
			report.Float(r.R, -1),
			fmt.Sprintf("%d", r.Threads),
			report.Float(r.PRemote, 3),
			report.Float(r.LObs, 1),
			report.Float(r.SObs, 1),
			report.Float(r.LamNet, 4),
			report.Float(r.Up, 3),
			report.Float(r.TolNet, 3),
			r.Zone.String(),
		)
	}
	return t.String()
}
