package experiments

import (
	"context"
	"fmt"
	"strings"

	"lattol/internal/mms"
	"lattol/internal/report"
	"lattol/internal/sweep"
	"lattol/internal/tolerance"
)

// ScalingCurves holds Figure 9: tol_network vs n_t for several machine sizes
// and both remote-access distributions, at R = 10 and R = 20.
//
// The tolerance here uses the ZeroDelay ideal (S = 0): Section 7 compares
// against "an ideal (very fast) network" explicitly, which is how the paper
// exposes the network-as-pipelined-buffer effect.
type ScalingCurves struct {
	Runlengths []float64
	Ks         []int
	Threads    []int
	// Curves[ri] holds, for runlength Runlengths[ri], one series per
	// (k, distribution) pair.
	Curves [][]report.Series
}

// Figure9 sweeps k = 2..10, n_t = 1..10 for geometric and uniform patterns.
func Figure9() (*ScalingCurves, error) {
	out := &ScalingCurves{
		Runlengths: []float64{10, 20},
		Ks:         []int{2, 4, 6, 8, 10},
		Threads:    sweep.IntRange(1, 10, 1),
	}
	type point struct {
		r       float64
		k       int
		uniform bool
		nt      int
	}
	var pts []point
	for _, r := range out.Runlengths {
		for _, k := range out.Ks {
			for _, uni := range []bool{true, false} {
				for _, nt := range out.Threads {
					pts = append(pts, point{r, k, uni, nt})
				}
			}
		}
	}
	// The ZeroDelay network ideal is not an eval.Options index, so each
	// point solves its own pair of systems.
	tols, err := sweep.Run(context.Background(), pts, sweepOptions(), func(p point) (float64, error) {
		cfg := mms.DefaultConfig()
		cfg.Runlength = p.r
		cfg.K = p.k
		cfg.Threads = p.nt
		cfg.Uniform = p.uniform
		idx, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroDelay, mms.SolveOptions{})
		return idx.Tol, err
	})
	if err != nil {
		return nil, err
	}
	i := 0
	for range out.Runlengths {
		var curves []report.Series
		for _, k := range out.Ks {
			for _, uni := range []bool{true, false} {
				name := fmt.Sprintf("k=%d geometric", k)
				if uni {
					name = fmt.Sprintf("k=%d uniform", k)
				}
				s := report.Series{Name: name}
				for _, nt := range out.Threads {
					s.X = append(s.X, float64(nt))
					s.Y = append(s.Y, tols[i])
					i++
				}
				curves = append(curves, s)
			}
		}
		out.Curves = append(out.Curves, curves)
	}
	return out, nil
}

// Render prints one block per runlength.
func (s *ScalingCurves) Render() string {
	var b strings.Builder
	for ri, r := range s.Runlengths {
		b.WriteString(report.RenderSeries(
			fmt.Sprintf("tol_network (ideal = zero-delay IN) vs n_t at R = %g", r),
			"n_t", 3, s.Curves[ri]...))
		b.WriteByte('\n')
	}
	return b.String()
}

// ThroughputScaling holds Figure 10: system throughput P·U_p and the
// observed latencies vs machine size for an ideal network, the geometric
// pattern and the uniform pattern, at n_t = 8, R = 10, p_remote = 0.2.
type ThroughputScaling struct {
	Ps []int // machine sizes (P = k²)
	// Throughput series: linear reference, ideal network, geometric, uniform.
	Linear, Ideal, Geometric, Uniform []float64
	// Latency panels: S_obs and L_obs per variant (S_obs is 0 for the ideal
	// network).
	SObsGeometric, SObsUniform            []float64
	LObsIdeal, LObsGeometric, LObsUniform []float64
}

// Figure10 sweeps k = 2..10.
func Figure10() (*ThroughputScaling, error) {
	ks := []int{2, 4, 6, 8, 10}
	type sizePoint struct {
		geo, ideal, uni mms.Metrics
	}
	points, err := sweep.Run(context.Background(), ks, sweepOptions(), func(k int) (sizePoint, error) {
		base := mms.DefaultConfig()
		base.K = k

		geo, err := mms.Solve(base)
		if err != nil {
			return sizePoint{}, err
		}
		idealCfg := base
		idealCfg.SwitchTime = 0
		ideal, err := mms.Solve(idealCfg)
		if err != nil {
			return sizePoint{}, err
		}
		uniCfg := base
		uniCfg.Uniform = true
		uni, err := mms.Solve(uniCfg)
		if err != nil {
			return sizePoint{}, err
		}
		return sizePoint{geo: geo, ideal: ideal, uni: uni}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &ThroughputScaling{}
	for i, k := range ks {
		pt := points[i]
		p := float64(k * k)
		out.Ps = append(out.Ps, k*k)
		out.Linear = append(out.Linear, p)
		out.Ideal = append(out.Ideal, geoThroughput(pt.ideal, p))
		out.Geometric = append(out.Geometric, geoThroughput(pt.geo, p))
		out.Uniform = append(out.Uniform, geoThroughput(pt.uni, p))
		out.SObsGeometric = append(out.SObsGeometric, pt.geo.SObs)
		out.SObsUniform = append(out.SObsUniform, pt.uni.SObs)
		out.LObsIdeal = append(out.LObsIdeal, pt.ideal.LObs)
		out.LObsGeometric = append(out.LObsGeometric, pt.geo.LObs)
		out.LObsUniform = append(out.LObsUniform, pt.uni.LObs)
	}
	return out, nil
}

func geoThroughput(m mms.Metrics, p float64) float64 { return p * m.Up }

// Render prints the throughput panel and the latency panel.
func (t *ThroughputScaling) Render() string {
	xs := make([]float64, len(t.Ps))
	for i, p := range t.Ps {
		xs[i] = float64(p)
	}
	var b strings.Builder
	b.WriteString(report.RenderSeries(
		"Figure 10a: system throughput P·U_p vs machine size (n_t=8, R=10, p_remote=0.2)",
		"P", 2,
		report.Series{Name: "linear", X: xs, Y: t.Linear},
		report.Series{Name: "ideal network", X: xs, Y: t.Ideal},
		report.Series{Name: "geometric", X: xs, Y: t.Geometric},
		report.Series{Name: "uniform", X: xs, Y: t.Uniform},
	))
	b.WriteByte('\n')
	b.WriteString(report.RenderSeries(
		"Figure 10b: observed network and memory latencies vs machine size",
		"P", 1,
		report.Series{Name: "S_obs geometric", X: xs, Y: t.SObsGeometric},
		report.Series{Name: "S_obs uniform", X: xs, Y: t.SObsUniform},
		report.Series{Name: "L_obs ideal-IN", X: xs, Y: t.LObsIdeal},
		report.Series{Name: "L_obs geometric", X: xs, Y: t.LObsGeometric},
		report.Series{Name: "L_obs uniform", X: xs, Y: t.LObsUniform},
	))
	return b.String()
}
