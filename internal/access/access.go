// Package access models the remote-memory-access patterns of the paper's
// program workload: which remote memory module a thread's shared-memory
// access targets, as a function of hop distance on the interconnection
// network.
//
// The paper characterizes locality with a geometric distribution governed by
// the switch-locality parameter p_sw: the probability of accessing a module
// at distance h falls by a factor p_sw per hop. It compares against a uniform
// distribution over all P-1 remote modules. Both are provided here.
package access

import (
	"fmt"
	"math"

	"lattol/internal/topology"
)

// Pattern gives, for a fixed origin PE, the probability that a *remote*
// access from that PE targets each other node. Probabilities are conditional
// on the access being remote: they exclude the origin and sum to 1.
type Pattern interface {
	// Prob returns the probability that a remote access from src targets dst.
	// Prob(src, src) is 0.
	Prob(src, dst topology.Node) float64
	// MeanDistance returns d_avg, the average hop count of a remote access.
	MeanDistance() float64
	// Name identifies the pattern in reports.
	Name() string
}

// GeometricMode selects how the geometric weight p_sw^h is normalized.
type GeometricMode int

const (
	// PerDistance assigns probability p_sw^h/a to *distance class* h
	// (a = Σ_{h=1..dmax} p_sw^h), split evenly among the nodes at that
	// distance. This is the paper's formulation: it reproduces
	// d_avg = Σ h·p_sw^h/a = 1.733 for k=4, p_sw=0.5 and the asymptote
	// 1/(1-p_sw) for large systems.
	PerDistance GeometricMode = iota
	// PerNode assigns weight p_sw^h to each *node* at distance h and
	// normalizes over nodes, so distance classes with more nodes receive
	// proportionally more traffic (d_avg = 1.66 for k=4, p_sw=0.5). Kept as
	// an ablation of the modeling choice.
	PerNode
)

func (m GeometricMode) String() string {
	switch m {
	case PerDistance:
		return "per-distance"
	case PerNode:
		return "per-node"
	default:
		return fmt.Sprintf("GeometricMode(%d)", int(m))
	}
}

// Geometric is the paper's locality-aware remote access pattern.
type Geometric struct {
	torus *topology.Torus
	psw   float64
	mode  GeometricMode

	// probByDist[h] is the probability that a remote access targets one
	// particular node at distance h (0 for h=0 or empty classes).
	probByDist []float64
	dAvg       float64
}

// NewGeometric builds a geometric pattern with locality parameter psw in
// (0, 1] on the given torus. The torus must have at least 2 nodes.
func NewGeometric(t *topology.Torus, psw float64, mode GeometricMode) (*Geometric, error) {
	if t.Nodes() < 2 {
		return nil, fmt.Errorf("access: geometric pattern needs >= 2 nodes, torus has %d", t.Nodes())
	}
	if psw <= 0 || psw > 1 || math.IsNaN(psw) {
		return nil, fmt.Errorf("access: p_sw = %v, want 0 < p_sw <= 1", psw)
	}
	if mode != PerDistance && mode != PerNode {
		return nil, fmt.Errorf("access: unknown geometric mode %d", int(mode))
	}
	g := &Geometric{torus: t, psw: psw, mode: mode}
	hist := t.DistanceHistogram()
	dmax := len(hist) - 1
	g.probByDist = make([]float64, dmax+1)
	var norm, dsum float64
	switch mode {
	case PerDistance:
		for h := 1; h <= dmax; h++ {
			if hist[h] == 0 {
				continue
			}
			w := math.Pow(psw, float64(h))
			norm += w
			dsum += float64(h) * w
		}
		for h := 1; h <= dmax; h++ {
			if hist[h] == 0 {
				continue
			}
			g.probByDist[h] = math.Pow(psw, float64(h)) / norm / float64(hist[h])
		}
	case PerNode:
		for h := 1; h <= dmax; h++ {
			w := math.Pow(psw, float64(h)) * float64(hist[h])
			norm += w
			dsum += float64(h) * w
		}
		for h := 1; h <= dmax; h++ {
			g.probByDist[h] = math.Pow(psw, float64(h)) / norm
		}
	}
	g.dAvg = dsum / norm
	return g, nil
}

// Prob implements Pattern.
func (g *Geometric) Prob(src, dst topology.Node) float64 {
	if src == dst {
		return 0
	}
	return g.probByDist[g.torus.Distance(src, dst)]
}

// MeanDistance implements Pattern.
func (g *Geometric) MeanDistance() float64 { return g.dAvg }

// Name implements Pattern.
func (g *Geometric) Name() string {
	return fmt.Sprintf("geometric(p_sw=%g, %s)", g.psw, g.mode)
}

// Uniform targets each of the P-1 remote modules with equal probability.
type Uniform struct {
	torus *topology.Torus
	dAvg  float64
}

// NewUniform builds a uniform pattern on the given torus (>= 2 nodes).
func NewUniform(t *topology.Torus) (*Uniform, error) {
	if t.Nodes() < 2 {
		return nil, fmt.Errorf("access: uniform pattern needs >= 2 nodes, torus has %d", t.Nodes())
	}
	return &Uniform{torus: t, dAvg: t.MeanDistanceUniform()}, nil
}

// Prob implements Pattern.
func (u *Uniform) Prob(src, dst topology.Node) float64 {
	if src == dst {
		return 0
	}
	return 1 / float64(u.torus.Nodes()-1)
}

// MeanDistance implements Pattern.
func (u *Uniform) MeanDistance() float64 { return u.dAvg }

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }
