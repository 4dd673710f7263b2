package access

import (
	"fmt"
	"math"

	"lattol/internal/topology"
)

// GeometricOn builds a geometric pattern on an arbitrary topology.Network.
// Unlike Geometric (which exploits the torus's vertex transitivity), it
// normalizes per origin: node i's distance histogram determines its own
// distribution, so it works on non-transitive networks such as the mesh.
// MeanDistance is the average of the per-origin means over all origins.
type GeometricOn struct {
	net  topology.Network
	psw  float64
	mode GeometricMode
	// probByDist[src][h] is the probability of one particular node at
	// distance h from src.
	probByDist [][]float64
	// dAvgBySrc[src] is the per-origin mean remote distance.
	dAvgBySrc []float64
	dAvg      float64
}

// NewGeometricOn builds the per-origin geometric pattern.
func NewGeometricOn(net topology.Network, psw float64, mode GeometricMode) (*GeometricOn, error) {
	if net.Nodes() < 2 {
		return nil, fmt.Errorf("access: geometric pattern needs >= 2 nodes, network has %d", net.Nodes())
	}
	if psw <= 0 || psw > 1 || math.IsNaN(psw) {
		return nil, fmt.Errorf("access: p_sw = %v, want 0 < p_sw <= 1", psw)
	}
	if mode != PerDistance && mode != PerNode {
		return nil, fmt.Errorf("access: unknown geometric mode %d", int(mode))
	}
	g := &GeometricOn{net: net, psw: psw, mode: mode}
	n := net.Nodes()
	dmax := net.MaxDistance()
	g.probByDist = make([][]float64, n)
	g.dAvgBySrc = make([]float64, n)
	var dSum float64
	for src := 0; src < n; src++ {
		hist := make([]int, dmax+1)
		for dst := 0; dst < n; dst++ {
			hist[net.Distance(topology.Node(src), topology.Node(dst))]++
		}
		row := make([]float64, dmax+1)
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
				row[h] = math.Pow(psw, float64(h)) / norm / float64(hist[h])
			}
		case PerNode:
			for h := 1; h <= dmax; h++ {
				w := math.Pow(psw, float64(h)) * float64(hist[h])
				norm += w
				dsum += float64(h) * w
			}
			for h := 1; h <= dmax; h++ {
				row[h] = math.Pow(psw, float64(h)) / norm
			}
		}
		g.probByDist[src] = row
		g.dAvgBySrc[src] = dsum / norm
		dSum += g.dAvgBySrc[src]
	}
	g.dAvg = dSum / float64(n)
	return g, nil
}

// Prob implements Pattern.
func (g *GeometricOn) Prob(src, dst topology.Node) float64 {
	if src == dst {
		return 0
	}
	return g.probByDist[src][g.net.Distance(src, dst)]
}

// MeanDistance implements Pattern (averaged over origins).
func (g *GeometricOn) MeanDistance() float64 { return g.dAvg }

// MeanDistanceFrom returns the per-origin mean remote distance.
func (g *GeometricOn) MeanDistanceFrom(src topology.Node) float64 { return g.dAvgBySrc[src] }

// Name implements Pattern.
func (g *GeometricOn) Name() string {
	return fmt.Sprintf("geometric(p_sw=%g, %s) on %s", g.psw, g.mode, g.net.Name())
}
