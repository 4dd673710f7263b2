// Package topology models the interconnection-network topologies used by the
// multithreaded multiprocessor system (MMS) of Nemawarkar & Gao (IPPS 1997):
// a 2-dimensional torus of k×k processing elements with dimension-order
// minimal routing.
//
// The package provides hop distances, distance histograms, maximum and
// average distances, and explicit minimal routes. Routes are what turn a
// remote-access pattern into per-switch visit ratios for the queueing model,
// and what the simulators follow hop by hop.
package topology

import "fmt"

// Node identifies a processing element by its linear index in [0, P).
type Node int

// Torus is a 2-dimensional k×k torus (the paper's interconnection network).
// Nodes are numbered row-major: node = y*k + x.
type Torus struct {
	k int // nodes per dimension
}

// NewTorus returns a k×k torus. k must be at least 1.
func NewTorus(k int) (*Torus, error) {
	if k < 1 {
		return nil, fmt.Errorf("topology: torus dimension k=%d, want k >= 1", k)
	}
	return &Torus{k: k}, nil
}

// MustTorus is NewTorus for known-good dimensions; it panics on error.
func MustTorus(k int) *Torus {
	t, err := NewTorus(k)
	if err != nil {
		panic(err)
	}
	return t
}

// K returns the number of nodes per dimension.
func (t *Torus) K() int { return t.k }

// Nodes returns the total number of nodes P = k².
func (t *Torus) Nodes() int { return t.k * t.k }

// Coord returns the (x, y) coordinates of a node.
func (t *Torus) Coord(n Node) (x, y int) {
	return int(n) % t.k, int(n) / t.k
}

// NodeAt returns the node at coordinates (x, y), wrapping around torus edges.
func (t *Torus) NodeAt(x, y int) Node {
	x = mod(x, t.k)
	y = mod(y, t.k)
	return Node(y*t.k + x)
}

// Distance returns the minimum number of hops between two nodes, using
// wrap-around links in both dimensions.
func (t *Torus) Distance(a, b Node) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return ringDist(ax, bx, t.k) + ringDist(ay, by, t.k)
}

// MaxDistance returns d_max, the largest hop distance between any node pair.
func (t *Torus) MaxDistance() int {
	return 2 * (t.k / 2)
}

// DistanceHistogram returns count[h] = number of nodes at distance h from any
// fixed node (the torus is vertex-transitive, so the histogram is the same
// for every origin). count[0] == 1 (the node itself).
func (t *Torus) DistanceHistogram() []int {
	count := make([]int, t.MaxDistance()+1)
	for n := 0; n < t.Nodes(); n++ {
		count[t.Distance(0, Node(n))]++
	}
	return count
}

// MeanDistanceUniform returns the average hop distance from a node to a
// destination chosen uniformly among the other P-1 nodes. For k=4 this is
// 32/15 ≈ 2.13; for k=10 it is 5.05 (the values quoted in the paper's
// scaling section).
func (t *Torus) MeanDistanceUniform() float64 {
	if t.Nodes() == 1 {
		return 0
	}
	sum := 0
	for h, c := range t.DistanceHistogram() {
		sum += h * c
	}
	return float64(sum) / float64(t.Nodes()-1)
}

// Route returns the sequence of nodes visited after each hop of the
// dimension-order (X then Y) minimal route from src to dst, ending with dst
// itself. The slice has Distance(src, dst) entries; it is empty when
// src == dst. Ties on even k (distance exactly k/2 in a dimension) are
// broken toward the positive direction, deterministically, so analytical
// visit ratios and simulated token routes agree exactly.
func (t *Torus) Route(src, dst Node) []Node {
	if src == dst {
		return nil
	}
	return t.AppendRoute(make([]Node, 0, t.Distance(src, dst)), src, dst)
}

// AppendRoute appends the hops of Route(src, dst) to buf and returns the
// extended slice; it allocates only when buf lacks the capacity. A minimal
// route never turns around within a dimension, so each dimension's
// direction is fixed by its first hop and the walk wraps without dividing.
func (t *Torus) AppendRoute(buf []Node, src, dst Node) []Node {
	k := t.k
	x, y := t.Coord(src)
	dx, dy := t.Coord(dst)
	for step := ringStep(x, dx, k); x != dx; {
		x = wrap(x+step, k)
		buf = append(buf, Node(y*k+x))
	}
	for step := ringStep(y, dy, k); y != dy; {
		y = wrap(y+step, k)
		buf = append(buf, Node(y*k+x))
	}
	return buf
}

// wrap maps a position one step outside [0, k) back onto the ring.
func wrap(a, k int) int {
	switch {
	case a == k:
		return 0
	case a < 0:
		return k - 1
	}
	return a
}

// ringDist is the shortest distance between positions a and b on a ring of
// size k.
func ringDist(a, b, k int) int {
	d := mod(b-a, k)
	if d > k-d {
		return k - d
	}
	return d
}

// ringStep returns +1 or -1: the direction of the first hop of a minimal
// route from a toward b on a ring of size k. Ties (d == k-d) go positive.
func ringStep(a, b, k int) int {
	d := mod(b-a, k)
	if d == 0 {
		return 0
	}
	if d <= k-d {
		return 1
	}
	return -1
}

func mod(a, k int) int {
	m := a % k
	if m < 0 {
		m += k
	}
	return m
}
