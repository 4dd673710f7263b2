package topology

import "fmt"

// Network abstracts the interconnection topologies the model can run on.
// *Torus implements it (the paper's network); Mesh is provided to quantify
// what the wraparound links buy. Non-vertex-transitive networks (like the
// mesh) cannot use the symmetric solver or translation-invariant access
// patterns — use the per-origin constructors in package access and the
// asymmetric model builders in package mms.
type Network interface {
	// Nodes returns the number of processing elements.
	Nodes() int
	// Distance returns the minimum hop count between two nodes.
	Distance(a, b Node) int
	// MaxDistance returns the network diameter.
	MaxDistance() int
	// Route returns the dimension-order minimal route from src to dst: the
	// node visited after each hop, ending with dst (empty when src == dst).
	Route(src, dst Node) []Node
	// AppendRoute appends the hops of Route(src, dst) to buf and returns
	// the extended slice, so a caller walking many routes can reuse one
	// buffer.
	AppendRoute(buf []Node, src, dst Node) []Node
	// Name identifies the topology in reports.
	Name() string
}

var (
	_ Network = (*Torus)(nil)
	_ Network = (*Mesh)(nil)
)

// Name implements Network.
func (t *Torus) Name() string { return fmt.Sprintf("torus %dx%d", t.k, t.k) }

// Mesh is a k×k 2-dimensional mesh *without* wraparound links. Unlike the
// torus it is not vertex-transitive: corner nodes are farther from the rest
// than center nodes, so distance histograms depend on the origin.
type Mesh struct {
	k int
}

// NewMesh returns a k×k mesh. k must be at least 1.
func NewMesh(k int) (*Mesh, error) {
	if k < 1 {
		return nil, fmt.Errorf("topology: mesh dimension k=%d, want k >= 1", k)
	}
	return &Mesh{k: k}, nil
}

// MustMesh is NewMesh for known-good dimensions; it panics on error.
func MustMesh(k int) *Mesh {
	m, err := NewMesh(k)
	if err != nil {
		panic(err)
	}
	return m
}

// K returns the number of nodes per dimension.
func (m *Mesh) K() int { return m.k }

// Nodes implements Network.
func (m *Mesh) Nodes() int { return m.k * m.k }

// Coord returns the (x, y) coordinates of a node.
func (m *Mesh) Coord(n Node) (x, y int) {
	return int(n) % m.k, int(n) / m.k
}

// NodeAt returns the node at coordinates (x, y); they must be in range.
func (m *Mesh) NodeAt(x, y int) Node {
	if x < 0 || x >= m.k || y < 0 || y >= m.k {
		panic(fmt.Sprintf("topology: mesh coordinate (%d,%d) out of range", x, y))
	}
	return Node(y*m.k + x)
}

// Distance implements Network (Manhattan distance, no wraparound).
func (m *Mesh) Distance(a, b Node) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// MaxDistance implements Network: corner to corner.
func (m *Mesh) MaxDistance() int { return 2 * (m.k - 1) }

// Route implements Network with X-then-Y dimension-order routing.
func (m *Mesh) Route(src, dst Node) []Node {
	if src == dst {
		return nil
	}
	return m.AppendRoute(make([]Node, 0, m.Distance(src, dst)), src, dst)
}

// AppendRoute implements Network.
func (m *Mesh) AppendRoute(buf []Node, src, dst Node) []Node {
	x, y := m.Coord(src)
	dx, dy := m.Coord(dst)
	for x != dx {
		x += sign(dx - x)
		buf = append(buf, m.NodeAt(x, y))
	}
	for y != dy {
		y += sign(dy - y)
		buf = append(buf, m.NodeAt(x, y))
	}
	return buf
}

// Name implements Network.
func (m *Mesh) Name() string { return fmt.Sprintf("mesh %dx%d", m.k, m.k) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
