package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshValidation(t *testing.T) {
	if _, err := NewMesh(0); err == nil {
		t.Error("want error for k=0")
	}
	if m := MustMesh(3); m.K() != 3 || m.Nodes() != 9 {
		t.Error("mesh dimensions")
	}
}

func TestMeshDistance(t *testing.T) {
	m := MustMesh(4)
	cases := []struct {
		a, b Node
		want int
	}{
		{0, 0, 0},
		{0, 3, 3},  // no wraparound: full row
		{0, 12, 3}, // full column
		{0, 15, 6}, // corner to corner
		{5, 10, 2},
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if m.MaxDistance() != 6 {
		t.Errorf("MaxDistance = %d, want 6", m.MaxDistance())
	}
}

func TestMeshFartherThanTorus(t *testing.T) {
	// Removing wraparound can only lengthen distances, and lengthens some.
	mesh := MustMesh(5)
	torus := MustTorus(5)
	meshSum, torusSum := 0, 0
	for a := 0; a < mesh.Nodes(); a++ {
		for b := 0; b < mesh.Nodes(); b++ {
			dm, dt := mesh.Distance(Node(a), Node(b)), torus.Distance(Node(a), Node(b))
			if dm < dt {
				t.Fatalf("mesh shorter than torus for (%d,%d)", a, b)
			}
			meshSum += dm
			torusSum += dt
		}
	}
	if meshSum <= torusSum {
		t.Error("mesh mean distance should exceed torus")
	}
}

func TestMeshRouteProperties(t *testing.T) {
	m := MustMesh(4)
	for a := 0; a < m.Nodes(); a++ {
		for b := 0; b < m.Nodes(); b++ {
			route := m.Route(Node(a), Node(b))
			if len(route) != m.Distance(Node(a), Node(b)) {
				t.Fatalf("route length mismatch (%d,%d)", a, b)
			}
			prev := Node(a)
			for _, hop := range route {
				if m.Distance(prev, hop) != 1 {
					t.Fatalf("non-adjacent hop on route (%d,%d)", a, b)
				}
				prev = hop
			}
			if len(route) > 0 && route[len(route)-1] != Node(b) {
				t.Fatalf("route (%d,%d) ends at %d", a, b, route[len(route)-1])
			}
		}
	}
}

func TestMeshDistanceSymmetric(t *testing.T) {
	f := func(kRaw uint8, aRaw, bRaw uint16) bool {
		k := int(kRaw%8) + 1
		m := MustMesh(k)
		a := Node(int(aRaw) % m.Nodes())
		b := Node(int(bRaw) % m.Nodes())
		return m.Distance(a, b) == m.Distance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeshNotVertexTransitive(t *testing.T) {
	// A corner's eccentricity exceeds the center's: the mesh must not be
	// treated as symmetric.
	m := MustMesh(5)
	ecc := func(n Node) int {
		max := 0
		for b := 0; b < m.Nodes(); b++ {
			if d := m.Distance(n, Node(b)); d > max {
				max = d
			}
		}
		return max
	}
	corner := ecc(0)
	center := ecc(m.NodeAt(2, 2))
	if corner <= center {
		t.Errorf("corner eccentricity %d not above center %d", corner, center)
	}
}

func TestMeshNodeAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	MustMesh(3).NodeAt(3, 0)
}

func TestNetworkInterfaceNames(t *testing.T) {
	var n Network = MustTorus(4)
	if n.Name() != "torus 4x4" {
		t.Errorf("torus name %q", n.Name())
	}
	n = MustMesh(4)
	if n.Name() != "mesh 4x4" {
		t.Errorf("mesh name %q", n.Name())
	}
}
