package topology

import "testing"

// nodesAtDistance returns the nodes at exactly h hops from origin, in
// ascending node order.
func nodesAtDistance(t *Torus, origin Node, h int) []Node {
	var out []Node
	for n := 0; n < t.Nodes(); n++ {
		if t.Distance(origin, Node(n)) == h {
			out = append(out, Node(n))
		}
	}
	return out
}

func TestNodesAtDistance(t *testing.T) {
	tor := MustTorus(4)
	// Distance-1 neighbors of node 0 on a 4x4 torus: 1, 3 (x-ring), 4, 12
	// (y-ring).
	got := nodesAtDistance(tor, 0, 1)
	want := map[Node]bool{1: true, 3: true, 4: true, 12: true}
	if len(got) != 4 {
		t.Fatalf("neighbors %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected neighbor %d", n)
		}
	}
	if len(nodesAtDistance(tor, 0, 0)) != 1 {
		t.Error("distance 0 should return only the origin")
	}
	// Counts must agree with the histogram at every distance.
	hist := tor.DistanceHistogram()
	for h, count := range hist {
		if got := len(nodesAtDistance(tor, 5, h)); got != count {
			t.Errorf("h=%d: %d nodes, histogram says %d", h, got, count)
		}
	}
}

func TestKAccessors(t *testing.T) {
	if MustTorus(7).K() != 7 || MustMesh(6).K() != 6 {
		t.Error("K accessors")
	}
}

func TestMustConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"torus": func() { MustTorus(0) },
		"mesh":  func() { MustMesh(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Must%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSingleNodeDegenerates(t *testing.T) {
	if MustTorus(1).MeanDistanceUniform() != 0 {
		t.Error("1-node torus mean distance")
	}
}

func TestRingStepBothDirections(t *testing.T) {
	// On a 5-ring from 0: going to 1 steps +1, to 4 steps -1, to 0 steps 0.
	tor := MustTorus(5)
	if r := tor.Route(0, 4); len(r) != 1 || r[0] != 4 {
		t.Errorf("wraparound route %v", r)
	}
	if r := tor.Route(4, 0); len(r) != 1 || r[0] != 0 {
		t.Errorf("reverse wraparound route %v", r)
	}
}

func TestMeshRouteSelfAndSign(t *testing.T) {
	m := MustMesh(3)
	if r := m.Route(4, 4); len(r) != 0 {
		t.Errorf("self route %v", r)
	}
	// Negative-direction routes exercise sign(-1).
	r := m.Route(m.NodeAt(2, 2), m.NodeAt(0, 0))
	if len(r) != 4 || r[len(r)-1] != 0 {
		t.Errorf("reverse diagonal route %v", r)
	}
}

// TestAppendRouteMatchesRoute pins AppendRoute to Route for every node pair
// on tori and meshes up to k = 7, appended after a prefix that must survive
// untouched.
func TestAppendRouteMatchesRoute(t *testing.T) {
	for k := 1; k <= 7; k++ {
		for _, net := range []Network{MustTorus(k), MustMesh(k)} {
			for a := 0; a < net.Nodes(); a++ {
				for b := 0; b < net.Nodes(); b++ {
					src, dst := Node(a), Node(b)
					want := net.Route(src, dst)
					got := net.AppendRoute([]Node{-1}, src, dst)
					if len(got) != 1+len(want) || got[0] != -1 {
						t.Fatalf("%s: AppendRoute([-1], %d, %d) = %v, want [-1] + %v", net.Name(), a, b, got, want)
					}
					for i, hop := range want {
						if got[1+i] != hop {
							t.Fatalf("%s: AppendRoute(%d, %d) = %v, want %v", net.Name(), a, b, got[1:], want)
						}
					}
				}
			}
		}
	}
}
