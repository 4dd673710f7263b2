package access

import (
	"math"
	"testing"

	"lattol/internal/topology"
)

func TestGeometricOnTorusMatchesGeometric(t *testing.T) {
	// On a vertex-transitive network the per-origin construction must
	// reproduce the translation-invariant one exactly.
	tor := topology.MustTorus(4)
	a := mustGeometric(tor, 0.5, PerDistance)
	b, err := NewGeometricOn(tor, 0.5, PerDistance)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < tor.Nodes(); src++ {
		for dst := 0; dst < tor.Nodes(); dst++ {
			pa := a.Prob(topology.Node(src), topology.Node(dst))
			pb := b.Prob(topology.Node(src), topology.Node(dst))
			if math.Abs(pa-pb) > 1e-12 {
				t.Fatalf("Prob(%d,%d): %v vs %v", src, dst, pa, pb)
			}
		}
	}
	if math.Abs(a.MeanDistance()-b.MeanDistance()) > 1e-12 {
		t.Errorf("d_avg %v vs %v", a.MeanDistance(), b.MeanDistance())
	}
}

func TestGeometricOnMeshSumsToOne(t *testing.T) {
	mesh := topology.MustMesh(4)
	for _, mode := range []GeometricMode{PerDistance, PerNode} {
		g, err := NewGeometricOn(mesh, 0.5, mode)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < mesh.Nodes(); src++ {
			var sum float64
			for dst := 0; dst < mesh.Nodes(); dst++ {
				sum += g.Prob(topology.Node(src), topology.Node(dst))
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("mode %v src %d: probs sum to %v", mode, src, sum)
			}
		}
	}
}

func TestGeometricOnMeshPerOriginDiffers(t *testing.T) {
	// The mesh is not vertex-transitive: a corner's mean remote distance
	// exceeds the center's.
	mesh := topology.MustMesh(5)
	g, err := NewGeometricOn(mesh, 0.5, PerDistance)
	if err != nil {
		t.Fatal(err)
	}
	corner := g.MeanDistanceFrom(0)
	center := g.MeanDistanceFrom(mesh.NodeAt(2, 2))
	if corner <= center {
		t.Errorf("corner d_avg %v not above center %v", corner, center)
	}
	// The average sits between.
	if g.MeanDistance() < center || g.MeanDistance() > corner {
		t.Errorf("mean d_avg %v outside [%v, %v]", g.MeanDistance(), center, corner)
	}
}

func TestGeometricOnValidation(t *testing.T) {
	mesh := topology.MustMesh(2)
	if _, err := NewGeometricOn(topology.MustMesh(1), 0.5, PerDistance); err == nil {
		t.Error("want error for 1-node network")
	}
	if _, err := NewGeometricOn(mesh, 0, PerDistance); err == nil {
		t.Error("want error for p_sw=0")
	}
	if _, err := NewGeometricOn(mesh, 0.5, GeometricMode(9)); err == nil {
		t.Error("want error for bad mode")
	}
}

func TestGeneralNames(t *testing.T) {
	mesh := topology.MustMesh(3)
	g, err := NewGeometricOn(mesh, 0.5, PerDistance)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "geometric(p_sw=0.5, per-distance) on mesh 3x3" {
		t.Errorf("name %q", g.Name())
	}
}
