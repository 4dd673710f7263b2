package access

import (
	"math"
	"testing"
	"testing/quick"

	"lattol/internal/topology"
)

// mustGeometric is NewGeometric for known-good parameters; it panics on
// error.
func mustGeometric(t *topology.Torus, psw float64, mode GeometricMode) *Geometric {
	g, err := NewGeometric(t, psw, mode)
	if err != nil {
		panic(err)
	}
	return g
}

func mustUniform(t *topology.Torus) *Uniform {
	u, err := NewUniform(t)
	if err != nil {
		panic(err)
	}
	return u
}

func sumProbs(p Pattern, t *topology.Torus, src topology.Node) float64 {
	var sum float64
	for n := 0; n < t.Nodes(); n++ {
		sum += p.Prob(src, topology.Node(n))
	}
	return sum
}

func TestGeometricPaperDavg(t *testing.T) {
	// The paper's headline value: k=4, p_sw=0.5, per-distance => d_avg=1.733.
	tor := topology.MustTorus(4)
	g := mustGeometric(tor, 0.5, PerDistance)
	want := 1.7333333333333334 // (0.5 + 2*0.25 + 3*0.125 + 4*0.0625) / 0.9375
	if math.Abs(g.MeanDistance()-want) > 1e-12 {
		t.Errorf("d_avg = %v, want %v", g.MeanDistance(), want)
	}
}

func TestGeometricPerNodeDavg(t *testing.T) {
	// Ablation variant: weights scaled by class size. k=4, p_sw=0.5.
	tor := topology.MustTorus(4)
	g := mustGeometric(tor, 0.5, PerNode)
	want := 6.75 / 4.0625
	if math.Abs(g.MeanDistance()-want) > 1e-12 {
		t.Errorf("d_avg = %v, want %v", g.MeanDistance(), want)
	}
}

func TestGeometricAsymptote(t *testing.T) {
	// As the torus grows, per-distance d_avg approaches 1/(1-p_sw) = 2 for
	// p_sw = 0.5 (paper Section 7).
	tor := topology.MustTorus(20)
	g := mustGeometric(tor, 0.5, PerDistance)
	if d := g.MeanDistance(); math.Abs(d-2) > 0.01 {
		t.Errorf("d_avg = %v, want ~2", d)
	}
}

func TestGeometricSumsToOne(t *testing.T) {
	for _, mode := range []GeometricMode{PerDistance, PerNode} {
		for _, k := range []int{2, 3, 4, 7} {
			tor := topology.MustTorus(k)
			g := mustGeometric(tor, 0.4, mode)
			for src := 0; src < tor.Nodes(); src++ {
				if s := sumProbs(g, tor, topology.Node(src)); math.Abs(s-1) > 1e-9 {
					t.Errorf("mode=%v k=%d src=%d: probs sum to %v", mode, k, src, s)
				}
			}
		}
	}
}

func TestGeometricLocalityOrdering(t *testing.T) {
	// Nearer nodes must be at least as likely as farther ones for psw < 1.
	tor := topology.MustTorus(6)
	g := mustGeometric(tor, 0.5, PerNode)
	near := g.Prob(0, tor.NodeAt(1, 0))
	far := g.Prob(0, tor.NodeAt(3, 3))
	if near <= far {
		t.Errorf("near prob %v <= far prob %v", near, far)
	}
}

func TestGeometricRejectsBadParams(t *testing.T) {
	tor := topology.MustTorus(4)
	for _, psw := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewGeometric(tor, psw, PerDistance); err == nil {
			t.Errorf("p_sw=%v: want error", psw)
		}
	}
	if _, err := NewGeometric(topology.MustTorus(1), 0.5, PerDistance); err == nil {
		t.Error("1-node torus: want error")
	}
	if _, err := NewGeometric(tor, 0.5, GeometricMode(9)); err == nil {
		t.Error("bad mode: want error")
	}
}

func TestGeometricPswOne(t *testing.T) {
	// p_sw = 1 per-node degenerates to uniform.
	tor := topology.MustTorus(4)
	g := mustGeometric(tor, 1, PerNode)
	u := mustUniform(tor)
	for n := 1; n < tor.Nodes(); n++ {
		if math.Abs(g.Prob(0, topology.Node(n))-u.Prob(0, topology.Node(n))) > 1e-12 {
			t.Fatalf("node %d: geometric(1) %v != uniform %v",
				n, g.Prob(0, topology.Node(n)), u.Prob(0, topology.Node(n)))
		}
	}
	if math.Abs(g.MeanDistance()-u.MeanDistance()) > 1e-12 {
		t.Errorf("d_avg: geometric(1) %v != uniform %v", g.MeanDistance(), u.MeanDistance())
	}
}

func TestUniformProperties(t *testing.T) {
	tor := topology.MustTorus(4)
	u := mustUniform(tor)
	if s := sumProbs(u, tor, 0); math.Abs(s-1) > 1e-12 {
		t.Errorf("probs sum to %v", s)
	}
	if p := u.Prob(3, 3); p != 0 {
		t.Errorf("self prob = %v", p)
	}
	want := 32.0 / 15.0
	if math.Abs(u.MeanDistance()-want) > 1e-12 {
		t.Errorf("d_avg = %v, want %v", u.MeanDistance(), want)
	}
}

func TestUniformRejectsTinyTorus(t *testing.T) {
	if _, err := NewUniform(topology.MustTorus(1)); err == nil {
		t.Error("want error for 1-node torus")
	}
}

func TestPatternsAreTranslationInvariant(t *testing.T) {
	// Prob(src,dst) must depend only on the coordinate offset. The symmetric
	// MMS solver depends on this.
	tor := topology.MustTorus(5)
	pats := []Pattern{
		mustGeometric(tor, 0.5, PerDistance),
		mustGeometric(tor, 0.3, PerNode),
		mustUniform(tor),
	}
	f := func(aRaw, bRaw, sRaw uint16) bool {
		a := topology.Node(int(aRaw) % tor.Nodes())
		b := topology.Node(int(bRaw) % tor.Nodes())
		sx, sy := tor.Coord(topology.Node(int(sRaw) % tor.Nodes()))
		ax, ay := tor.Coord(a)
		bx, by := tor.Coord(b)
		a2 := tor.NodeAt(ax+sx, ay+sy)
		b2 := tor.NodeAt(bx+sx, by+sy)
		for _, p := range pats {
			if math.Abs(p.Prob(a, b)-p.Prob(a2, b2)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNames(t *testing.T) {
	tor := topology.MustTorus(4)
	if got := mustGeometric(tor, 0.5, PerDistance).Name(); got != "geometric(p_sw=0.5, per-distance)" {
		t.Errorf("geometric name = %q", got)
	}
	if got := mustUniform(tor).Name(); got != "uniform" {
		t.Errorf("uniform name = %q", got)
	}
}
