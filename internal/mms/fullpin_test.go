package mms

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"testing"

	"lattol/internal/mva"
	"lattol/internal/topology"
)

// pinFloats folds float64 bits into the digest.
func pinFloats(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// pinOutcome folds an iteration count and an error into the digest.
func pinOutcome(h hash.Hash, iters int, err error) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(iters))
	h.Write(buf[:])
	if err != nil {
		h.Write([]byte(err.Error()))
		var nc *mva.NonConvergenceError
		if errors.As(err, &nc) {
			pinFloats(h, nc.MaxDelta)
		}
	}
	h.Write([]byte{0})
}

// TestFullAMVAPinned pins the full multiclass AMVA's answers bit for bit,
// as TestSolveBatchPinned does for the symmetric kernel: a change to
// mva.ApproxMultiClass's loop must reproduce every metric, iteration count
// and error text exactly, or bump mva.SolverVersion and this digest
// together. The corpus is 24 symmetric configurations solved as FullAMVA
// (golden-ratio scatter over K ∈ {2, 3, 4}), hot spot at f = 0.1, 0.3 and
// 0.5, load imbalance at spread 2 and 8 and a 4×4 mesh, each solved cold and
// then warm on one workspace, plus one MaxIterations cap.
func TestFullAMVAPinned(t *testing.T) {
	const want = "763e9a9655912e8be5ab092d783d1a65579063c8118539fd12aef5da3d439811"
	const phi = 0.6180339887498949
	h := sha256.New()
	ws := new(Workspace)

	var models []*Model
	for i := 0; i < 24; i++ {
		_, f1 := math.Modf(float64(i) * phi)
		_, f2 := math.Modf(float64(i) * phi * phi)
		_, f3 := math.Modf(float64(i) * phi * phi * phi)
		cfg := DefaultConfig()
		cfg.K = 2 + i%3
		cfg.Threads = 1 + int(10*f1)
		cfg.Runlength = 5 + 25*f2
		cfg.PRemote = 0.05 + 0.85*f3
		cfg.Uniform = i%7 == 0
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for _, warm := range []bool{false, true} {
		for _, m := range models {
			met, err := m.Solve(SolveOptions{Solver: FullAMVA, Workspace: ws, WarmStart: warm})
			if err != nil {
				t.Errorf("%+v: %v", m.Config(), err)
			}
			pinFloats(h, met.Up, met.LObs, met.SObs, met.CycleTime, met.MemUtilization, met.OutUtilization, met.InUtilization)
			pinOutcome(h, met.Iterations, err)
		}
	}

	cfg := DefaultConfig()
	cfg.PRemote = 0.4
	var pes []*PEModel
	for _, f := range []float64{0.1, 0.3, 0.5} {
		m, err := BuildHotSpot(cfg, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		pes = append(pes, m)
	}
	tor := topology.MustTorus(4)
	for _, spread := range []int{2, 8} {
		threads, err := Imbalance(tor, tor.Nodes()*8, spread)
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildHeterogeneous(DefaultConfig(), threads)
		if err != nil {
			t.Fatal(err)
		}
		pes = append(pes, m)
	}
	mesh, err := BuildOnTopology(cfg, topology.MustMesh(4))
	if err != nil {
		t.Fatal(err)
	}
	pes = append(pes, mesh)
	for _, warm := range []bool{false, true} {
		for _, m := range pes {
			met, err := m.Solve(SolveOptions{Workspace: ws, WarmStart: warm})
			if err != nil {
				t.Error(err)
			}
			pinFloats(h, met.PerClassUp...)
			pinFloats(h, met.MemUtilization...)
			pinFloats(h, met.TotalThroughput, met.MeanSObs, met.MeanLObs)
			pinOutcome(h, met.Iterations, err)
		}
	}

	// The iteration cap pins NonConvergenceError's count and residual.
	met, err := pes[2].Solve(SolveOptions{Workspace: ws, MaxIterations: 9})
	var nc *mva.NonConvergenceError
	if !errors.As(err, &nc) {
		t.Fatalf("capped solve: err %v, want a NonConvergenceError", err)
	}
	pinOutcome(h, met.Iterations, err)

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
