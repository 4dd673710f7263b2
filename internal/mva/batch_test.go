package mva

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lattol/internal/queueing"
)

// batchLane is one operating point of the batch tests: a single-class closed
// network over a fixed station count.
type batchLane struct {
	visits  []float64
	service []float64
	servers []float64
	pop     int
}

func randomBatchLane(rng *rand.Rand, n int) batchLane {
	l := batchLane{
		visits:  make([]float64, n),
		service: make([]float64, n),
		servers: make([]float64, n),
		pop:     1 + rng.Intn(16),
	}
	for i := 0; i < n; i++ {
		l.visits[i] = 0.1 + 2*rng.Float64()
		l.service[i] = 0.5 + 5*rng.Float64()
		l.servers[i] = 1
		if rng.Intn(3) == 0 {
			l.servers[i] = float64(1 + rng.Intn(4))
		}
	}
	return l
}

func (l batchLane) network() *queueing.Network {
	n := len(l.visits)
	net := &queueing.Network{
		Stations: make([]queueing.Station, n),
		Classes:  make([]queueing.Class, 1),
	}
	for i := 0; i < n; i++ {
		net.Stations[i] = queueing.Station{
			Kind:        queueing.FCFS,
			ServiceTime: l.service[i],
			Servers:     int(l.servers[i]),
		}
	}
	net.Classes[0] = queueing.Class{Population: l.pop, Visits: l.visits}
	return net
}

// fillBatch loads lanes into a workspace with singleton groups (the plain
// single-class degenerate case of the grouped iteration).
func fillBatch(bw *BatchWorkspace, lanes []batchLane) {
	n := len(lanes[0].visits)
	bw.Reset(len(lanes), n, n)
	for i := 0; i < n; i++ {
		bw.SetGroup(i, i)
	}
	for b, l := range lanes {
		bw.SetPopulation(b, float64(l.pop))
		for i := 0; i < n; i++ {
			bw.Set(i, b, l.visits[i], l.service[i], l.servers[i])
		}
	}
}

// TestBatchMatchesScalarSingleClass pins the batch kernel to the scalar
// Bard–Schweitzer solver: every lane's throughput and residence times must
// agree with an independent single-class ApproxMultiClass solve at 1e-9 when
// both iterate to a 1e-12 residual.
func TestBatchMatchesScalarSingleClass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const B, n = 17, 6
	lanes := make([]batchLane, B)
	for b := range lanes {
		lanes[b] = randomBatchLane(rng, n)
	}
	var bw BatchWorkspace
	fillBatch(&bw, lanes)
	bw.Run(BatchOptions{Tolerance: 1e-12})

	var sw Workspace
	for b, l := range lanes {
		if err := bw.Err(b); err != nil {
			t.Fatalf("lane %d: %v", b, err)
		}
		res, err := sw.ApproxMultiClass(l.network(), AMVAOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("scalar lane %d: %v", b, err)
		}
		if d := relDiff(bw.Lambda(b), res.Throughput[0]); d > 1e-9 {
			t.Errorf("lane %d: batch λ=%v scalar λ=%v (rel %g)", b, bw.Lambda(b), res.Throughput[0], d)
		}
		for i := 0; i < n; i++ {
			if d := relDiff(bw.Residence(i, b), res.Wait[0][i]); d > 1e-9 {
				t.Errorf("lane %d station %d: batch w=%v scalar w=%v (rel %g)",
					b, i, bw.Residence(i, b), res.Wait[0][i], d)
			}
		}
		if bw.Iterations(b) <= 0 {
			t.Errorf("lane %d: iterations = %d, want > 0", b, bw.Iterations(b))
		}
	}
}

// TestBatchWarmContinuation reruns an identical batch with WarmStart: the
// warm seed (the previous batch's converged solution) must not change the
// fixed point and must converge in fewer total iterations than the cold run.
func TestBatchWarmContinuation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const B, n = 9, 5
	lanes := make([]batchLane, B)
	for b := range lanes {
		lanes[b] = randomBatchLane(rng, n)
	}
	var bw BatchWorkspace
	fillBatch(&bw, lanes)
	bw.Run(BatchOptions{})
	coldIters := 0
	coldLambda := make([]float64, B)
	for b := 0; b < B; b++ {
		if err := bw.Err(b); err != nil {
			t.Fatalf("cold lane %d: %v", b, err)
		}
		coldIters += bw.Iterations(b)
		coldLambda[b] = bw.Lambda(b)
	}

	fillBatch(&bw, lanes)
	bw.Run(BatchOptions{WarmStart: true})
	warmIters := 0
	for b := 0; b < B; b++ {
		if err := bw.Err(b); err != nil {
			t.Fatalf("warm lane %d: %v", b, err)
		}
		warmIters += bw.Iterations(b)
		if d := relDiff(bw.Lambda(b), coldLambda[b]); d > 1e-9 {
			t.Errorf("lane %d: warm λ=%v cold λ=%v (rel %g)", b, bw.Lambda(b), coldLambda[b], d)
		}
	}
	if warmIters >= coldIters {
		t.Errorf("warm run took %d total iterations, cold took %d; want fewer", warmIters, coldIters)
	}
}

// TestBatchColdRunIgnoresHistory runs a batch without WarmStart on a
// workspace that just converged a same-shape batch: every lane must match a
// fresh workspace's run bit for bit, iterations included.
func TestBatchColdRunIgnoresHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const B, n = 6, 5
	before, lanes := make([]batchLane, B), make([]batchLane, B)
	for b := range lanes {
		before[b] = randomBatchLane(rng, n)
		lanes[b] = randomBatchLane(rng, n)
	}
	var used, fresh BatchWorkspace
	fillBatch(&used, before)
	used.Run(BatchOptions{})
	fillBatch(&used, lanes)
	used.Run(BatchOptions{})
	fillBatch(&fresh, lanes)
	fresh.Run(BatchOptions{})
	for b := 0; b < B; b++ {
		if used.Err(b) != nil || fresh.Err(b) != nil {
			t.Fatalf("lane %d: used err %v, fresh err %v", b, used.Err(b), fresh.Err(b))
		}
		if used.Iterations(b) != fresh.Iterations(b) || used.Lambda(b) != fresh.Lambda(b) {
			t.Errorf("lane %d: used (%d iters, λ=%v), fresh (%d iters, λ=%v)",
				b, used.Iterations(b), used.Lambda(b), fresh.Iterations(b), fresh.Lambda(b))
		}
		for i := 0; i < n; i++ {
			if used.Residence(i, b) != fresh.Residence(i, b) {
				t.Errorf("lane %d station %d: used w=%v fresh w=%v", b, i, used.Residence(i, b), fresh.Residence(i, b))
			}
		}
	}
}

// TestBatchColdLanesIndependent: a cold lane's answer depends on nothing but
// its own inputs, so a B-lane cold Run matches B one-lane cold Runs bit for
// bit, iteration counts included.
func TestBatchColdLanesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const B, n = 24, 5
	lanes := make([]batchLane, B)
	for b := range lanes {
		lanes[b] = randomBatchLane(rng, n)
	}
	var wide, solo BatchWorkspace
	fillBatch(&wide, lanes)
	wide.Run(BatchOptions{})
	for b, l := range lanes {
		fillBatch(&solo, []batchLane{l})
		solo.Run(BatchOptions{})
		if wide.Err(b) != nil || solo.Err(0) != nil {
			t.Fatalf("lane %d: batch err %v, solo err %v", b, wide.Err(b), solo.Err(0))
		}
		if wide.Iterations(b) != solo.Iterations(0) || wide.Lambda(b) != solo.Lambda(0) {
			t.Errorf("lane %d: batch (%d iters, λ=%v), solo (%d iters, λ=%v)",
				b, wide.Iterations(b), wide.Lambda(b), solo.Iterations(0), solo.Lambda(0))
		}
		for i := 0; i < n; i++ {
			if wide.Residence(i, b) != solo.Residence(i, 0) {
				t.Errorf("lane %d station %d: batch w=%v solo w=%v", b, i, wide.Residence(i, b), solo.Residence(i, 0))
			}
		}
	}
}

// TestBatchLaneFailureIsolation plants two broken lanes — an invalid
// population and a zero-demand lane in the first column — between healthy
// ones: the bad lanes fail positionally, the healthy lanes still match the
// scalar solver.
func TestBatchLaneFailureIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const B, n = 5, 4
	lanes := make([]batchLane, B)
	for b := range lanes {
		lanes[b] = randomBatchLane(rng, n)
	}
	// Lane 0 has no demand at all: it fails on its first sweep, inside the
	// lockstep loop, while its neighbors keep iterating.
	for i := range lanes[0].visits {
		lanes[0].visits[i] = 0
	}
	var bw BatchWorkspace
	fillBatch(&bw, lanes)
	bw.SetPopulation(3, 0) // lane 3: invalid population

	bw.Run(BatchOptions{Tolerance: 1e-12})
	if err := bw.Err(0); err == nil {
		t.Error("zero-demand lane 0 converged, want error")
	}
	if err := bw.Err(3); err == nil {
		t.Error("zero-population lane 3 converged, want error")
	}
	var sw Workspace
	for _, b := range []int{1, 2, 4} {
		if err := bw.Err(b); err != nil {
			t.Fatalf("healthy lane %d: %v", b, err)
		}
		res, err := sw.ApproxMultiClass(lanes[b].network(), AMVAOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("scalar lane %d: %v", b, err)
		}
		if d := relDiff(bw.Lambda(b), res.Throughput[0]); d > 1e-9 {
			t.Errorf("lane %d: batch λ=%v scalar λ=%v (rel %g)", b, bw.Lambda(b), res.Throughput[0], d)
		}
		if !math.IsInf(bw.Lambda(b), 0) && math.IsNaN(bw.Lambda(b)) {
			t.Errorf("lane %d: λ = %v", b, bw.Lambda(b))
		}
	}
}

// TestBatchNonConvergence caps the budget at one iteration: every lane must
// report a NonConvergenceError carrying that count.
func TestBatchNonConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lanes := make([]batchLane, 3)
	for b := range lanes {
		lanes[b] = randomBatchLane(rng, 4)
	}
	var bw BatchWorkspace
	fillBatch(&bw, lanes)
	bw.Run(BatchOptions{MaxIterations: 1})
	for b := range lanes {
		var nc *NonConvergenceError
		if err := bw.Err(b); !errors.As(err, &nc) {
			t.Fatalf("lane %d: err = %v, want NonConvergenceError", b, err)
		} else if nc.Iterations != 1 {
			t.Errorf("lane %d: Iterations = %d, want 1", b, nc.Iterations)
		}
	}
}

// TestBatchRunAllocates0 pins the steady-state allocation contract: refilling
// and rerunning a reused workspace allocates nothing.
func TestBatchRunAllocates0(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const B, n = 8, 5
	lanes := make([]batchLane, B)
	for b := range lanes {
		lanes[b] = randomBatchLane(rng, n)
	}
	var bw BatchWorkspace
	fillBatch(&bw, lanes)
	bw.Run(BatchOptions{})
	allocs := testing.AllocsPerRun(50, func() {
		fillBatch(&bw, lanes)
		bw.Run(BatchOptions{})
		if err := bw.Err(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batch run allocates %v allocs/op, want 0", allocs)
	}
}
