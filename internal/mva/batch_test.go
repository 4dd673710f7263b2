package mva

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lattol/internal/queueing"
)

// kernelPoint is one operating point of the kernel tests: a single-class
// closed network over a fixed station count.
type kernelPoint struct {
	visits  []float64
	service []float64
	servers []float64
	pop     float64
}

func randomPoint(rng *rand.Rand, n int) kernelPoint {
	l := kernelPoint{
		visits:  make([]float64, n),
		service: make([]float64, n),
		servers: make([]float64, n),
		pop:     float64(1 + rng.Intn(16)),
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

func randomPoints(seed int64, count, n int) []kernelPoint {
	rng := rand.New(rand.NewSource(seed))
	points := make([]kernelPoint, count)
	for b := range points {
		points[b] = randomPoint(rng, n)
	}
	return points
}

func (l kernelPoint) network() *queueing.Network {
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
	net.Classes[0] = queueing.Class{Population: int(l.pop), Visits: l.visits}
	return net
}

// solve loads l into k with singleton groups (the plain single-class
// degenerate case of the grouped iteration) and solves it from seed.
func (l kernelPoint) solve(k *Kernel, seed []float64, tol float64, maxIter int) (float64, int, error) {
	n := len(l.visits)
	k.Reset(n, n)
	for i := 0; i < n; i++ {
		k.SetRow(i, i, l.visits[i], l.service[i], l.servers[i], 1)
	}
	return k.Solve(l.pop, seed, tol, maxIter)
}

// TestBatchMatchesScalarSingleClass pins the kernel to the scalar
// Bard–Schweitzer solver: every point's throughput and residence times must
// agree with an independent single-class ApproxMultiClass solve at 1e-9 when
// both iterate to a 1e-12 residual.
func TestBatchMatchesScalarSingleClass(t *testing.T) {
	const n = 6
	var k Kernel
	var sw Workspace
	for b, l := range randomPoints(1, 17, n) {
		lambda, iters, err := l.solve(&k, nil, 1e-12, DefaultMaxIterations)
		if err != nil {
			t.Fatalf("point %d: %v", b, err)
		}
		res, err := sw.ApproxMultiClass(l.network(), AMVAOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("scalar point %d: %v", b, err)
		}
		if d := relDiff(lambda, res.Throughput[0]); d > 1e-9 {
			t.Errorf("point %d: kernel λ=%v scalar λ=%v (rel %g)", b, lambda, res.Throughput[0], d)
		}
		for i := 0; i < n; i++ {
			if d := relDiff(k.Residence(i), res.Wait[0][i]); d > 1e-9 {
				t.Errorf("point %d station %d: kernel w=%v scalar w=%v (rel %g)",
					b, i, k.Residence(i), res.Wait[0][i], d)
			}
		}
		if iters <= 0 {
			t.Errorf("point %d: iterations = %d, want > 0", b, iters)
		}
	}
}

// TestBatchWarmContinuation solves points cold, then again seeded from the
// cold pass's last converged group totals (one per row: the points use
// singleton groups): the seed must not change the fixed point and must
// converge in fewer total iterations than the cold pass.
func TestBatchWarmContinuation(t *testing.T) {
	points := randomPoints(7, 9, 5)
	var k Kernel
	seed := make([]float64, 5)
	coldIters := 0
	coldLambda := make([]float64, len(points))
	for b, l := range points {
		lambda, iters, err := l.solve(&k, nil, DefaultTolerance, DefaultMaxIterations)
		if err != nil {
			t.Fatalf("cold point %d: %v", b, err)
		}
		coldIters += iters
		coldLambda[b] = lambda
		k.Totals(seed)
	}

	warmIters := 0
	for b, l := range points {
		lambda, iters, err := l.solve(&k, seed, DefaultTolerance, DefaultMaxIterations)
		if err != nil {
			t.Fatalf("warm point %d: %v", b, err)
		}
		warmIters += iters
		if d := relDiff(lambda, coldLambda[b]); d > 1e-9 {
			t.Errorf("point %d: warm λ=%v cold λ=%v (rel %g)", b, lambda, coldLambda[b], d)
		}
	}
	if warmIters >= coldIters {
		t.Errorf("warm pass took %d total iterations, cold took %d; want fewer", warmIters, coldIters)
	}
}

// TestBatchColdRunIgnoresHistory solves points cold on a kernel that has
// just solved other points, cold and seeded: every answer must match a fresh
// kernel's bit for bit, iterations included.
func TestBatchColdRunIgnoresHistory(t *testing.T) {
	const n = 5
	before, points := randomPoints(9, 6, n), randomPoints(10, 6, n)
	var used Kernel
	for b, l := range before {
		if _, _, err := l.solve(&used, nil, DefaultTolerance, DefaultMaxIterations); err != nil {
			t.Fatalf("history point %d: %v", b, err)
		}
		seed := make([]float64, n)
		used.Totals(seed)
		if _, _, err := l.solve(&used, seed, DefaultTolerance, DefaultMaxIterations); err != nil {
			t.Fatalf("seeded history point %d: %v", b, err)
		}
	}
	for b, l := range points {
		var fresh Kernel
		uLambda, uIters, uErr := l.solve(&used, nil, DefaultTolerance, DefaultMaxIterations)
		fLambda, fIters, fErr := l.solve(&fresh, nil, DefaultTolerance, DefaultMaxIterations)
		if uErr != nil || fErr != nil {
			t.Fatalf("point %d: used err %v, fresh err %v", b, uErr, fErr)
		}
		if uIters != fIters || uLambda != fLambda {
			t.Errorf("point %d: used (%d iters, λ=%v), fresh (%d iters, λ=%v)", b, uIters, uLambda, fIters, fLambda)
		}
		for i := 0; i < n; i++ {
			if used.Residence(i) != fresh.Residence(i) {
				t.Errorf("point %d station %d: used w=%v fresh w=%v", b, i, used.Residence(i), fresh.Residence(i))
			}
		}
	}
}

// TestKernelOvershootingSeedConverges seeds a two-station point with its
// whole population on the lighter station. The first leg-2 extrapolant puts
// more than the population on one station and is negative on the other (a
// sweep's weighted queue lengths sum to the population), so the step is
// repaired to the plain one, and the solve still lands on the cold fixed
// point.
func TestKernelOvershootingSeedConverges(t *testing.T) {
	l := kernelPoint{visits: []float64{1, 0.5}, service: []float64{2, 3}, servers: []float64{1, 1}, pop: 10}
	var k Kernel
	cold, _, err := l.solve(&k, nil, DefaultTolerance, DefaultMaxIterations)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := l.solve(&k, []float64{0, 10}, DefaultTolerance, DefaultMaxIterations)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(warm, cold); d > 1e-9 {
		t.Errorf("seeded λ=%v cold λ=%v (rel %g)", warm, cold, d)
	}
}

// groupedPoint loads a point of two queue-length groups: rows visits of
// group 0 on even rows and group 1 on odd ones, with weights 1, 2, 3, ….
func groupedPoint(k *Kernel, visits []float64) {
	k.Reset(len(visits), 2)
	for i, v := range visits {
		k.SetRow(i, i%2, v, 1+float64(i%3), float64(1+i%2), float64(1+i))
	}
}

// TestKernelSeedAcrossRowCounts continues from a point with another row
// count: the 4-row point's group totals seed a 7-row point of the same two
// groups, which must land on its cold fixed point (λ and every residence
// time within 1e-9) in fewer iterations than the cold solve.
func TestKernelSeedAcrossRowCounts(t *testing.T) {
	var k Kernel
	small := []float64{1, 0.5, 0.75, 0.25}
	large := []float64{1, 0.5, 0.7, 0.3, 0, 0.2, 0.6}
	groupedPoint(&k, large)
	cold, coldIters, err := k.Solve(9, nil, DefaultTolerance, DefaultMaxIterations)
	if err != nil {
		t.Fatal(err)
	}
	coldW := make([]float64, len(large))
	for i := range coldW {
		coldW[i] = k.Residence(i)
	}
	groupedPoint(&k, small)
	if _, _, err := k.Solve(8, nil, DefaultTolerance, DefaultMaxIterations); err != nil {
		t.Fatal(err)
	}
	seed := make([]float64, 2)
	k.Totals(seed)
	groupedPoint(&k, large)
	warm, warmIters, err := k.Solve(9, seed, DefaultTolerance, DefaultMaxIterations)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(warm, cold); d > 1e-9 {
		t.Errorf("seeded λ=%v cold λ=%v (rel %g)", warm, cold, d)
	}
	for i, w := range coldW {
		if d := relDiff(k.Residence(i), w); d > 1e-9 {
			t.Errorf("row %d: seeded w=%v cold w=%v (rel %g)", i, k.Residence(i), w, d)
		}
	}
	if warmIters >= coldIters {
		t.Errorf("seeded solve took %d iterations, cold %d; want fewer", warmIters, coldIters)
	}
}

// TestKernelEmptySeedStartsCold: a seed that puts nothing on a visited row —
// all zero, or all on a group none of whose rows is visited — starts cold,
// bit for bit, iterations included.
func TestKernelEmptySeedStartsCold(t *testing.T) {
	var k Kernel
	visits := []float64{0.8, 0, 0.4, 0}
	groupedPoint(&k, visits)
	cold, coldIters, err := k.Solve(5, nil, DefaultTolerance, DefaultMaxIterations)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range [][]float64{{0, 0}, {0, 3}} {
		groupedPoint(&k, visits)
		got, iters, err := k.Solve(5, seed, DefaultTolerance, DefaultMaxIterations)
		if err != nil || got != cold || iters != coldIters {
			t.Errorf("seed %v: λ=%v in %d iterations (err %v), want the cold λ=%v in %d", seed, got, iters, err, cold, coldIters)
		}
	}
}

// TestBatchLaneFailureIsolation solves broken points — population 0, −1,
// NaN and +Inf, and zero demand — each after a healthy one on one kernel:
// each broken point fails with λ and every residence time zero, and each
// healthy one, the ones after a failure included, matches the scalar solver.
func TestBatchLaneFailureIsolation(t *testing.T) {
	const n = 4
	points := randomPoints(3, 5, n)
	broken := append([]kernelPoint(nil), points...)
	for b, pop := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		broken[b].pop = pop
	}
	broken[4].visits = make([]float64, n) // no demand at all
	var k Kernel
	var sw Workspace
	for b, l := range points {
		res, err := sw.ApproxMultiClass(l.network(), AMVAOptions{Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("scalar point %d: %v", b, err)
		}
		lambda, _, err := l.solve(&k, nil, 1e-12, DefaultMaxIterations)
		if err != nil {
			t.Fatalf("healthy point %d: %v", b, err)
		}
		if d := relDiff(lambda, res.Throughput[0]); d > 1e-9 {
			t.Errorf("point %d: kernel λ=%v scalar λ=%v (rel %g)", b, lambda, res.Throughput[0], d)
		}
		if lambda, _, err = broken[b].solve(&k, nil, 1e-12, DefaultMaxIterations); err == nil || lambda != 0 {
			t.Errorf("broken point %d: λ=%v err %v, want a failure", b, lambda, err)
		}
		for i := 0; i < n; i++ {
			if w := k.Residence(i); w != 0 {
				t.Errorf("broken point %d station %d: w=%v, want 0", b, i, w)
			}
		}
	}
}

// TestBatchNonConvergence caps the budget at one iteration: every point must
// report a NonConvergenceError carrying that count.
func TestBatchNonConvergence(t *testing.T) {
	var k Kernel
	for b, l := range randomPoints(5, 3, 4) {
		var nc *NonConvergenceError
		if _, _, err := l.solve(&k, nil, DefaultTolerance, 1); !errors.As(err, &nc) {
			t.Fatalf("point %d: err = %v, want NonConvergenceError", b, err)
		} else if nc.Iterations != 1 {
			t.Errorf("point %d: Iterations = %d, want 1", b, nc.Iterations)
		}
	}
}

// TestBatchRunAllocates0 pins the steady-state allocation contract:
// reloading and resolving a reused kernel, cold and seeded, allocates
// nothing.
func TestBatchRunAllocates0(t *testing.T) {
	points := randomPoints(11, 8, 5)
	var k Kernel
	seed := make([]float64, 5)
	run := func() {
		for _, l := range points {
			if _, _, err := l.solve(&k, nil, DefaultTolerance, DefaultMaxIterations); err != nil {
				t.Fatal(err)
			}
			k.Totals(seed)
			if _, _, err := l.solve(&k, seed, DefaultTolerance, DefaultMaxIterations); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("kernel solves allocate %v allocs/op, want 0", allocs)
	}
}
