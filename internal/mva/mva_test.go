package mva

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lattol/internal/queueing"
)

func singleClassNet(pop int, visits, service []float64) *queueing.Network {
	st := make([]queueing.Station, len(service))
	for i, s := range service {
		st[i] = queueing.Station{Name: "s", Kind: queueing.FCFS, ServiceTime: s}
	}
	return &queueing.Network{
		Stations: st,
		Classes:  []queueing.Class{{Name: "c", Population: pop, Visits: visits}},
	}
}

func TestExactSingleClassHandComputed(t *testing.T) {
	// Stations A(s=1), B(s=2), visits 1 each, N=2:
	// k=1: w=(1,2), λ=1/3, q=(1/3,2/3)
	// k=2: w=(4/3,10/3), cycle=14/3, λ=3/7, q=(4/7,10/7)
	net := singleClassNet(2, []float64{1, 1}, []float64{1, 2})
	r, err := ExactSingleClass(net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput[0]-3.0/7.0) > 1e-12 {
		t.Errorf("λ = %v, want 3/7", r.Throughput[0])
	}
	if math.Abs(r.Wait[0][0]-4.0/3.0) > 1e-12 || math.Abs(r.Wait[0][1]-10.0/3.0) > 1e-12 {
		t.Errorf("w = %v, want (4/3, 10/3)", r.Wait[0])
	}
	if math.Abs(r.QueueLen[0][0]-4.0/7.0) > 1e-12 || math.Abs(r.QueueLen[0][1]-10.0/7.0) > 1e-12 {
		t.Errorf("q = %v, want (4/7, 10/7)", r.QueueLen[0])
	}
	if err := r.CheckLittle(net, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestExactSingleClassBalancedClosedForm(t *testing.T) {
	// Balanced network theorem: M identical FCFS stations of demand D give
	// λ(N) = N / (D·(M+N-1)).
	for _, m := range []int{1, 2, 5} {
		for _, n := range []int{1, 3, 10} {
			visits := make([]float64, m)
			service := make([]float64, m)
			for i := range visits {
				visits[i] = 1
				service[i] = 2.5
			}
			net := singleClassNet(n, visits, service)
			r, err := ExactSingleClass(net)
			if err != nil {
				t.Fatal(err)
			}
			want := float64(n) / (2.5 * float64(m+n-1))
			if math.Abs(r.Throughput[0]-want) > 1e-12 {
				t.Errorf("M=%d N=%d: λ = %v, want %v", m, n, r.Throughput[0], want)
			}
		}
	}
}

func TestExactSingleClassDelayStation(t *testing.T) {
	// Machine repairman: N clients thinking (delay Z) then queueing at one
	// FCFS server. Check against direct recursion values for N=2, Z=10, s=1:
	// k=1: w=(10,1), λ=1/11, q_srv=1/11
	// k=2: w=(10, 1+1/11=12/11), cycle=122/11, λ=22/122=11/61
	net := &queueing.Network{
		Stations: []queueing.Station{
			{Name: "think", Kind: queueing.Delay, ServiceTime: 10},
			{Name: "srv", Kind: queueing.FCFS, ServiceTime: 1},
		},
		Classes: []queueing.Class{{Name: "c", Population: 2, Visits: []float64{1, 1}}},
	}
	r, err := ExactSingleClass(net)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput[0]-11.0/61.0) > 1e-12 {
		t.Errorf("λ = %v, want 11/61", r.Throughput[0])
	}
}

func TestExactSingleClassZeroPopulation(t *testing.T) {
	net := singleClassNet(0, []float64{1}, []float64{1})
	r, err := ExactSingleClass(net)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput[0] != 0 {
		t.Errorf("λ = %v, want 0", r.Throughput[0])
	}
}

func TestExactSingleClassRejectsMulti(t *testing.T) {
	net := singleClassNet(1, []float64{1}, []float64{1})
	net.Classes = append(net.Classes, queueing.Class{Name: "d", Population: 1, Visits: []float64{1}})
	if _, err := ExactSingleClass(net); err == nil {
		t.Error("want error for multiclass input")
	}
}

func TestExactMultiMatchesSingle(t *testing.T) {
	// One class through the multiclass lattice must equal the single-class
	// recursion.
	net := singleClassNet(6, []float64{1, 0.4, 2}, []float64{3, 7, 0.5})
	rs, err := ExactSingleClass(net)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ExactMultiClass(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs.Throughput[0]-rm.Throughput[0]) > 1e-12 {
		t.Errorf("λ single %v != multi %v", rs.Throughput[0], rm.Throughput[0])
	}
	for m := range net.Stations {
		if math.Abs(rs.Wait[0][m]-rm.Wait[0][m]) > 1e-12 {
			t.Errorf("w[%d] single %v != multi %v", m, rs.Wait[0][m], rm.Wait[0][m])
		}
	}
}

func twoClassNet() *queueing.Network {
	return &queueing.Network{
		Stations: []queueing.Station{
			{Name: "cpu", Kind: queueing.FCFS, ServiceTime: 1},
			{Name: "disk", Kind: queueing.FCFS, ServiceTime: 2},
			{Name: "net", Kind: queueing.FCFS, ServiceTime: 0.5},
		},
		Classes: []queueing.Class{
			{Name: "a", Population: 3, Visits: []float64{1, 0.5, 0.2}},
			{Name: "b", Population: 2, Visits: []float64{1, 0.1, 1.5}},
		},
	}
}

func TestExactMultiClassLittle(t *testing.T) {
	net := twoClassNet()
	r, err := ExactMultiClass(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckLittle(net, 1e-9); err != nil {
		t.Error(err)
	}
	// Total population must be conserved across stations.
	var total float64
	for m := range net.Stations {
		total += r.TotalQueueLen(m)
	}
	if math.Abs(total-5) > 1e-9 {
		t.Errorf("total queue %v, want 5", total)
	}
}

func TestExactMultiClassZeroPopulationClass(t *testing.T) {
	net := twoClassNet()
	net.Classes[1].Population = 0
	r, err := ExactMultiClass(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput[1] != 0 {
		t.Errorf("zero-pop class throughput %v", r.Throughput[1])
	}
	// Must match single-class solution of class a alone.
	alone := singleClassNet(3, net.Classes[0].Visits, []float64{1, 2, 0.5})
	rs, err := ExactSingleClass(alone)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput[0]-rs.Throughput[0]) > 1e-12 {
		t.Errorf("λ %v, want %v", r.Throughput[0], rs.Throughput[0])
	}
}

func TestExactMultiClassStateLimit(t *testing.T) {
	net := twoClassNet()
	net.Classes[0].Population = 1000
	net.Classes[1].Population = 1000
	if _, err := ExactMultiClass(net, 1<<16); err == nil {
		t.Error("want state-space error")
	}
}

func TestAMVAExactForSinglePopulationOne(t *testing.T) {
	// With N=1 the arrival theorem is exact and Bard–Schweitzer converges to
	// the exact solution: an alone customer sees empty queues.
	net := singleClassNet(1, []float64{1, 1}, []float64{1, 2})
	r, err := ApproxMultiClass(net, AMVAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput[0]-1.0/3.0) > 1e-9 {
		t.Errorf("λ = %v, want 1/3", r.Throughput[0])
	}
}

func TestAMVACloseToExact(t *testing.T) {
	// Bard–Schweitzer is typically within a few percent of exact MVA.
	net := twoClassNet()
	exact, err := ExactMultiClass(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ApproxMultiClass(net, AMVAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range net.Classes {
		rel := math.Abs(approx.Throughput[c]-exact.Throughput[c]) / exact.Throughput[c]
		if rel > 0.08 {
			t.Errorf("class %d: AMVA λ %v vs exact %v (rel err %.3f)", c, approx.Throughput[c], exact.Throughput[c], rel)
		}
	}
	if err := approx.CheckLittle(net, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestAMVAZeroServiceStation(t *testing.T) {
	// A zero-delay station (ideal subsystem) must contribute nothing.
	net := singleClassNet(4, []float64{1, 1}, []float64{2, 0})
	r, err := ApproxMultiClass(net, AMVAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Wait[0][1] != 0 {
		t.Errorf("wait at zero-delay station = %v", r.Wait[0][1])
	}
	// Equivalent to a single-station network: λ = min(N/D, 1/D) = 1/2.
	if math.Abs(r.Throughput[0]-0.5) > 1e-6 {
		t.Errorf("λ = %v, want 0.5", r.Throughput[0])
	}
}

func TestAMVAIterationLimit(t *testing.T) {
	net := twoClassNet()
	if _, err := ApproxMultiClass(net, AMVAOptions{MaxIterations: 1}); err == nil {
		t.Error("want non-convergence error")
	}
}

func TestBounds(t *testing.T) {
	net := singleClassNet(5, []float64{1, 1}, []float64{1, 3})
	r, err := ExactSingleClass(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AsymptoticBounds(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Bottleneck != 1 {
		t.Errorf("bottleneck %d, want 1", b.Bottleneck)
	}
	if r.Throughput[0] > b.ThroughputUpper+1e-12 {
		t.Errorf("λ %v exceeds upper bound %v", r.Throughput[0], b.ThroughputUpper)
	}
	if r.Throughput[0] < b.ThroughputLower-1e-12 {
		t.Errorf("λ %v below lower bound %v", r.Throughput[0], b.ThroughputLower)
	}
	if math.Abs(b.SaturationPopulation-4.0/3.0) > 1e-12 {
		t.Errorf("N* = %v, want 4/3", b.SaturationPopulation)
	}
	if _, err := AsymptoticBounds(net, 3); err == nil {
		t.Error("want class-range error")
	}
}

func TestThroughputMonotoneInPopulation(t *testing.T) {
	// Property: for a fixed single-class network, exact throughput is
	// nondecreasing in population.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		visits := make([]float64, m)
		service := make([]float64, m)
		for i := range visits {
			visits[i] = 0.1 + rng.Float64()
			service[i] = 0.1 + 5*rng.Float64()
		}
		prev := 0.0
		for n := 1; n <= 8; n++ {
			r, err := ExactSingleClass(singleClassNet(n, visits, service))
			if err != nil {
				return false
			}
			if r.Throughput[0] < prev-1e-12 {
				return false
			}
			prev = r.Throughput[0]
		}
		return true
	}
	cfgQ := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(4242))}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Error(err)
	}
}

func TestAMVANearExactRandomNets(t *testing.T) {
	// Property: on random 2-class networks with small populations, AMVA
	// throughput stays within 15% of exact (Bard-Schweitzer worst cases sit
	// at tiny populations; typical error is a few percent). Fixed generator
	// seed keeps the property deterministic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		st := make([]queueing.Station, m)
		for i := range st {
			st[i] = queueing.Station{Name: "s", Kind: queueing.FCFS, ServiceTime: 0.2 + 3*rng.Float64()}
		}
		mkVisits := func() []float64 {
			v := make([]float64, m)
			for i := range v {
				v[i] = 0.1 + rng.Float64()
			}
			return v
		}
		net := &queueing.Network{
			Stations: st,
			Classes: []queueing.Class{
				{Name: "a", Population: 1 + rng.Intn(5), Visits: mkVisits()},
				{Name: "b", Population: 1 + rng.Intn(5), Visits: mkVisits()},
			},
		}
		exact, err := ExactMultiClass(net, 0)
		if err != nil {
			return false
		}
		approx, err := ApproxMultiClass(net, AMVAOptions{})
		if err != nil {
			return false
		}
		for c := range net.Classes {
			if math.Abs(approx.Throughput[c]-exact.Throughput[c])/exact.Throughput[c] > 0.15 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(12345))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUtilizationConsistency(t *testing.T) {
	net := twoClassNet()
	r, err := ExactMultiClass(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	for m := range net.Stations {
		u := r.TotalUtilization(net, m)
		if u < 0 || u > 1+1e-9 {
			t.Errorf("station %d utilization %v out of [0,1]", m, u)
		}
	}
}
