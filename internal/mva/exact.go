package mva

import (
	"fmt"

	"lattol/internal/queueing"
)

// ExactSingleClass solves a single-class closed network with population n by
// exact MVA recursion. It requires the network to have exactly one class.
func ExactSingleClass(net *queueing.Network) (*Result, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(net.Classes) != 1 {
		return nil, fmt.Errorf("mva: ExactSingleClass on network with %d classes", len(net.Classes))
	}
	n := net.Classes[0].Population
	m := len(net.Stations)
	q := make([]float64, m) // queue lengths at population k
	w := make([]float64, m)
	var lambda float64
	for k := 1; k <= n; k++ {
		var cycle float64
		for j := 0; j < m; j++ {
			w[j] = residence(net.Stations[j], q[j])
			cycle += net.Classes[0].Visits[j] * w[j]
		}
		if cycle == 0 {
			return nil, fmt.Errorf("mva: class %q has zero total demand", net.Classes[0].Name)
		}
		lambda = float64(k) / cycle
		for j := 0; j < m; j++ {
			q[j] = lambda * net.Classes[0].Visits[j] * w[j]
		}
	}
	r := newResult(1, m)
	r.Method = MethodExact
	if n == 0 {
		return r, nil
	}
	r.Throughput[0] = lambda
	copy(r.Wait[0], w)
	copy(r.QueueLen[0], q)
	r.CycleTime[0] = float64(n) / lambda
	return r, nil
}

// ExactMultiClass solves a closed multiclass network by the exact MVA
// recursion over the full population lattice. The state space has
// Π_c (N_c + 1) points, so this is only feasible for small populations; it
// exists mainly to quantify the accuracy of the approximate solver.
// MaxStates guards against accidental blow-up; 0 means the default of 2^22.
//
// The returned Result is freshly allocated and owned by the caller. For
// repeated solves that should reuse the lattice and scratch buffers, use
// (*Workspace).ExactMultiClass.
func ExactMultiClass(net *queueing.Network, maxStates int) (*Result, error) {
	var ws Workspace
	return ws.ExactMultiClass(net, maxStates)
}

// StateSpaceError reports that an exact solve's population lattice has more
// states than its cap allows: the network is valid but too large for the
// exact recursion (an approximate solver can still answer it).
type StateSpaceError struct {
	// MaxStates is the cap the lattice exceeded.
	MaxStates int
}

func (e *StateSpaceError) Error() string {
	return fmt.Sprintf("mva: exact state space exceeds %d states", e.MaxStates)
}

// ExactMultiClass runs the exact MVA recursion using the workspace's
// buffers: the population lattice is walked as an iterative DP with a
// mixed-radix odometer (no per-state index decoding), and every buffer —
// including the states×stations queue-length table — is reused across
// solves, so a warmed workspace solves with zero allocations. The returned
// Result aliases the workspace and is valid until the next solve on it; see
// the Workspace reuse contract.
func (ws *Workspace) ExactMultiClass(net *queueing.Network, maxStates int) (*Result, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if maxStates <= 0 {
		maxStates = 1 << 22
	}
	nc := len(net.Classes)
	nm := len(net.Stations)

	// The lattice is indexed mixed-radix: class c contributes a digit in
	// [0, N_c].
	ws.radix = resizeInt(ws.radix, nc)
	ws.stride = resizeInt(ws.stride, nc)
	radix, stride := ws.radix, ws.stride
	states := 1
	for c, cl := range net.Classes {
		radix[c] = cl.Population + 1
		if states > maxStates/radix[c] {
			return nil, &StateSpaceError{MaxStates: maxStates}
		}
		stride[c] = states // index delta for one customer of class c
		states *= radix[c]
	}

	// Per-station residence coefficients: w = a·(1+q) + c reproduces
	// residence() exactly (FCFS: a = s/m, c = s·(m-1)/m with c = 0 at m = 1;
	// delay: a = 0, c = s) without branching in the per-state loop.
	ws.resA = resizeF(ws.resA, nm)
	ws.resC = resizeF(ws.resC, nm)
	for m, st := range net.Stations {
		if st.Kind == queueing.Delay {
			ws.resA[m] = 0
			ws.resC[m] = st.ServiceTime
			continue
		}
		srv := float64(st.ServerCount())
		ws.resA[m] = st.ServiceTime / srv
		if srv == 1 {
			ws.resC[m] = 0
		} else {
			ws.resC[m] = st.ServiceTime * (srv - 1) / srv
		}
	}

	// lattice[idx*nm + m] is the total queue length at station m for the
	// population vector encoded by idx. We fill the lattice in order of
	// increasing index; that is a valid topological order because removing a
	// customer always decreases the index. Only row 0 (the empty network)
	// needs zeroing — every other row is fully overwritten.
	ws.lattice = resizeF(ws.lattice, states*nm)
	lat := ws.lattice
	for m := 0; m < nm; m++ {
		lat[m] = 0
	}
	ws.pop = resizeInt(ws.pop, nc)
	pop := ws.pop
	for c := range pop {
		pop[c] = 0
	}
	// Per-class visit-weighted coefficients fold the visit ratios into the
	// residence step once, outside the state loop:
	//
	//	v_m·w_m = v_m·(a_m·(1+q_m) + c_m) = vac_m + va_m·q_m
	//
	// with va_m = v_m·a_m and vac_m = v_m·(a_m + c_m), so the cycle time is
	// base_c + va·q (one dot product) and each queue-length update is two
	// fused multiply-adds per station.
	ws.va = resizeF(ws.va, nc*nm)
	ws.vac = resizeF(ws.vac, nc*nm)
	ws.base = resizeF(ws.base, nc)
	for c, cl := range net.Classes {
		vaRow := ws.va[c*nm : c*nm+nm]
		vacRow := ws.vac[c*nm : c*nm+nm]
		var base float64
		for m, v := range cl.Visits {
			vaRow[m] = v * ws.resA[m]
			vacRow[m] = v*ws.resA[m] + v*ws.resC[m]
			base += vacRow[m]
		}
		ws.base[c] = base
	}
	va, vac, baseC := ws.va, ws.vac, ws.base

	for idx := 1; idx < states; idx++ {
		// Odometer increment: pop is the mixed-radix decomposition of idx.
		for c := 0; c < nc; c++ {
			pop[c]++
			if pop[c] < radix[c] {
				break
			}
			pop[c] = 0
		}
		// Solve for population vector pop. Classes accumulate into the row in
		// ascending order (the first active class writes, the rest add) —
		// idx > 0 guarantees at least one active class.
		row := lat[idx*nm : idx*nm+nm]
		first := true
		for c := 0; c < nc; c++ {
			if pop[c] == 0 {
				continue
			}
			// Population with one class-c customer removed.
			prev := lat[(idx-stride[c])*nm : (idx-stride[c])*nm+nm]
			vaRow := va[c*nm : c*nm+nm]
			vacRow := vac[c*nm : c*nm+nm]
			// Four-way unrolled dot product va·prev: independent partial sums
			// break the floating-point add dependency chain.
			var s0, s1, s2, s3 float64
			m := 0
			for ; m+3 < nm; m += 4 {
				s0 += vaRow[m] * prev[m]
				s1 += vaRow[m+1] * prev[m+1]
				s2 += vaRow[m+2] * prev[m+2]
				s3 += vaRow[m+3] * prev[m+3]
			}
			for ; m < nm; m++ {
				s0 += vaRow[m] * prev[m]
			}
			cycle := baseC[c] + (s0 + s1) + (s2 + s3)
			if cycle == 0 {
				return nil, fmt.Errorf("mva: class %q has zero total demand", net.Classes[c].Name)
			}
			lam := float64(pop[c]) / cycle
			if first {
				for m, pm := range prev {
					row[m] = lam * (vacRow[m] + vaRow[m]*pm)
				}
				first = false
			} else {
				for m, pm := range prev {
					row[m] += lam * (vacRow[m] + vaRow[m]*pm)
				}
			}
		}
	}

	// Final solve at the full population recomputes the per-class waiting
	// times explicitly (in residence() form, off the hot path) — correct for
	// zero-population classes too, whose rows stay zero.
	full := states - 1
	resA, resC := ws.resA, ws.resC
	r := ws.ensure(nc, nm, false)
	// The exact solve overwrote q; the next warm-started approximate solve
	// must fall back to the cold seed.
	ws.warmOK = false
	r.Method = MethodExact
	for c := 0; c < nc; c++ {
		if net.Classes[c].Population == 0 {
			continue
		}
		prev := lat[(full-stride[c])*nm:]
		var cycle float64
		for m := 0; m < nm; m++ {
			wt := resA[m]*(1+prev[m]) + resC[m]
			r.Wait[c][m] = wt
			cycle += net.Classes[c].Visits[m] * wt
		}
		r.Throughput[c] = float64(net.Classes[c].Population) / cycle
		r.CycleTime[c] = cycle
		for m := 0; m < nm; m++ {
			r.QueueLen[c][m] = r.Throughput[c] * net.Classes[c].Visits[m] * r.Wait[c][m]
		}
	}
	return r, nil
}

// StationResidence exposes the MVA residence-time step for external
// consistency checks: internal/conformance re-derives every waiting time of a
// converged solution from the reported queue lengths and compares, so a
// mutation of the waiting-time term inside a solver cannot survive unnoticed.
func StationResidence(st queueing.Station, seen float64) float64 {
	return residence(st, seen)
}

// residence is the MVA residence-time step for one station given the queue
// length seen on arrival: s·(1+q) at a single-server FCFS station, s at a
// delay station, and the shadow-server approximation
// (s/m)·(1+q) + s·(m-1)/m for an m-server FCFS station (exact at m = 1,
// pure delay as m → ∞).
func residence(st queueing.Station, seen float64) float64 {
	if st.Kind == queueing.Delay {
		return st.ServiceTime
	}
	m := float64(st.ServerCount())
	if m == 1 {
		return st.ServiceTime * (1 + seen)
	}
	return st.ServiceTime/m*(1+seen) + st.ServiceTime*(m-1)/m
}
