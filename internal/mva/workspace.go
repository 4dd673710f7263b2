package mva

// Workspace holds the scratch buffers and result storage of the solvers, so
// repeated solves (parameter sweeps, fixed-point refinements) reuse one
// allocation set instead of re-allocating per call.
//
// Reuse contract:
//
//   - A Workspace may be used by one goroutine at a time. For concurrent
//     solves give each goroutine its own Workspace.
//   - The *Result returned by (*Workspace).ApproxMultiClass and
//     (*Workspace).ExactMultiClass aliases the workspace's storage: it is
//     valid until the next solve on the same workspace, which overwrites it
//     in place. Callers that retain results across solves must copy what
//     they need first.
//   - ensure zeroes every buffer it hands out (except the fixed-point
//     iterate when warm-starting), so a reused workspace computes
//     bit-identical results to a fresh one: classes the solver skips (zero
//     population) read as zero exactly as in a newly allocated Result.
//   - Warm-start state: after a converged ApproxMultiClass the workspace
//     remembers the solution shape; a later solve with
//     AMVAOptions.WarmStart reuses the converged iterate as its initial
//     guess when the shape still matches. Any other solve on the workspace
//     (exact MVA, a failed solve) invalidates the seed.
//
// The zero value is ready to use; buffers grow on first solve and are
// reused (or regrown) on subsequent solves.
type Workspace struct {
	// q is the fixed-point iterate n_{c,m}, flattened row-major: q[c*nm+m].
	q []float64
	// colSum is Σ_c q[c][m], refreshed each iteration.
	colSum []float64
	// res is the reusable result returned to the caller. Its Wait and
	// QueueLen rows are slice headers into flat backing arrays (waitBuf,
	// qlenBuf), so a solve touches a handful of long-lived allocations.
	res     Result
	waitBuf []float64
	qlenBuf []float64

	// Warm-start state: q holds a converged warmNC×warmNM solution iff
	// warmOK.
	warmOK bool
	warmNC int
	warmNM int

	// Fixed-point scratch (iterate): g is the evaluated map G(x), xPrev
	// the Aitken leg-1 snapshot.
	g     []float64
	xPrev []float64

	// Exact-MVA scratch: lattice is the queue-length table over the
	// population lattice (states×nm); pop / radix / stride are the
	// mixed-radix odometer state; resA and resC are the per-station
	// residence coefficients (w = a·(1+q) + c); va / vac / base are the
	// per-class visit-weighted coefficient rows and constant cycle terms.
	lattice []float64
	pop     []int
	radix   []int
	stride  []int
	resA    []float64
	resC    []float64
	va      []float64
	vac     []float64
	base    []float64
}

// ensure sizes (and zeroes) every buffer for an nc-class, nm-station solve
// and returns the workspace's result, wired to the flat backing arrays.
// With keepIterate the fixed-point iterate q is preserved (warm start);
// callers must only set it when the previous solve had the same shape.
func (ws *Workspace) ensure(nc, nm int, keepIterate bool) *Result {
	if keepIterate {
		ws.q = ws.q[:nc*nm]
	} else {
		ws.q = resizeZero(ws.q, nc*nm)
	}
	ws.colSum = resizeZero(ws.colSum, nm)
	ws.waitBuf = resizeZero(ws.waitBuf, nc*nm)
	ws.qlenBuf = resizeZero(ws.qlenBuf, nc*nm)
	ws.res.Throughput = resizeZero(ws.res.Throughput, nc)
	ws.res.CycleTime = resizeZero(ws.res.CycleTime, nc)
	ws.res.Iterations = 0
	ws.res.Method = ""
	if len(ws.res.Wait) != nc {
		ws.res.Wait = make([][]float64, nc)
		ws.res.QueueLen = make([][]float64, nc)
	}
	for c := 0; c < nc; c++ {
		ws.res.Wait[c] = ws.waitBuf[c*nm : (c+1)*nm : (c+1)*nm]
		ws.res.QueueLen[c] = ws.qlenBuf[c*nm : (c+1)*nm : (c+1)*nm]
	}
	return &ws.res
}

// resizeZero returns a zeroed slice of length n, reusing buf's backing array
// when it is large enough.
func resizeZero(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// resizeF returns a slice of length n reusing buf's backing array when large
// enough, without zeroing: callers overwrite every element.
func resizeF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// resizeInt is resizeF for int slices.
func resizeInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
