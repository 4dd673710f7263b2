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
)

// pinnedBatchConfigs is the corpus of TestSolveBatchPinned: 200 operating
// points scattered by golden-ratio stepping over K ∈ {2, 4, 6, 8}, threads
// 1–10, runlength 5–30 and p_remote 0.05–0.9 (every 7th uniform), each
// followed by its ZeroRemote ideal.
func pinnedBatchConfigs() []BatchItem {
	const phi = 0.6180339887498949
	var items []BatchItem
	for i := 0; i < 200; i++ {
		_, f1 := math.Modf(float64(i) * phi)
		_, f2 := math.Modf(float64(i) * phi * phi)
		_, f3 := math.Modf(float64(i) * phi * phi * phi)
		cfg := DefaultConfig()
		cfg.K = 2 + 2*(i%4)
		cfg.Threads = 1 + int(10*f1)
		cfg.Runlength = 5 + 25*f2
		cfg.PRemote = 0.05 + 0.85*f3
		cfg.Uniform = i%7 == 0
		ideal := cfg
		ideal.PRemote = 0
		items = append(items, BatchItem{Config: cfg}, BatchItem{Config: ideal})
	}
	return items
}

// pinResult folds one batch outcome into the digest: U_p, L_obs and S_obs
// as float64 bits, the iteration count and the error text.
func pinResult(h hash.Hash, r BatchResult) {
	pinFloats(h, r.Metrics.Up, r.Metrics.LObs, r.Metrics.SObs)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(r.Metrics.Iterations))
	h.Write(buf[:])
	if r.Err != nil {
		h.Write([]byte(r.Err.Error()))
	}
	h.Write([]byte{0})
}

// TestSolveBatchPinned pins the symmetric-AMVA kernel's answers bit for bit:
// a layout or loop-order change to mva.Kernel must reproduce every
// U_p, L_obs, S_obs, iteration count and error text exactly. Cold and warm
// solves are pinned by separate digests, so a change to the warm-seed rule
// alone leaves the cold digest standing. The kernel's own failures, which no
// mms item can reach, are pinned in package mva (TestBatchKernelPinned).
func TestSolveBatchPinned(t *testing.T) {
	items := pinnedBatchConfigs()
	dst := make([]BatchResult, len(items))

	// cold: the corpus as one cold batch and as one-item cold solves, plus a
	// MaxIterations cap that pins NonConvergenceError.MaxDelta.
	t.Run("cold", func(t *testing.T) {
		const want = "089a47b327252fe36b2949cc9da356ec81d90774d579db19d660327305b9f476"
		h := sha256.New()
		ws := new(Workspace)
		SolveBatchInto(dst, items, SolveOptions{Workspace: ws})
		for _, r := range dst {
			pinResult(h, r)
		}
		for i := range items {
			SolveBatchInto(dst[:1], items[i:i+1], SolveOptions{Workspace: ws})
			pinResult(h, dst[0])
		}
		// MaxIterations caps the real systems' solves (an ideal may converge
		// within the cap); pin the reported residual too.
		SolveBatchInto(dst[:6], items[:6], SolveOptions{Workspace: ws, MaxIterations: 5})
		capped := 0
		for _, r := range dst[:6] {
			pinResult(h, r)
			var nc *mva.NonConvergenceError
			if errors.As(r.Err, &nc) {
				capped++
				pinFloats(h, nc.MaxDelta)
			}
		}
		if capped == 0 {
			t.Fatal("no item of the capped batch reported a NonConvergenceError")
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})

	// warm: on one workspace, the corpus as one warm batch, then as one-item
	// warm solves, then as 7-item warm chunks, so warm seeding across and
	// within batches is pinned.
	t.Run("warm", func(t *testing.T) {
		const want = "b652d143b12f50979f5967acf8a2270d579e11a98a850867cf9185febd1777f8"
		h := sha256.New()
		ws := new(Workspace)
		opts := SolveOptions{Workspace: ws, WarmStart: true}
		SolveBatchInto(dst, items, opts)
		for _, r := range dst {
			pinResult(h, r)
		}
		for i := range items {
			SolveBatchInto(dst[:1], items[i:i+1], opts)
			pinResult(h, dst[0])
		}
		for lo := 0; lo < len(items); lo += 7 {
			hi := min(lo+7, len(items))
			SolveBatchInto(dst[lo:hi], items[lo:hi], opts)
			for _, r := range dst[lo:hi] {
				pinResult(h, r)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})
}
