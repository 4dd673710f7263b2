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
// a layout or loop-order change to mva.BatchWorkspace must reproduce every
// U_p, L_obs, S_obs, iteration count and error text exactly. The corpus runs
// on one workspace as one warm batch, one-item cold solves, one-item warm
// solves and 7-item warm chunks, so warm seeding across and within Runs is
// pinned as well as the cold path. Two kernel-level batches add an
// admission-failed lane and a degenerate lane between converging ones, and a
// MaxIterations cap pins NonConvergenceError.MaxDelta.
func TestSolveBatchPinned(t *testing.T) {
	const want = "0c0a1a6d2eff2faaca3e3b7df2eeecfc862e44f15a4faa4f81cddd95d6d7cdca"
	items := pinnedBatchConfigs()
	h := sha256.New()
	ws := new(Workspace)
	dst := make([]BatchResult, len(items))

	SolveBatchInto(dst, items, SolveOptions{Workspace: ws, WarmStart: true})
	for _, r := range dst {
		pinResult(h, r)
	}
	for _, warm := range []bool{false, true} {
		for i := range items {
			SolveBatchInto(dst[:1], items[i:i+1], SolveOptions{Workspace: ws, WarmStart: warm})
			pinResult(h, dst[0])
		}
	}
	for lo := 0; lo < len(items); lo += 7 {
		hi := min(lo+7, len(items))
		SolveBatchInto(dst[lo:hi], items[lo:hi], SolveOptions{Workspace: ws, WarmStart: true})
		for _, r := range dst[lo:hi] {
			pinResult(h, r)
		}
	}

	// MaxIterations caps the real systems' lanes (an ideal may converge
	// within the cap); pin the reported residual too.
	SolveBatchInto(dst[:6], items[:6], SolveOptions{Workspace: ws, MaxIterations: 5})
	var buf [8]byte
	capped := 0
	for _, r := range dst[:6] {
		pinResult(h, r)
		var nc *mva.NonConvergenceError
		if errors.As(r.Err, &nc) {
			capped++
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(nc.MaxDelta))
			h.Write(buf[:])
		}
	}
	if capped == 0 {
		t.Fatal("no item of the capped batch reported a NonConvergenceError")
	}

	// Kernel lanes mms never submits: population 0 and -1 fail admission,
	// and an all-zero-visit lane fails on its degenerate cycle time, between
	// lanes that converge.
	var bw mva.BatchWorkspace
	pops := []float64{3, 0, 7, -1, 5, 2}
	for _, warm := range []bool{false, true} {
		bw.Reset(len(pops), 4, 2)
		for i := 0; i < 4; i++ {
			bw.SetGroup(i, i%2)
		}
		for b, p := range pops {
			bw.SetPopulation(b, p)
			for i := 0; i < 4; i++ {
				visit := 0.5 + float64(i+b)/4
				if b == 5 {
					visit = 0
				}
				bw.Set(i, b, visit, 1+float64((i*b)%5), float64(1+i%2))
				bw.SetWeight(i, b, float64(1+(i+b)%3))
			}
		}
		bw.Run(mva.BatchOptions{WarmStart: warm})
		for b := range pops {
			binary.LittleEndian.PutUint64(buf[:], uint64(bw.Iterations(b)))
			h.Write(buf[:])
			if err := bw.Err(b); err != nil {
				h.Write([]byte(err.Error()))
				continue
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(bw.Lambda(b)))
			h.Write(buf[:])
			for i := 0; i < 4; i++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(bw.Residence(i, b)))
				h.Write(buf[:])
			}
		}
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
