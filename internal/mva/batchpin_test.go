package mva

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// TestBatchKernelPinned pins the kernel on points mms never submits: four
// rows in two groups with varied weights and server counts, populations 3,
// 0, 7, −1, 5 and 2, the last with every visit zero. The cold digest covers
// the points solved cold; the warm digest covers them solved again, each
// seeded from the cold pass's last converged point (the population-5 one).
// A digest covers every point's iteration count and, for a converging point,
// the bits of λ and of each residence time; a failure folds in a fixed
// marker, not its text. A plain assertion checks the failure kinds:
// population 0 and −1 fail admission and the all-zero-visit point has a
// degenerate cycle time.
func TestBatchKernelPinned(t *testing.T) {
	wantErr := []string{"", "population = 0,", "", "population = -1,", "", "degenerate zero total demand"}
	pops := []float64{3, 0, 7, -1, 5, 2}
	var k Kernel
	seed := make([]float64, 2)
	// pass solves every point from seed (nil: cold) and returns the digest.
	pass := func(t *testing.T, from []float64) string {
		h := sha256.New()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for b, p := range pops {
			k.Reset(4, 2)
			for i := 0; i < 4; i++ {
				visit := 0.5 + float64(i+b)/4
				if b == 5 {
					visit = 0
				}
				k.SetRow(i, i%2, visit, 1+float64((i*b)%5), float64(1+i%2), float64(1+(i+b)%3))
			}
			lambda, iters, err := k.Solve(p, from, DefaultTolerance, DefaultMaxIterations)
			if got := err != nil; got != (wantErr[b] != "") || got && !strings.Contains(err.Error(), wantErr[b]) {
				t.Errorf("point %d: err %v, want %q", b, err, wantErr[b])
			}
			put(uint64(iters))
			if err != nil {
				h.Write([]byte("failed"))
				continue
			}
			if from == nil {
				k.Totals(seed)
			}
			put(math.Float64bits(lambda))
			for i := 0; i < 4; i++ {
				put(math.Float64bits(k.Residence(i)))
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	t.Run("cold", func(t *testing.T) {
		const want = "d79cd6d3dc3429371f490c56a2d3afaa46bed2742d4a1c1810000c577e76b305"
		if got := pass(t, nil); got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})
	t.Run("warm", func(t *testing.T) {
		const want = "9301585935a2a13bcc8e602950fb5a47b3df5fc0c2a2ed4e170d0f27ce7c2c23"
		pass(t, nil)
		if got := pass(t, seed); got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})
}
