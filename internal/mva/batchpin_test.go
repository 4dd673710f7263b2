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
// 0, 7, −1, 5 and 2, the last with every visit zero. The points are solved
// cold, then again seeded from the cold pass's last converged point (the
// population-5 one). The digest covers every point's iteration count and,
// for a converging point, the bits of λ and of each residence time; a
// failure folds in a fixed marker, not its text. A plain assertion checks
// the failure kinds: population 0 and −1 fail admission and the
// all-zero-visit point has a degenerate cycle time.
func TestBatchKernelPinned(t *testing.T) {
	const want = "d7dd0014430f6d0b420205f544ca75e484e96961e8619c1b1494a766b8de5c93"
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wantErr := []string{"", "population = 0,", "", "population = -1,", "", "degenerate zero total demand"}
	var k Kernel
	var seed []float64
	pops := []float64{3, 0, 7, -1, 5, 2}
	for _, warm := range []bool{false, true} {
		for b, p := range pops {
			k.Reset(4, 2)
			for i := 0; i < 4; i++ {
				visit := 0.5 + float64(i+b)/4
				if b == 5 {
					visit = 0
				}
				k.SetRow(i, i%2, visit, 1+float64((i*b)%5), float64(1+i%2), float64(1+(i+b)%3))
			}
			var from []float64
			if warm {
				from = seed
			}
			lambda, iters, err := k.Solve(p, from, DefaultTolerance, DefaultMaxIterations)
			if got := err != nil; got != (wantErr[b] != "") || got && !strings.Contains(err.Error(), wantErr[b]) {
				t.Errorf("warm=%v point %d: err %v, want %q", warm, b, err, wantErr[b])
			}
			put(uint64(iters))
			if err != nil {
				h.Write([]byte("failed"))
				continue
			}
			if !warm {
				seed = append(seed[:0], k.Iterate()...)
			}
			put(math.Float64bits(lambda))
			for i := 0; i < 4; i++ {
				put(math.Float64bits(k.Residence(i)))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
