package sweep

import "lattol/internal/stats"

// DeriveSeed deterministically derives an independent RNG seed for one
// sweep point from a base seed and the point's coordinates (e.g. its input
// index, or the parameter values that identify it). Two points whose
// coordinate tuples differ — in value or in order — get well-separated
// seeds, and the result depends only on (base, parts), never on worker
// scheduling, so simulation sweeps stay bit-reproducible at any worker
// count.
//
// Prefer this helper to additive ad-hoc schemes like base + i*100 + j*10:
// those collide as grids grow, silently correlating points that should be
// statistically independent. To run paired (common-random-numbers)
// comparisons, derive one seed from the shared coordinates and reuse it for
// both variants.
func DeriveSeed(base int64, parts ...int64) int64 {
	x, _ := stats.SplitMix64(uint64(base))
	for _, p := range parts {
		h, _ := stats.SplitMix64(uint64(p))
		x, _ = stats.SplitMix64(x ^ h)
	}
	return int64(x)
}
