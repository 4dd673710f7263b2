package stats

import "math"

// RNG is the simulators' random source: xoshiro256** seeded through
// SplitMix64. It is a plain value type — embedding it in an engine struct
// costs no pointer chase, and every method call is direct (math/rand.Rand
// reaches its source through an interface on every variate, which the
// simulation hot loop pays per event).
//
// The generator passes BigCrush (Blackman & Vigna 2018); the SplitMix64
// seeding decorrelates the 256-bit state from the raw seed and guarantees a
// nonzero state for every seed, including 0. Independent replication streams
// are derived with sweep.DeriveSeed, not by jumping.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// NewRNG returns a generator seeded from seed.
func NewRNG(seed int64) RNG {
	var r RNG
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream of seed: the four state words are
// consecutive SplitMix64 outputs, which are never all zero.
func (r *RNG) Seed(seed int64) {
	z := uint64(seed)
	r.s0, z = SplitMix64(z)
	r.s1, z = SplitMix64(z)
	r.s2, z = SplitMix64(z)
	r.s3, _ = SplitMix64(z)
}

// SplitMix64 advances the SplitMix64 state z and returns (output, next
// state). The output is a cheap bijective mix of z whose bits are
// decorrelated from its input bits; sweep.DeriveSeed uses it as a hash.
func SplitMix64(z uint64) (uint64, uint64) {
	z += 0x9e3779b97f4a7c15
	x := z
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31), z
}

// FNV64 is the repository's hash mixer for keys and ring positions: 64-bit
// FNV-1a fed one uint64 per xor/multiply step (a caller hashing bytes feeds
// one byte per step), finished by murmur3's fmix64 so every output bit
// depends on every input bit. serve.Key and the cluster ring hash with it,
// and their outputs are pinned: they place keys on the ring and shard the
// cache. SplitMix64 stays a separate mixer because the simulators' seed
// streams are pinned to it.
type FNV64 struct{ h uint64 }

// NewFNV64 returns a mixer at the FNV-1a offset basis.
func NewFNV64() FNV64 { return FNV64{h: 14695981039346656037} }

// Add mixes one word: h = (h ^ v) · FNV prime.
func (f *FNV64) Add(v uint64) { f.h = (f.h ^ v) * 1099511628211 }

// Sum returns the finalized hash (fmix64 of the state).
func (f *FNV64) Sum() uint64 {
	h := f.h
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Uint64 returns the next 64 uniform random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	x := s1 * 5
	res := ((x << 7) | (x >> 57)) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = (s3 << 45) | (s3 >> 19)
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return res
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n). It panics when n <= 0. The fixed-point
// multiply maps 64 random bits onto the range (Lemire's method without the
// rejection step: the bias is below n·2⁻⁶⁴, orders of magnitude under the
// simulators' statistical resolution).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo). Written out by
// hand (rather than math/bits.Mul64) keeps this file dependency-light; the
// compiler recognizes the pattern and emits a single MUL.
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Exponential ziggurat (Marsaglia & Tsang 2000, in the Doornik float-table
// formulation): 256 equal-area layers under e^-x. zigX[i] is the right edge
// of layer i (zigX[0] is the base layer's pseudo-width v/f(r), zigX[1] the
// tail boundary r), zigF[i] = e^-zigX[i]. The common case — one Uint64, one
// table compare, one multiply — needs no transcendental call; exp/log run
// only on the ~2% of draws that land on a layer boundary or the tail.
const (
	zigLayers = 256
	// zigR is the tail boundary and zigV the common layer area, the standard
	// constants for a 256-layer exponential ziggurat.
	zigR = 7.69711747013104972
	zigV = 0.0039496598225815571993
)

var (
	zigX [zigLayers + 1]float64
	zigF [zigLayers + 1]float64
)

func init() {
	zigX[0] = zigV * math.Exp(zigR) // base pseudo-width v/f(r)
	zigX[1] = zigR
	zigF[1] = math.Exp(-zigR)
	for i := 2; i < zigLayers; i++ {
		// Layer i-1 spans [f(x_{i-1}), f(x_i)] at width x_{i-1}; equal areas
		// give f(x_i) = f(x_{i-1}) + v/x_{i-1}.
		zigF[i] = zigF[i-1] + zigV/zigX[i-1]
		zigX[i] = -math.Log(zigF[i])
	}
	zigX[zigLayers] = 0
	zigF[zigLayers] = 1
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Uint64()
		i := u & (zigLayers - 1)
		x := float64(u>>11) * 0x1p-53 * zigX[i]
		if x < zigX[i+1] {
			return x
		}
		if i == 0 {
			// Tail beyond zigR: the exponential is memoryless, so the tail
			// sample is the boundary plus a fresh exponential.
			return zigR - math.Log(1-r.Float64())
		}
		if zigF[i]+r.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-x) {
			return x
		}
	}
}
