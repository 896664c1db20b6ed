package vclock

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64). Every workload draws from explicitly seeded RNG streams so
// that experiments are reproducible regardless of Go version or map
// iteration order.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed + 0x9e3779b97f4a7c15} }

// Skip advances the generator past k draws in O(1): splitmix64's state
// moves by a fixed increment per draw, so the state after k draws is
// directly computable. This is what lets sharded workload generation
// reproduce a sequential draw sequence bit-for-bit — each worker jumps
// its own RNG to the shard's position in the one global stream.
func (r *RNG) Skip(k uint64) { r.state += k * 0x9e3779b97f4a7c15 }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vclock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *RNG) Exp(mean Duration) Duration {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Duration(-float64(mean) * math.Log(u))
}

// Pareto returns a bounded Pareto sample in [min, max) with shape alpha.
// Used for heavy-tailed file sizes.
func (r *RNG) Pareto(min, max float64, alpha float64) float64 {
	u := r.Float64()
	ha := math.Pow(min, alpha)
	la := math.Pow(max, alpha)
	x := -(u*la - u*ha - la) / (la * ha)
	return math.Pow(x, -1/alpha)
}

// Zipf draws from a Zipf distribution over [0, n) with exponent s, using a
// precomputed cumulative table for determinism and speed. It holds no
// RNG: each Sample takes the caller's.
type Zipf struct {
	cdf []float64
}

// NewZipfTable builds a Zipf sampler over n items with exponent s (> 0).
// Rank 0 is the most popular item. Sharded workload generators share
// one table across workers that each hold a per-item stream.
func NewZipfTable(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws a rank in [0, n) using r. The cumulative table is
// read-only after construction, so one Zipf can be shared by concurrent
// workers each holding its own RNG.
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Pick returns k with probability weights[k]/sum(weights). It panics on an
// empty or all-zero weight vector.
func (r *RNG) Pick(weights []float64) int {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		panic("vclock: Pick with non-positive weight sum")
	}
	u := r.Float64() * sum
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
