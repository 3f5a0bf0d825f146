// Package splitmix is the repo's one counter-based RNG: splitmix64
// (Steele et al., "Fast splittable pseudorandom number generators"), whose
// state is a single uint64. Callers derive an independent stream per unit
// of parallel work — a walk chunk, a source row, a graph node — by mixing
// their seed with the unit's index (Mix64), so draws depend only on
// (seed, index), never on scheduling, insertion order or thread count.
// That is the determinism contract internal/fora's walks and
// internal/ann's level assignment keep; both snapshot formats depend on
// these exact streams, so the constants below are frozen.
package splitmix

// RNG is one splitmix64 stream.
type RNG struct{ s uint64 }

// New starts a stream at seed.
func New(seed uint64) RNG { return RNG{s: seed} }

// Next returns the stream's next 64 bits.
func (r *RNG) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n) for n > 0. The modulo bias is at
// most n/2^64 — far below the sampling error of any walk budget the PPR
// engine can run — so the cheap reduction is fine here.
func (r *RNG) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Mix64 hashes a seed/stream-index pair into an independent stream seed
// (finalizer of splitmix64, applied to the XOR of the inputs).
func Mix64(a, b uint64) uint64 {
	z := a ^ (b * 0xff51afd7ed558ccd)
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}
