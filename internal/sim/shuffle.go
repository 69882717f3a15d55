package sim

import "math/rand"

// Shuffle permutes s in place exactly as rand.New(src).Shuffle(len(s), swap)
// does: the same Fisher–Yates walk from the top, the same bounded draws
// (Int63n above 1<<31, the 32-bit multiply-and-reject below it), so the
// permutation and the number of values drawn from src match the standard
// library's draw for draw. It swaps elements directly instead of calling a
// closure per step, and draws straight from the wrapped generator — one
// interface call per value instead of Rand.Uint32 → Rand.Int63 →
// CountingSource.Int63 → generator — adding the draws to src's count once
// per call. Both matter on the placement hot path, which shuffles every
// live datanode per block placed.
func Shuffle[T any](src *CountingSource, s []T) {
	r := src.src
	var draws uint64
	i := len(s) - 1
	for ; i > 1<<31-1-1; i-- {
		v, d := int63n(r, int64(i+1))
		draws += d
		j := int(v)
		s[i], s[j] = s[j], s[i]
	}
	for ; i > 0; i-- {
		// math/rand's unexported Rand.int31n over Rand.Uint32: a uniform
		// value in [0, n) from one draw, drawing again only on the rare
		// biased low product.
		n := uint32(i + 1)
		prod := uint64(uint32(r.Int63()>>31)) * uint64(n)
		draws++
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(uint32(r.Int63()>>31)) * uint64(n)
				draws++
				low = uint32(prod)
			}
		}
		j := int(prod >> 32)
		s[i], s[j] = s[j], s[i]
	}
	src.draws += draws
}

// int63n is rand.Rand.Int63n drawing from r directly: a uniform value in
// [0, n) for n > 0, and the number of values it drew.
func int63n(r rand.Source64, n int64) (v int64, draws uint64) {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1), 1
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v, draws = r.Int63(), 1
	for v > max {
		v, draws = r.Int63(), draws+1
	}
	return v % n, draws
}
