package sim

import "math/rand"

// Shuffle permutes s in place with r exactly as r.Shuffle(len(s), swap)
// does: the same Fisher–Yates walk from the top, the same bounded draws
// (Int63n above 1<<31, the 32-bit multiply-and-reject below it), so the
// permutation and the number of values drawn from r's source match the
// standard library's draw for draw. It swaps elements directly instead of
// calling a closure per step, which matters on the placement hot path.
func Shuffle[T any](r *rand.Rand, s []T) {
	i := len(s) - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(r.Int63n(int64(i + 1)))
		s[i], s[j] = s[j], s[i]
	}
	for ; i > 0; i-- {
		j := int(int31n(r, uint32(i+1)))
		s[i], s[j] = s[j], s[i]
	}
}

// int31n is math/rand's unexported Rand.int31n: a uniform value in [0, n)
// from one Uint32, drawing again only on the rare biased low product.
func int31n(r *rand.Rand, n uint32) uint32 {
	prod := uint64(r.Uint32()) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(r.Uint32()) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}
