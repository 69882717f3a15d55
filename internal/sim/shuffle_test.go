package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// rejectingSource returns zero on every third draw. A zero Uint32 gives a
// zero low product, which Fisher–Yates' bounded draw rejects for every
// bound that is not a power of two, so shuffles over it take the redraw
// branch often instead of about once per billion draws.
type rejectingSource struct {
	src   rand.Source
	draws uint64
}

func (s *rejectingSource) Int63() int64 {
	s.draws++
	v := s.src.Int63()
	if s.draws%3 == 0 {
		return 0
	}
	return v
}

func (s *rejectingSource) Seed(seed int64) { s.src.Seed(seed) }

// TestShuffleMatchesStdlib requires Shuffle to produce rand.Shuffle's
// permutation from the same source position and to consume exactly as many
// source values, so swapping one for the other changes no run. The
// rejecting source covers the bounded draw's redraw loop.
func TestShuffleMatchesStdlib(t *testing.T) {
	counted := func(seed int64) (rand.Source, func() uint64) {
		s := NewCountingSource(seed)
		return s, s.Draws
	}
	rejecting := func(seed int64) (rand.Source, func() uint64) {
		s := &rejectingSource{src: rand.NewSource(seed)}
		return s, func() uint64 { return s.draws }
	}
	for name, mk := range map[string]func(int64) (rand.Source, func() uint64){"counting": counted, "rejecting": rejecting} {
		for _, n := range []int{0, 1, 2, 3, 1000, 10000} {
			for seed := int64(1); seed <= 4; seed++ {
				want := make([]int, n)
				for i := range want {
					want[i] = i
				}
				got := slices.Clone(want)
				srcA, drawsA := mk(seed)
				srcB, drawsB := mk(seed)
				ra, rb := rand.New(srcA), rand.New(srcB)
				// Shuffle twice from an advanced position, so the check
				// covers a stream that is not at its start.
				ra.Int63()
				rb.Int63()
				for k := 0; k < 2; k++ {
					ra.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
					Shuffle(rb, got)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d seed=%d: permutation differs from rand.Shuffle", name, n, seed)
				}
				if drawsA() != drawsB() {
					t.Fatalf("%s n=%d seed=%d: %d draws, rand.Shuffle made %d", name, n, seed, drawsB(), drawsA())
				}
			}
		}
	}
}
