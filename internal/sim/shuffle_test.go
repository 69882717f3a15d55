package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// shuffleRand is Shuffle as it was before it drew from the source directly:
// the same walk through a *rand.Rand's Int63n and Uint32. It stays as the
// oracle beside rand.Shuffle.
func shuffleRand[T any](r *rand.Rand, s []T) {
	i := len(s) - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(r.Int63n(int64(i + 1)))
		s[i], s[j] = s[j], s[i]
	}
	for ; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(r.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(r.Uint32()) * uint64(n)
				low = uint32(prod)
			}
		}
		j := int(prod >> 32)
		s[i], s[j] = s[j], s[i]
	}
}

// rejectingSource returns zero on every every-th draw (never when every is
// 0). A zero Uint32 gives a zero low product, which Fisher–Yates' bounded
// draw rejects for every bound that is not a power of two, so shuffles over
// it take the redraw branch often instead of about once per billion draws.
// It counts the values it hands out itself, so a test can check the count a
// CountingSource around it keeps.
type rejectingSource struct {
	src   rand.Source64
	every uint64
	draws uint64
}

func (s *rejectingSource) Int63() int64 {
	s.draws++
	v := s.src.Int63()
	if s.every > 0 && s.draws%s.every == 0 {
		return 0
	}
	return v
}

// Uint64 completes rand.Source64; no shuffle path calls it.
func (s *rejectingSource) Uint64() uint64 { return uint64(s.Int63())<<1 ^ uint64(s.Int63()) }

func (s *rejectingSource) Seed(seed int64) { s.src.Seed(seed) }

// rejecting wraps a rejectingSource over rand.NewSource(seed) in a
// CountingSource, as the engine wraps its generator.
func rejecting(seed int64, every uint64) (*CountingSource, *rejectingSource) {
	rs := &rejectingSource{src: rand.NewSource(seed).(rand.Source64), every: every}
	return &CountingSource{src: rs, seed: seed}, rs
}

// shuffleAgrees shuffles a copy of base three ways — rand.Shuffle, the
// shuffleRand oracle and Shuffle — each over its own source built by mk from
// the same seed and advanced by skip draws, twice in a row so the check
// covers a stream that is not at its start. It fails unless all three give
// the same permutation and consume the same number of values, and unless
// the count Shuffle adds to its CountingSource is the number of values the
// source under it handed out.
func shuffleAgrees[T comparable](t *testing.T, base []T, skip int, mk func() (*CountingSource, *rejectingSource)) {
	t.Helper()
	std, oracle, got := slices.Clone(base), slices.Clone(base), slices.Clone(base)
	srcStd, _ := mk()
	srcOracle, _ := mk()
	srcGot, under := mk()
	rStd, rOracle := rand.New(srcStd), rand.New(srcOracle)
	for k := 0; k < skip; k++ {
		rStd.Int63()
		rOracle.Int63()
		srcGot.Int63()
	}
	for k := 0; k < 2; k++ {
		rStd.Shuffle(len(std), func(i, j int) { std[i], std[j] = std[j], std[i] })
		shuffleRand(rOracle, oracle)
		Shuffle(srcGot, got)
	}
	if !slices.Equal(oracle, std) {
		t.Fatalf("n=%d: the oracle's permutation differs from rand.Shuffle", len(base))
	}
	if !slices.Equal(got, std) {
		t.Fatalf("n=%d: permutation differs from rand.Shuffle", len(base))
	}
	if srcOracle.Draws() != srcStd.Draws() || srcGot.Draws() != srcStd.Draws() {
		t.Fatalf("n=%d: draws: Shuffle %d, oracle %d, rand.Shuffle %d", len(base), srcGot.Draws(), srcOracle.Draws(), srcStd.Draws())
	}
	if under != nil && under.draws != srcGot.Draws() {
		t.Fatalf("n=%d: Shuffle counted %d draws, the source handed out %d", len(base), srcGot.Draws(), under.draws)
	}
}

// TestShuffleMatchesStdlib requires Shuffle to produce rand.Shuffle's
// permutation from the same source position and to consume exactly as many
// source values, so swapping one for the other changes no run: every length
// from 0 to 2000, over int32 IDs (the placement candidates) and pointers
// (the grid's preemption victims). The rejecting source covers the bounded
// draw's redraw loop.
func TestShuffleMatchesStdlib(t *testing.T) {
	ids := make([]int32, 2001)
	ptrs := make([]*int, 2001)
	for i := range ids {
		ids[i] = int32(i)
		ptrs[i] = new(int)
	}
	for seed := int64(1); seed <= 2; seed++ {
		counting := func() (*CountingSource, *rejectingSource) { return NewCountingSource(seed), nil }
		rejectEvery3 := func() (*CountingSource, *rejectingSource) { return rejecting(seed, 3) }
		for n := 0; n <= 2000; n++ {
			shuffleAgrees(t, ids[:n], 1, counting)
			shuffleAgrees(t, ptrs[:n], 1, counting)
			shuffleAgrees(t, ids[:n], 1, rejectEvery3)
			shuffleAgrees(t, ptrs[:n], 1, rejectEvery3)
		}
	}
}

// TestShuffleRedraws checks that the crafted source really forces the
// multiply-and-reject retry: a shuffle over it draws more values than it
// swaps, and counts every one of them.
func TestShuffleRedraws(t *testing.T) {
	src, under := rejecting(7, 3)
	s := make([]int32, 1000)
	Shuffle(src, s)
	if src.Draws() <= uint64(len(s)-1) {
		t.Fatalf("%d draws for %d swaps: the redraw branch never ran", src.Draws(), len(s)-1)
	}
	if under.draws != src.Draws() {
		t.Fatalf("Shuffle counted %d draws, the source handed out %d", src.Draws(), under.draws)
	}
}

// TestInt63nMatchesStdlib covers the draw Shuffle makes above 1<<31
// elements, which no test can afford to shuffle: int63n must return
// rand.Rand.Int63n's value and consume as many source values, for powers of
// two, bounds just past them and bounds whose rejection zone is large.
func TestInt63nMatchesStdlib(t *testing.T) {
	bounds := []int64{1, 2, 3, 1 << 31, 1<<31 + 1, 1<<32 - 1, 1 << 62, 1<<62 + 1, 3 << 61, 1<<63 - 1}
	for _, every := range []uint64{0, 2} {
		want, _ := rejecting(11, every)
		got, under := rejecting(11, every)
		r := rand.New(want)
		for k := 0; k < 200; k++ {
			for _, n := range bounds {
				w := r.Int63n(n)
				v, d := int63n(under, n)
				got.draws += d
				if v != w || got.Draws() != want.Draws() || under.draws != got.Draws() {
					t.Fatalf("every=%d n=%d: int63n = %d after %d draws, Int63n = %d after %d", every, n, v, got.Draws(), w, want.Draws())
				}
			}
		}
	}
}

// FuzzShuffle compares Shuffle with rand.Shuffle over fuzzed lengths,
// stream positions and rejection rates. A source that rejects every draw
// would never end a shuffle, so every is at least 2 or 0.
func FuzzShuffle(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(0), uint8(0))
	f.Add(int64(2), uint16(1000), uint8(3), uint8(3))
	f.Add(int64(-5), uint16(4095), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, skip, every uint8) {
		base := make([]int32, int(n)%4096)
		for i := range base {
			base[i] = int32(i)
		}
		if every == 1 {
			every = 0
		}
		shuffleAgrees(t, base, int(skip), func() (*CountingSource, *rejectingSource) {
			return rejecting(seed, uint64(every))
		})
	})
}
