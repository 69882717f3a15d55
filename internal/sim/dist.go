package sim

import "math/rand"

// Dist is the one family of durations the model draws: a shifted
// exponential, Offset plus an exponential with the given Mean. It covers
// every stochastic input of the glide-in model — memoryless node lifetimes
// and batch-preemption gaps (Offset 0), a fixed startup cost plus a
// queueing delay for provisioning, and the paper's exponential job
// inter-arrival gaps with a 14 second mean. Samples are drawn from the
// engine's random source so runs stay deterministic.
//
// The zero value means "unset": callers that take an optional Dist (a site
// without preemption, a pool with the default provisioning delay) test
// IsZero. Offset and Mean must not be negative; core.Validate rejects a
// config that carries one.
type Dist struct {
	Offset Time
	Mean   Time
}

// Sample draws one duration. It draws exactly one value from r, even when
// Mean is zero.
func (d Dist) Sample(r *rand.Rand) Time {
	return d.Offset + Time(r.ExpFloat64()*float64(d.Mean))
}

// IsZero reports whether d is the unset zero value.
func (d Dist) IsZero() bool { return d == Dist{} }
