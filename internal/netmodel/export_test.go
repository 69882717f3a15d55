package netmodel

import "hog/internal/sim"

// newRebalancing returns a network like New(eng, cfg), on the global
// rebalance-everything path when global is set. The global path is the
// incremental rebalancer's equivalence oracle and benchmark baseline, so
// only this package's tests can select it.
func newRebalancing(eng *sim.Engine, cfg Config, global bool) *Network {
	n := New(eng, cfg)
	n.global = global
	return n
}
