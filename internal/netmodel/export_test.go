package netmodel

import (
	"fmt"

	"hog/internal/sim"
)

// newRebalancing returns a network like New(eng, cfg), on the global
// rebalance-everything path when global is set. The global path is the
// incremental rebalancer's equivalence oracle and benchmark baseline, so
// only this package's tests can select it.
func newRebalancing(eng *sim.Engine, cfg Config, global bool) *Network {
	n := New(eng, cfg)
	n.global = global
	return n
}

// checkRegistries reports the first link registry that is not in strictly
// ascending creation-seq order, the order rebalance's run merge relies on.
func checkRegistries(n *Network) error {
	check := func(what string, id int, l *link) error {
		for i := 1; i < len(l.flows); i++ {
			if l.flows[i-1].seq >= l.flows[i].seq {
				return fmt.Errorf("%s %d registry: seq %d at %d before seq %d", what, id, l.flows[i-1].seq, i-1, l.flows[i].seq)
			}
		}
		return nil
	}
	for i, s := range n.sites {
		if err := check("site uplink", i, &s.up); err != nil {
			return err
		}
		if err := check("site downlink", i, &s.down); err != nil {
			return err
		}
	}
	for i, nd := range n.nodes {
		for _, c := range []struct {
			what string
			l    *link
		}{{"node uplink", &nd.up}, {"node downlink", &nd.down}, {"disk", &nd.disk}} {
			if err := check(c.what, i, c.l); err != nil {
				return err
			}
		}
	}
	return nil
}

// lastRuns returns how many seq-ordered runs the last incremental rebalance
// merged: the dirty links that contributed re-timed flows.
func lastRuns(n *Network) int { return len(n.runEnds) }
