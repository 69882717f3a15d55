package netmodel

import (
	"testing"

	"hog/internal/sim"
)

// netRebalanceRun drives a 1000-node, 10-site network through a churn-heavy
// flow schedule: thousands of overlapping transfers starting, sharing links
// and finishing, which is exactly the event pattern that made the global
// rebalancer the experiment bottleneck. Returns completions as a cheap
// self-check.
func netRebalanceRun(global bool) int {
	const (
		nSites       = 10
		nodesPerSite = 100
		nFlows       = 8000
	)
	eng := sim.New(1)
	net := newRebalancing(eng, Config{}, global)
	for s := 0; s < nSites; s++ {
		site := net.AddSite("site", 300e6, 300e6)
		for i := 0; i < nodesPerSite; i++ {
			net.AddNode(site, "wn")
		}
	}
	completed := 0
	// Traffic mix mirrors a HOG run: mostly site-local block reads and
	// node-local disk I/O, with a cross-site minority (shuffle, replication)
	// contending on the WAN uplinks.
	for i := 0; i < nFlows; i++ {
		site := (i * 7) % nSites
		src := NodeID(site*nodesPerSite + (i*613)%nodesPerSite)
		var dst NodeID
		if i%10 < 7 { // site-local transfer (block reads, pipeline hops)
			dst = NodeID(site*nodesPerSite + (i*389+17)%nodesPerSite)
			if dst == src {
				dst = NodeID(site*nodesPerSite + (int(src)+1)%nodesPerSite)
			}
		} else { // cross-site transfer (shuffle, re-replication)
			far := (site + 1 + i%(nSites-1)) % nSites
			dst = NodeID(far*nodesPerSite + (i*389+17)%nodesPerSite)
		}
		bytes := float64(1+(i%50)) * 4e6
		start := sim.Time(i%500) * 10 * sim.Millisecond
		i := i
		eng.Schedule(start, func() {
			net.StartFlow(src, dst, bytes, func() { completed++ })
			if i%2 == 0 {
				net.StartDiskIO(src, bytes/2, nil)
			}
		})
	}
	eng.Run()
	return completed
}

// BenchmarkNetRebalance compares the link-scoped incremental rebalancer
// (the default) against the rebalance-everything baseline at 1000 nodes.
// The incremental path's acceptance bar is incremental <= global/5 ns/op.
func BenchmarkNetRebalance(b *testing.B) {
	for _, mode := range []struct {
		name   string
		global bool
	}{{"incremental", false}, {"global", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := netRebalanceRun(mode.global); got != 8000 {
					b.Fatalf("completed %d flows, want 8000", got)
				}
			}
		})
	}
}
