// Command site-failure demonstrates HOG's third failure domain (§III.B.1):
// an entire OSG site disappears mid-workload. With site-aware placement and
// replication 10 every block survives and the workload completes; with flat
// placement and replication 2 the same outage destroys data and fails jobs.
//
// The outage is a first-class Scenario — addressed by site name, anchored to
// the workload start, validated before the run — and the data damage is read
// off the typed event stream instead of end-of-run aggregates alone.
package main

import (
	"fmt"
	"log"

	"hog"
)

func run(label string, repl int, placement string) {
	// Watch the fault land, live, through the event stream.
	narrator := hog.ObserverFunc(func(e hog.Event) {
		if e.Type == hog.EvSiteOutage {
			fmt.Printf("  [t=%.0fs] site %s failed: %d workers lost\n",
				e.Time.Seconds(), e.Site, e.Value)
		}
	})
	events, collect := hog.WithEvents(hog.EvBlockLost, hog.EvReplicationDone)

	sys, err := hog.New(
		hog.WithHOGPool(60, hog.ChurnNone),
		hog.WithSeed(11),
		hog.WithHDFS(func(c *hog.HDFSConfig) {
			c.Replication = repl
			c.PlacementPolicy = placement
		}),
		hog.WithObserver(narrator),
		collect,
		// Five minutes into the run, the largest site's batch system preempts
		// every one of our glide-ins at once (e.g. a core network failure or
		// a higher-priority user claiming the whole pool).
		hog.WithScenario(hog.NewScenario("whole-site outage").
			SiteOutageAt(hog.Minutes(5), "FNAL_FERMIGRID", 1.0)),
	)
	if err != nil {
		log.Fatalf("site-failure: %v", err)
	}

	res := sys.RunWorkload(hog.GenerateWorkload(11, 0.3))
	fmt.Printf("%s\n", label)
	fmt.Printf("  replication=%d placement=%s\n", repl, placement)
	fmt.Printf("  response %.0f s, jobs failed %d, blocks lost %d, re-replications %d\n\n",
		res.ResponseTime.Seconds(), res.JobsFailed,
		events.Count(hog.EvBlockLost), events.Count(hog.EvReplicationDone))
}

func main() {
	fmt.Println("== whole-site failure during the workload ==")
	run("HOG (the paper's configuration):", 10, "grid")
	run("naive grid deployment:", 2, "flat")
	fmt.Println("Site awareness guarantees replicas span sites, so a whole-site")
	fmt.Println("outage cannot take out every copy of a block; replication 10")
	fmt.Println("additionally rides out simultaneous preemptions faster than the")
	fmt.Println("namenode can re-replicate (paper §III.B.1).")
}
