// Command quickstart runs a tenth of the paper's Facebook workload on a
// simulated 25-node HOG pool under stable churn and prints the job outcomes,
// map locality and preemptions the run survived: the smallest end-to-end use
// of the hog facade.
package main

import (
	"fmt"
	"log"

	"hog"
)

func main() {
	fmt.Println("== simulated HOG pool (25 nodes, stable churn) ==")
	sched := hog.GenerateWorkload(42, 0.1) // 10% of the paper's 88-job schedule
	sys, err := hog.New(hog.WithHOGPool(25, hog.ChurnStable), hog.WithSeed(42))
	if err != nil {
		log.Fatalf("simulated pool: %v", err)
	}
	res := sys.RunWorkload(sched)
	fmt.Printf("  jobs: %d submitted, %d failed\n", len(res.JobResponses)+res.JobsFailed, res.JobsFailed)
	fmt.Printf("  workload response time: %.0f s\n", res.ResponseTime.Seconds())
	fmt.Printf("  job response times: %v\n", res.Summary())
	fmt.Printf("  map locality: %d node-local / %d site-local / %d remote\n",
		res.MapLocality[0], res.MapLocality[1], res.MapLocality[2])
	fmt.Printf("  preemptions survived: %d\n", res.Pool.Preempted+res.Pool.BatchPreempted)
}
