// Package hod models Hadoop On Demand, the related-work baseline of §V: for
// every job, HOD allocates nodes from the grid scheduler, constructs a
// temporary Hadoop cluster, stages the input, runs the job, and tears the
// cluster down. Its weaknesses versus HOG — per-job reconstruction overhead,
// a fixed node count, and cold HDFS — fall out of exactly that sequence.
//
// Each HOD job runs in an isolated simulation: ephemeral clusters share no
// Hadoop state, and the OSG is large enough that concurrent small clusters
// do not contend for slots. Cross-cluster WAN contention is the one
// interaction this independence approximation drops.
package hod

import (
	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/mapred"
	"hog/internal/sim"
	"hog/internal/workload"
)

// Config parameterises the HOD baseline.
type Config struct {
	// NodesPerJob is HOD's fixed cluster size per job.
	NodesPerJob int
	// Churn applies to the ephemeral cluster's nodes too.
	Churn grid.ChurnProfile
	// StageRateBps is the rate at which input data is staged into the fresh
	// cluster's HDFS from grid storage before the job can start.
	StageRateBps float64
	// RunBound caps one job's simulated runtime; a job still unfinished at
	// the bound is reported with TimedOut set. Defaults to 24 hours.
	RunBound sim.Time
	// Seed drives all per-job simulations.
	Seed int64
}

// DefaultConfig returns a HOD setup comparable to a small HOG pool.
func DefaultConfig(nodesPerJob int, seed int64) Config {
	return Config{
		NodesPerJob:  nodesPerJob,
		Churn:        grid.ChurnStable,
		StageRateBps: 200e6,
		Seed:         seed,
	}
}

// JobResult is one HOD job execution.
type JobResult struct {
	Name      string
	Bin       int
	Provision sim.Time // wait for the per-job cluster
	Staging   sim.Time // input upload into cold HDFS
	Runtime   sim.Time // the job itself
	Response  sim.Time // provision + staging + runtime
	// TimedOut marks a job whose simulation hit the 24-hour cap without
	// completing: Runtime is the cap, not a completion time. §V comparisons
	// must flag or exclude such jobs instead of counting them as finished.
	TimedOut bool
}

// Result is a whole-schedule HOD execution.
type Result struct {
	Jobs []JobResult
	// ResponseTime is when the last job finishes, measured from schedule
	// start (jobs run on independent ephemeral clusters, concurrently).
	// When TimedOut > 0 it is a lower bound, not a completion time.
	ResponseTime sim.Time
	// ReconstructionOverhead sums provision+staging across jobs — the work
	// HOG does not repeat per job.
	ReconstructionOverhead sim.Time
	// TimedOut counts jobs truncated at the 24-hour simulation cap.
	TimedOut int
}

// Run executes the schedule under HOD semantics.
func Run(sched *workload.Schedule, cfg Config) *Result {
	if cfg.NodesPerJob <= 0 {
		cfg.NodesPerJob = 30
	}
	if cfg.StageRateBps <= 0 {
		cfg.StageRateBps = 200e6
	}
	if cfg.RunBound <= 0 {
		cfg.RunBound = 24 * sim.Hour
	}
	res := &Result{}
	for i, js := range sched.Jobs {
		jr := runOne(js, cfg, cfg.Seed+int64(i)*7919)
		res.Jobs = append(res.Jobs, jr)
		if end := js.Submit + jr.Response; end > res.ResponseTime {
			res.ResponseTime = end
		}
		res.ReconstructionOverhead += jr.Provision + jr.Staging
		if jr.TimedOut {
			res.TimedOut++
		}
	}
	return res
}

func runOne(js workload.JobSpec, cfg Config, seed int64) JobResult {
	sys := core.New(hodClusterConfig(cfg, seed))
	sys.AwaitNodes()
	provision := sys.Eng.Now()

	// Stage the input into the cold per-job HDFS at the staging rate, then
	// seed the replicas.
	staging := sim.Time(js.InputBytes / cfg.StageRateBps * float64(sim.Second))
	sys.Eng.RunUntil(sys.Eng.Now() + staging)
	sys.NN.SeedFile("/in/"+js.Name, js.InputBytes, 0)

	costs := core.DefaultJobCosts()
	start := sys.Eng.Now()
	j := sys.JT.Submit(mapred.JobConfig{
		Name:              js.Name,
		InputFile:         "/in/" + js.Name,
		Reduces:           js.Reduces,
		MapSelectivity:    costs.MapSelectivity,
		ReduceSelectivity: costs.ReduceSelectivity,
		MapCostPerMB:      costs.MapCostPerMB,
		SortCostPerMB:     costs.SortCostPerMB,
		ReduceCostPerMB:   costs.ReduceCostPerMB,
		Bin:               js.Bin,
	})
	bound := start + cfg.RunBound
	sys.Eng.RunWhile(func() bool {
		return !sys.JT.AllDone() && sys.Eng.Now() < bound
	})
	runtime := sys.Eng.Now() - start
	_ = j
	return JobResult{
		Name:      js.Name,
		Bin:       js.Bin,
		Provision: provision,
		Staging:   staging,
		Runtime:   runtime,
		Response:  provision + staging + runtime,
		// A job still unfinished at the cap used to be reported as completed
		// with Runtime = RunBound; flag the truncation instead.
		TimedOut: !sys.JT.AllDone(),
	}
}

// hodClusterConfig builds a HOG-like grid config for one ephemeral cluster,
// with stock Hadoop HDFS settings: HOD deploys vanilla Hadoop, so no site
// awareness tuning, replication 3, traditional timeouts.
func hodClusterConfig(cfg Config, seed int64) core.Config {
	c := core.HOGConfig(cfg.NodesPerJob, cfg.Churn, seed)
	c.HDFS.Replication = 3
	c.HDFS.DeadTimeout = 900 * sim.Second
	c.HDFS.SiteAware = false
	c.MapRed.TrackerTimeout = 900 * sim.Second
	return c
}
