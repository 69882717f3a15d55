// Package hog is the public facade of the HOG reproduction: Hadoop
// MapReduce on the Open Science Grid (He, Weitzel, Swanson, Lu — SC
// Companion 2012), rebuilt as a Go library.
//
// The package exposes two layers:
//
//   - The grid-scale simulation stack: a deterministic discrete-event
//     reproduction of HOG — glide-in worker pools over five OSG sites with
//     preemption, HDFS with site-aware placement and replication 10, and
//     Hadoop MapReduce 1.0 scheduling — plus the paper's dedicated
//     comparison cluster. Systems are built with New and functional options,
//     observed through the typed event stream (Observer, EventLog), and
//     driven through scripted fault injection (Scenario).
//   - The HOD (Hadoop On Demand) baseline (RunHOD) from the paper's
//     related-work comparison.
//
// See docs/API.md for the Option/Observer/Scenario surface, docs/HARNESS.md
// for the experiment suite and its JSON results document, and docs/PERF.md
// for the performance notes.
package hog

import (
	"context"

	"hog/internal/core"
	"hog/internal/experiments"
	"hog/internal/grid"
	"hog/internal/harness"
	"hog/internal/hdfs"
	"hog/internal/hod"
	"hog/internal/mapred"
	"hog/internal/metrics"
	"hog/internal/sim"
	"hog/internal/workload"
)

// Simulation stack.
type (
	// Config describes a simulated system (HOG pool or dedicated cluster).
	Config = core.Config
	// GridConfig is the elastic glide-in part of a Config.
	GridConfig = core.GridConfig
	// StaticGroup describes a homogeneous group of dedicated cluster nodes.
	StaticGroup = core.StaticGroup
	// JobCosts is the loadgen-like benchmark job cost model.
	JobCosts = core.JobCosts
	// System is a running simulated platform.
	System = core.System
	// Result aggregates one workload execution.
	Result = core.Result
	// ZombieMode selects preempted-daemon behaviour (paper §IV.D.1).
	ZombieMode = core.ZombieMode
	// FairPoolConfig parameterises one fair-share pool ("fair" scheduler);
	// distinct from PoolConfig, which shapes the glide-in worker pool.
	FairPoolConfig = mapred.PoolConfig
	// ChurnProfile selects grid hostility (none, stable, unstable).
	ChurnProfile = grid.ChurnProfile
	// SiteConfig describes one grid site.
	SiteConfig = grid.SiteConfig
	// Schedule is a job submission schedule.
	Schedule = workload.Schedule
	// WorkloadBin is one row of the paper's Table I / Table II.
	WorkloadBin = workload.Bin
	// Series is a step time series (node availability, Figure 5).
	Series = metrics.Series
	// Summary holds order statistics over durations.
	Summary = metrics.Summary
	// FloatSummary holds mean/min/max/stddev over a float sample.
	FloatSummary = metrics.FloatSummary
	// Time is a simulated timestamp/duration in integer microseconds.
	Time = sim.Time
)

// Zombie-handling modes (paper §IV.D.1).
const (
	ZombieFixed     = core.ZombieFixed
	ZombieUnfixed   = core.ZombieUnfixed
	ZombieDiskCheck = core.ZombieDiskCheck
)

// Churn profiles for the OSG sites.
const (
	ChurnNone     = grid.ChurnNone
	ChurnStable   = grid.ChurnStable
	ChurnUnstable = grid.ChurnUnstable
)

// HOGConfig returns the paper's HOG setup at the given pool size and churn:
// five OSG sites, one map and one reduce slot per node, replication 10,
// site awareness, and 30-second dead timeouts.
func HOGConfig(targetNodes int, churn ChurnProfile, seed int64) Config {
	return core.HOGConfig(targetNodes, churn, seed)
}

// DedicatedClusterConfig returns the paper's Table III comparison cluster
// (30 nodes, 100 cores, 100 map and 30 reduce slots).
func DedicatedClusterConfig(seed int64) Config { return core.DedicatedClusterConfig(seed) }

// OSGSites returns the five sites of the paper's Listing 1 with a churn
// profile applied.
func OSGSites(churn ChurnProfile) []SiteConfig { return grid.OSGSites(churn) }

// GenerateWorkload builds the paper's Facebook submission schedule (88 jobs
// from Table II's bins, exponential inter-arrival with a 14-second mean).
// scale 1.0 reproduces the paper; smaller values shrink per-bin job counts
// for quick runs.
func GenerateWorkload(seed int64, scale float64) *Schedule {
	return workload.Generate(seed, workload.Config{Scale: scale})
}

// FacebookBins returns the paper's Table I.
func FacebookBins() []WorkloadBin { return workload.Table1() }

// TruncatedBins returns the paper's Table II (the six bins actually run).
func TruncatedBins() []WorkloadBin { return workload.Table2() }

// HOD baseline.
type (
	// HODConfig parameterises the Hadoop On Demand baseline.
	HODConfig = hod.Config
	// HODResult is a whole-schedule HOD execution.
	HODResult = hod.Result
)

// RunHOD executes a schedule under HOD semantics: a fresh per-job cluster
// with provisioning and staging overhead (paper §V).
func RunHOD(sched *Schedule, cfg HODConfig) *HODResult { return hod.Run(sched, cfg) }

// DefaultHODConfig returns a HOD setup with the given per-job cluster size.
func DefaultHODConfig(nodesPerJob int, seed int64) HODConfig {
	return hod.DefaultConfig(nodesPerJob, seed)
}

// Experiment suite: the paper's evaluation as a parallel trial matrix with
// a versioned JSON results document (see docs/HARNESS.md).
type (
	// ExperimentOptions controls experiment cost (scale, seeds, node sweep).
	ExperimentOptions = experiments.Options
	// ResultsDoc is the versioned JSON results document of a suite run.
	ResultsDoc = harness.Doc
	// TrialResult is one executed trial of the experiment matrix.
	TrialResult = harness.TrialResult
	// TrialMetrics holds one trial's named scalar measurements.
	TrialMetrics = harness.Metrics
)

// QuickOptions returns cheap experiment options for smoke runs.
func QuickOptions() ExperimentOptions { return experiments.Quick() }

// FullOptions returns the paper-scale experiment options.
func FullOptions() ExperimentOptions { return experiments.Full() }

// SchedulerPolicyNames lists the registered job-ordering policies, sorted.
func SchedulerPolicyNames() []string { return mapred.SchedulerPolicyNames() }

// SpeculationPolicyNames lists the registered straggler criteria, sorted.
func SpeculationPolicyNames() []string { return mapred.SpeculationPolicyNames() }

// PlacementPolicyNames lists the registered block-placement policies, sorted.
func PlacementPolicyNames() []string { return hdfs.PlacementPolicyNames() }

// ReplicationOrderNames lists the registered block-recovery orderings,
// sorted.
func ReplicationOrderNames() []string { return hdfs.ReplicationOrderNames() }

// ExperimentIDs lists the runnable experiment ids (hogbench -list).
func ExperimentIDs() []string {
	var ids []string
	for _, s := range harness.Specs() {
		ids = append(ids, s.ID)
	}
	return ids
}

// RunSuite expands the named experiments ("all" for everything) into the
// trial matrix, executes it across a bounded pool of workers, and returns
// the results document. For a fixed seed set the document is bit-identical
// regardless of worker count.
func RunSuite(ctx context.Context, ids []string, opts ExperimentOptions, workers int) (*ResultsDoc, error) {
	return harness.RunSuite(ctx, ids, opts, workers)
}

// Seconds converts float seconds to a simulated Time.
func Seconds(s float64) Time { return sim.Seconds(s) }

// Minutes converts float minutes to a simulated Time.
func Minutes(m float64) Time { return sim.Minutes(m) }

// Hours converts float hours to a simulated Time.
func Hours(h float64) Time { return sim.Hours(h) }
