package experiments

import (
	"fmt"
	"io"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/metrics"
	"hog/internal/sim"
)

// POLICY ablation: each extracted decision point (job ordering, straggler
// criterion, block placement, recovery order) is swept between its default
// and its alternative on identical workloads — same seed, same schedule,
// same pool — so every difference in the row pair is attributable to the
// policy alone. Stable churn for the scheduling and placement pairs;
// unstable churn for speculation and recovery, whose policies only have
// work to do when nodes strain and die.

// PolicyPair is one decision point with its default and alternative policy.
type PolicyPair struct {
	// Kind names the decision point: "sched", "place", "spec", or "repl"
	// (matching the hogbench flag that forces it globally).
	Kind string
	// Baseline is the default policy (the paper's behaviour); Variant is
	// the shipped alternative.
	Baseline, Variant string
	// Churn is the grid hostility the pair runs under.
	Churn grid.ChurnProfile
}

// PolicyPairs returns the swept decision points in fixed order.
func PolicyPairs() []PolicyPair {
	return []PolicyPair{
		{"sched", mapred.SchedulerFIFO, mapred.SchedulerFair, grid.ChurnStable},
		{"place", hdfs.PlacementGrid, hdfs.PlacementRandom, grid.ChurnStable},
		{"spec", mapred.SpeculationThreshold, mapred.SpeculationSiteLoad, grid.ChurnUnstable},
		{"repl", hdfs.ReplicationFIFO, hdfs.ReplicationRarest, grid.ChurnUnstable},
	}
}

// PolicyTrialResult is one (decision point, policy, seed) execution.
type PolicyTrialResult struct {
	// Kind is the swept decision point and Name the policy forced there.
	Kind, Name    string
	Response      sim.Time
	P50, P95, P99 sim.Time
	// LocalityRate is the node-local fraction of map executions.
	LocalityRate float64
	// SlotUtil is completed task-seconds over available slot-seconds
	// (HOG preset: one map and one reduce slot per node).
	SlotUtil   float64
	JobsFailed int
}

// PolicyTrial runs one 60-node workload with the named policy forced at the
// given decision point; every other decision point keeps its default (or the
// global option override), so pairs sharing (kind, seed) differ only in the
// swept policy.
func PolicyTrial(kind, name string, churn grid.ChurnProfile, seed int64, opts Options) PolicyTrialResult {
	opts = opts.WithDefaults()
	cfg := opts.tune(core.HOGConfig(60, churn, seed))
	switch kind {
	case "sched":
		cfg.Policies.Scheduler = name
	case "place":
		cfg.Policies.Placement = name
	case "spec":
		cfg.Policies.Speculation = name
	case "repl":
		cfg.Policies.Replication = name
	default:
		panic(fmt.Sprintf("experiments: unknown policy kind %q", kind))
	}
	sys := core.New(cfg)
	res := sys.RunWorkload(sched(seed, opts.Scale))
	sum := res.Summary()
	out := PolicyTrialResult{
		Kind:       kind,
		Name:       name,
		Response:   res.ResponseTime,
		P50:        sum.P50,
		P95:        sum.P95,
		P99:        sum.P99,
		JobsFailed: res.JobsFailed,
	}
	if tot := res.MapLocality[0] + res.MapLocality[1] + res.MapLocality[2]; tot > 0 {
		out.LocalityRate = float64(res.MapLocality[0]) / float64(tot)
	}
	if res.Area > 0 {
		out.SlotUtil = res.TaskSeconds / (2 * res.Area)
	}
	return out
}

// policyExperiment sweeps every pair and both policies across the option
// seeds.
func policyExperiment() Experiment {
	return declare("policy", "POLICY: pluggable-policy ablation across the four decision points",
		func(opts Options) []Cell[PolicyTrialResult] {
			var cells []Cell[PolicyTrialResult]
			for _, p := range PolicyPairs() {
				for _, name := range []string{p.Baseline, p.Variant} {
					for _, seed := range opts.Seeds {
						p, name, seed := p, name, seed
						cells = append(cells, Cell[PolicyTrialResult]{
							Point: fmt.Sprintf("%s=%s", p.Kind, name), Seed: seed, Nodes: 60, Scale: opts.Scale,
							Run: func() PolicyTrialResult { return PolicyTrial(p.Kind, name, p.Churn, seed, opts) },
						})
					}
				}
			}
			return cells
		},
		func(r PolicyTrialResult) map[string]float64 {
			return map[string]float64{
				"response_s":    r.Response.Seconds(),
				"p50_s":         r.P50.Seconds(),
				"p95_s":         r.P95.Seconds(),
				"p99_s":         r.P99.Seconds(),
				"locality_rate": r.LocalityRate,
				"slot_util":     r.SlotUtil,
				"jobs_failed":   float64(r.JobsFailed),
			}
		},
		reportPolicy)
}

// reportPolicy prints the ablation table, one row per policy with its
// means across seeds and its total failed jobs, baseline and variant
// adjacent.
func reportPolicy(w io.Writer, rows []PolicyTrialResult) {
	fmt.Fprintln(w, "POLICY: pluggable-policy ablation (60 nodes, identical workloads per pair)")
	fmt.Fprintln(w, "Point  Policy      Response(s)  P95(s)   Locality  SlotUtil  JobsFailed")
	for _, runs := range metrics.Group(rows, func(r PolicyTrialResult) [2]string { return [2]string{r.Kind, r.Name} }) {
		var resp, p95, loc, util []float64
		failed := 0
		for _, r := range runs {
			resp = append(resp, r.Response.Seconds())
			p95 = append(p95, r.P95.Seconds())
			loc = append(loc, r.LocalityRate)
			util = append(util, r.SlotUtil)
			failed += r.JobsFailed
		}
		fmt.Fprintf(w, "%-5s  %-10s  %11.0f  %7.0f  %8.3f  %8.3f  %10d\n",
			runs[0].Kind, runs[0].Name, metrics.SummarizeFloats(resp).Mean, metrics.SummarizeFloats(p95).Mean,
			metrics.SummarizeFloats(loc).Mean, metrics.SummarizeFloats(util).Mean, failed)
	}
	fmt.Fprintln(w, "defaults (fifo/grid/threshold/fifo) reproduce the paper's configuration;")
	fmt.Fprintln(w, "each variant isolates one decision point on the same seeded workload.")
}
