package experiments

import (
	"fmt"
	"io"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/metrics"
	"hog/internal/sim"
	"hog/internal/snapshot"
)

// WHATIF: the paper's central questions — what happens to the *same*
// cluster day under a site outage, a churn burst, a degraded WAN? — asked
// the way an operator would: warm up one MEGA-GRID run to three quarters of
// the submission window, snapshot it, and fork the snapshot into divergent
// branches. Every branch replays the identical history up to the fork
// instant (snapshot restore is byte-identical by construction), so each
// delta against the baseline branch is attributable to the injected fault
// alone — no seed noise, no warm-up variance.

// whatIfFork is the divergence instant, offset from the snapshot cut.
const whatIfFork = 30 * sim.Second

// WhatIfBranches names the fault branches, in report order. The baseline
// branch restores the snapshot unmodified.
var WhatIfBranches = []string{"baseline", "outage", "churn", "wan"}

// whatIfDivergence builds the named branch's divergence scenario; baseline
// returns nil. CALTECH_T2 is MEGA-GRID's largest site.
func whatIfDivergence(name string) *core.Scenario {
	switch name {
	case "baseline":
		return nil
	case "outage":
		return core.NewScenario("whatif-outage").SiteOutageAt(whatIfFork, "CALTECH_T2", 0.9)
	case "churn":
		return core.NewScenario("whatif-churn").ChurnBurst(whatIfFork, 0.3)
	case "wan":
		return core.NewScenario("whatif-wan").DegradeNetwork(whatIfFork, "CALTECH_T2", 0.1)
	default:
		panic(fmt.Sprintf("experiments: unknown what-if branch %q", name))
	}
}

// WhatIfBranchResult is one branch of a what-if fork.
type WhatIfBranchResult struct {
	Branch     string
	WarmAt     sim.Time // fork instant (absolute simulated time)
	Response   sim.Time
	P50        sim.Time
	P95        sim.Time
	P99        sim.Time
	Jobs       int
	JobsFailed int
}

// whatIfWarm builds the MEGA-GRID system, starts the Facebook workload,
// runs to three quarters of the submission window, and snapshots.
func whatIfWarm(opts Options) ([]byte, sim.Time) {
	sys := core.New(core.MegaGridConfig(10000, grid.ChurnStable, opts.Seeds[0]))
	s := sched(opts.Seeds[0], opts.Scale)
	if err := sys.StartWorkload(s); err != nil {
		panic(err)
	}
	cut := sys.RunStart() + s.Span()*3/4
	if err := sys.RunTo(cut); err != nil {
		panic(err)
	}
	data, err := snapshot.Save(sys)
	if err != nil {
		panic(err)
	}
	return data, sys.Eng.Now()
}

// WhatIfBranch runs one branch end to end — warm-up, snapshot, restore,
// divergence, completion — self-contained so trials stay independent and
// any subset can run on any worker in any order. snapshot.Restore rebuilds
// the system by replaying the warm-up, so every branch pays for two
// warm-ups: its own and the replay.
func WhatIfBranch(branch string, opts Options) WhatIfBranchResult {
	opts = opts.WithDefaults()
	snap, warmAt := whatIfWarm(opts)
	sys, err := snapshot.Restore(snap)
	if err != nil {
		panic(err)
	}
	if div := whatIfDivergence(branch); div != nil {
		if err := sys.ApplyDivergence(div); err != nil {
			panic(err)
		}
	}
	res := sys.FinishWorkload()
	sum := metrics.Summarize(res.JobResponses)
	return WhatIfBranchResult{
		Branch:     branch,
		WarmAt:     warmAt,
		Response:   res.ResponseTime,
		P50:        sum.P50,
		P95:        sum.P95,
		P99:        sum.P99,
		Jobs:       len(res.JobResponses),
		JobsFailed: res.JobsFailed,
	}
}

// whatIfExperiment runs one trial per branch.
func whatIfExperiment() Experiment {
	return declare("whatif", "WHATIF: MEGA-GRID warm-up snapshot forked into fault branches",
		perCase(10000, WhatIfBranches, func(b string) string { return "branch=" + b }, WhatIfBranch),
		func(r WhatIfBranchResult) map[string]float64 {
			return map[string]float64{
				"response_s":  r.Response.Seconds(),
				"p50_s":       r.P50.Seconds(),
				"p95_s":       r.P95.Seconds(),
				"p99_s":       r.P99.Seconds(),
				"warm_at_s":   r.WarmAt.Seconds(),
				"jobs":        float64(r.Jobs),
				"jobs_failed": float64(r.JobsFailed),
			}
		},
		reportWhatIf)
}

// reportWhatIf prints every branch with deltas against the baseline, the
// first branch.
func reportWhatIf(w io.Writer, rs []WhatIfBranchResult) {
	base := rs[0]
	fmt.Fprintln(w, "WHATIF: one MEGA-GRID warm-up forked into fault branches")
	fmt.Fprintf(w, "warm-up snapshot at t=%.0f s (3/4 of the submission window), divergence at +%.0f s\n",
		base.WarmAt.Seconds(), whatIfFork.Seconds())
	for _, r := range rs {
		fmt.Fprintf(w, "%-9s response=%7.0f s  p50=%6.0f s  p95=%6.0f s  p99=%6.0f s  failed=%d\n",
			r.Branch, r.Response.Seconds(), r.P50.Seconds(), r.P95.Seconds(), r.P99.Seconds(), r.JobsFailed)
		if r.Branch != base.Branch {
			fmt.Fprintf(w, "          Δresponse=%+.0f s  Δp50=%+.0f s  Δp95=%+.0f s  Δp99=%+.0f s  Δfailed=%+d\n",
				(r.Response - base.Response).Seconds(), (r.P50 - base.P50).Seconds(),
				(r.P95 - base.P95).Seconds(), (r.P99 - base.P99).Seconds(), r.JobsFailed-base.JobsFailed)
		}
	}
}
