// Package harness expands the paper's experiments into a trial matrix
// (experiment × seed × scale × nodes), executes the trials concurrently
// across a bounded worker pool, aggregates per-point statistics across
// seeds, and serializes everything into a versioned JSON results document.
//
// Every trial builds its own self-contained, deterministic core.System, so
// trials are safe to run concurrently and the result document is
// bit-identical regardless of worker count or completion order: results are
// written into a slice indexed by trial position, never appended in
// completion order. docs/HARNESS.md records the schema and the determinism
// contract.
package harness

import (
	"fmt"

	"hog/internal/event"
	"hog/internal/experiments"
)

// Metrics holds one trial's named scalar measurements. Keys serialize in
// sorted order (encoding/json), keeping documents byte-stable.
type Metrics map[string]float64

// Trial is one cell of the experiment matrix: a self-contained simulation
// run identified by its experiment, aggregation point, and seed.
type Trial struct {
	// Experiment is the owning experiment id (hogbench -list names).
	Experiment string
	// Point is the aggregation group within the experiment: trials sharing
	// a Point (across seeds) are summarized together.
	Point string
	// Seed is the simulation seed the trial runs under.
	Seed int64
	// Nodes is the target pool or cluster size, when meaningful.
	Nodes int
	// Scale is the workload scale factor.
	Scale float64

	run func() Metrics
}

// Run executes the trial and returns its result row.
func (t Trial) Run() TrialResult {
	return TrialResult{
		Experiment: t.Experiment,
		Point:      t.Point,
		Seed:       t.Seed,
		Nodes:      t.Nodes,
		Scale:      t.Scale,
		Metrics:    t.run(),
	}
}

// TrialResult is one executed trial: its matrix coordinates plus measured
// metrics.
type TrialResult struct {
	Experiment string  `json:"experiment"`
	Point      string  `json:"point"`
	Seed       int64   `json:"seed,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Metrics    Metrics `json:"metrics"`
	// Error is set when the trial panicked; Metrics is then nil. Absent
	// from JSON for clean trials, so healthy output is unchanged.
	Error string `json:"error,omitempty"`
}

// Spec is one experiment the harness knows how to expand into trials.
type Spec struct {
	ID     string
	Desc   string
	Expand func(opts experiments.Options) []Trial
}

// Specs returns the full experiment registry in hogbench order.
func Specs() []Spec {
	return []Spec{
		{"table1", "Table I: Facebook workload bins", expandTable1},
		{"table2", "Table II: truncated workload", expandTable2},
		{"table3", "Table III: dedicated cluster baseline", expandTable3},
		{"fig4", "Figure 4: equivalent performance sweep", expandFig4},
		{"fig5", "Figure 5 + Table IV: node fluctuation", expandFig5},
		{"site", "A-SITE: whole-site failure ablation", expandSite},
		{"repl", "A-REPL: replication factor sweep", expandRepl},
		{"heartbeat", "A-HB: dead timeout 30s vs 15min", expandHeartbeat},
		{"zombie", "A-ZOMBIE: abandoned datanode modes", expandZombie},
		{"disk", "A-DISK: intermediate-data disk overflow", expandDisk},
		{"ncopy", "A-NCOPY: redundant task copies", expandNCopy},
		{"delay", "A-DELAY: FIFO vs delay scheduling", expandDelay},
		{"hod", "A-HOD: Hadoop On Demand baseline", expandHOD},
		{"grid", "LARGE-GRID: ~1000 nodes across 12 sites", expandScaleGrid("grid", experiments.LargeGridPreset)},
		{"mega", "MEGA-GRID: ~10000 nodes across 40 sites", expandScaleGrid("mega", experiments.MegaGridPreset)},
		{"giga", "GIGA-GRID: ~100000 nodes across 104 sites", expandScaleGrid("giga", experiments.GigaGridPreset)},
		{"events", "EVENTS: typed event stream census under fault injection", expandEvents},
		{"chaos", "CHAOS: randomized fault schedules with audit + determinism check", expandChaos},
		{"chaos2", "CHAOS2: partition/gray/corruption fault mixes with audit + determinism check", expandChaos2},
		{"policy", "POLICY: pluggable-policy ablation across the four decision points", expandPolicy},
		{"whatif", "WHATIF: MEGA-GRID warm-up snapshot forked into fault branches", expandWhatIf},
	}
}

// Select resolves experiment ids ("all", "table4" as a fig5 alias, or any
// registry id) into specs, preserving registry order and dropping
// duplicates.
func Select(ids ...string) ([]Spec, error) {
	all := Specs()
	want := map[string]bool{}
	for _, id := range ids {
		if id == "all" {
			for _, s := range all {
				want[s.ID] = true
			}
			continue
		}
		if id == "table4" { // alias: Table IV rides along with Figure 5
			id = "fig5"
		}
		known := false
		for _, s := range all {
			if s.ID == id {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
		want[id] = true
	}
	var out []Spec
	for _, s := range all {
		if want[s.ID] {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: no experiments selected")
	}
	return out, nil
}

// Expand applies defaults once and expands the specs into the flat trial
// matrix, in spec order.
func Expand(specs []Spec, opts experiments.Options) []Trial {
	opts = opts.WithDefaults()
	var trials []Trial
	for _, s := range specs {
		trials = append(trials, s.Expand(opts)...)
	}
	return trials
}

// ------------------------------------------------------------- expansions

func expandTable1(opts experiments.Options) []Trial {
	return []Trial{{
		Experiment: "table1", Point: "schedule", Seed: 1, Scale: 1.0,
		run: func() Metrics {
			r := experiments.RunTable1()
			return Metrics{
				"jobs":   float64(r.Jobs),
				"bins":   float64(len(r.BinCounts)),
				"span_s": r.SpanSeconds,
			}
		},
	}}
}

func expandTable2(opts experiments.Options) []Trial {
	return []Trial{{
		Experiment: "table2", Point: "workload", Scale: 1.0,
		run: func() Metrics {
			r := experiments.RunTable2()
			return Metrics{
				"bins":            float64(len(r.Bins)),
				"total_jobs":      float64(r.TotalJobs),
				"total_map_tasks": float64(r.TotalMaps),
			}
		},
	}}
}

func expandTable3(opts experiments.Options) []Trial {
	return []Trial{{
		Experiment: "table3", Point: "cluster", Seed: opts.Seeds[0], Nodes: 30, Scale: opts.Scale,
		run: func() Metrics {
			r := experiments.Table3(opts)
			return Metrics{
				"nodes":        float64(r.Nodes),
				"map_slots":    float64(r.MapSlots),
				"reduce_slots": float64(r.ReduceSlots),
				"response_s":   r.Response.Seconds(),
			}
		},
	}}
}

// fig4Metrics is the workload-run metric pair of every Figure 4 trial: the
// paper's headline response time plus completed-job throughput (failed jobs
// don't count toward throughput).
func fig4Metrics(r experiments.Fig4TrialResult) Metrics {
	m := Metrics{"response_s": r.Response.Seconds()}
	if r.Response > 0 {
		m["throughput_jobs_per_h"] = float64(r.Completed) / (r.Response.Seconds() / 3600)
	}
	return m
}

func expandFig4(opts experiments.Options) []Trial {
	trials := []Trial{{
		Experiment: "fig4", Point: "cluster", Seed: opts.Seeds[0], Nodes: 30, Scale: opts.Scale,
		run: func() Metrics {
			return fig4Metrics(experiments.Fig4Cluster(opts.Seeds[0], opts))
		},
	}}
	for _, n := range opts.Nodes {
		for _, seed := range opts.Seeds {
			n, seed := n, seed
			trials = append(trials, Trial{
				Experiment: "fig4", Point: fmt.Sprintf("nodes=%d", n),
				Seed: seed, Nodes: n, Scale: opts.Scale,
				run: func() Metrics {
					return fig4Metrics(experiments.Fig4Trial(n, seed, opts))
				},
			})
		}
	}
	return trials
}

func expandFig5(opts experiments.Options) []Trial {
	var trials []Trial
	for _, c := range experiments.FluctuationCases() {
		c := c
		trials = append(trials, Trial{
			Experiment: "fig5", Point: c.Label, Seed: c.Seed, Nodes: 55, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.FluctuationTrial(c, opts)
				return Metrics{
					"response_s":  r.Response.Seconds(),
					"area_node_s": r.Area,
					"samples":     float64(r.Series.Len()),
				}
			},
		})
	}
	return trials
}

func expandSite(opts experiments.Options) []Trial {
	var trials []Trial
	for _, c := range experiments.SiteFailureCases() {
		c := c
		trials = append(trials, Trial{
			Experiment: "site", Point: c.Label, Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.SiteFailureTrial(c, opts)
				return Metrics{
					"blocks_lost": float64(r.BlocksLost),
					"jobs_failed": float64(r.JobsFailed),
					"response_s":  r.Response.Seconds(),
				}
			},
		})
	}
	return trials
}

func expandRepl(opts experiments.Options) []Trial {
	var trials []Trial
	for _, repl := range experiments.ReplicationFactors() {
		repl := repl
		trials = append(trials, Trial{
			Experiment: "repl", Point: fmt.Sprintf("repl=%d", repl),
			Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.ReplicationTrial(repl, opts)
				return Metrics{
					"jobs_failed":     float64(r.JobsFailed),
					"blocks_lost":     float64(r.BlocksLost),
					"response_s":      r.Response.Seconds(),
					"repl_traffic_gb": r.BytesReplicated / 1e9,
					"cross_site_gb":   r.CrossSiteBytes / 1e9,
				}
			},
		})
	}
	return trials
}

func expandHeartbeat(opts experiments.Options) []Trial {
	var trials []Trial
	for _, timeout := range experiments.HeartbeatTimeouts() {
		timeout := timeout
		trials = append(trials, Trial{
			Experiment: "heartbeat", Point: fmt.Sprintf("timeout=%.0fs", timeout.Seconds()),
			Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.HeartbeatTrial(timeout, opts)
				return Metrics{
					"timeout_s":   r.Timeout.Seconds(),
					"response_s":  r.Response.Seconds(),
					"jobs_failed": float64(r.JobsFailed),
				}
			},
		})
	}
	return trials
}

func expandZombie(opts experiments.Options) []Trial {
	var trials []Trial
	for _, mode := range experiments.ZombieModes() {
		mode := mode
		trials = append(trials, Trial{
			Experiment: "zombie", Point: "mode=" + mode.String(),
			Seed: opts.Seeds[0], Nodes: 55, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.ZombieTrial(mode, opts)
				return Metrics{
					"response_s":      r.Response.Seconds(),
					"failed_attempts": float64(r.FailedAttempts),
					"fetch_failures":  float64(r.FetchFailures),
					"jobs_failed":     float64(r.JobsFailed),
				}
			},
		})
	}
	return trials
}

func expandDisk(opts experiments.Options) []Trial {
	var trials []Trial
	for _, factor := range experiments.DiskFactors() {
		factor := factor
		trials = append(trials, Trial{
			Experiment: "disk", Point: fmt.Sprintf("disk=%.2fx", factor),
			Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.DiskOverflowTrial(factor, opts)
				return Metrics{
					"disk_gb":        r.DiskGB,
					"overflows":      float64(r.Overflows),
					"workers_killed": float64(r.Killed),
					"response_s":     r.Response.Seconds(),
				}
			},
		})
	}
	return trials
}

func expandNCopy(opts experiments.Options) []Trial {
	var trials []Trial
	for _, c := range experiments.NCopyCases() {
		c := c
		point := fmt.Sprintf("copies=%d", c.Copies)
		if c.Eager {
			point += "+eager"
		}
		trials = append(trials, Trial{
			Experiment: "ncopy", Point: point, Seed: opts.Seeds[0], Nodes: 80, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.RedundantCopiesTrial(c, opts)
				return Metrics{
					"response_s":     r.Response.Seconds(),
					"extra_attempts": float64(r.Speculative),
				}
			},
		})
	}
	return trials
}

func expandDelay(opts experiments.Options) []Trial {
	var trials []Trial
	for _, wait := range experiments.DelayWaits() {
		wait := wait
		trials = append(trials, Trial{
			Experiment: "delay", Point: fmt.Sprintf("wait=%.0fs", wait.Seconds()),
			Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.DelayTrial(wait, opts)
				return Metrics{
					"response_s":    r.Response.Seconds(),
					"node_local":    float64(r.NodeLocal),
					"non_local":     float64(r.NonLocal),
					"locality_rate": r.LocalityRate,
				}
			},
		})
	}
	return trials
}

func expandHOD(opts experiments.Options) []Trial {
	var trials []Trial
	for _, system := range experiments.HODSystems() {
		system := system
		trials = append(trials, Trial{
			Experiment: "hod", Point: system, Seed: opts.Seeds[0], Nodes: 30, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.HODTrial(system, opts)
				return Metrics{
					"response_s":       r.Response.Seconds(),
					"reconstruction_s": r.Reconstruction.Seconds(),
					"timed_out":        float64(r.TimedOut),
				}
			},
		})
	}
	return trials
}

// expandScaleGrid expands a scale preset into experiment id's single trial.
func expandScaleGrid(id string, p experiments.ScalePreset) func(experiments.Options) []Trial {
	return func(opts experiments.Options) []Trial {
		return []Trial{{
			Experiment: id, Point: fmt.Sprintf("nodes=%d", p.Target),
			Seed: opts.Seeds[0], Nodes: p.Target, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.ScaleGrid(opts, p)
				return Metrics{
					"response_s":      r.Response.Seconds(),
					"reached_nodes":   float64(r.Reached),
					"events_fired":    float64(r.EventsFired),
					"flows_started":   float64(r.FlowsStarted),
					"cross_site_frac": r.CrossSiteFrac,
					"jobs_failed":     float64(r.JobsFailed),
				}
			},
		}}
	}
}

func expandEvents(opts experiments.Options) []Trial {
	return []Trial{{
		Experiment: "events", Point: "scenario", Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
		run: func() Metrics {
			r := experiments.EventCountsTrial(opts)
			m := Metrics{
				"response_s":   r.Response.Seconds(),
				"jobs_failed":  float64(r.JobsFailed),
				"total_events": float64(r.Total),
			}
			for t := event.Type(0); t < event.NumTypes; t++ {
				m[experiments.EventMetricName(t)] = float64(r.Counts[t])
			}
			return m
		},
	}}
}

func expandChaos(opts experiments.Options) []Trial {
	var trials []Trial
	for i := 0; i < experiments.ChaosScheduleCount; i++ {
		i := i
		trials = append(trials, Trial{
			Experiment: "chaos", Point: fmt.Sprintf("schedule=%d", i),
			Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.ChaosSchedule(i, opts)
				mismatch := 0.0
				if r.Mismatch {
					mismatch = 1
				}
				unpaired := 0.0
				if !r.SafeModeOK {
					unpaired = 1
				}
				return Metrics{
					"response_s":   r.Response.Seconds(),
					"jobs_failed":  float64(r.JobsFailed),
					"blocks_lost":  float64(r.BlocksLost),
					"reregistered": float64(r.Reregistered),
					"violations":   float64(r.Violations),
					"fp_mismatch":  mismatch,
					"unpaired":     unpaired,
				}
			},
		})
	}
	return trials
}

func expandChaos2(opts experiments.Options) []Trial {
	var trials []Trial
	for i := 0; i < experiments.Chaos2ScheduleCount; i++ {
		i := i
		trials = append(trials, Trial{
			Experiment: "chaos2", Point: fmt.Sprintf("schedule=%d", i),
			Seed: opts.Seeds[0], Nodes: 60, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.Chaos2Schedule(i, opts)
				mismatch := 0.0
				if r.Mismatch {
					mismatch = 1
				}
				unpaired := 0.0
				if !r.PairedOK {
					unpaired = 1
				}
				return Metrics{
					"response_s":  r.Response.Seconds(),
					"jobs_failed": float64(r.JobsFailed),
					"blocks_lost": float64(r.BlocksLost),
					"partitions":  float64(r.Partitions),
					"healed":      float64(r.Healed),
					"degraded":    float64(r.Degraded),
					"corrupted":   float64(r.Corrupted),
					"detected":    float64(r.Detected),
					"recovered":   float64(r.Recovered),
					"gray_draws":  float64(r.GrayDraws),
					"violations":  float64(r.Violations),
					"fp_mismatch": mismatch,
					"unpaired":    unpaired,
				}
			},
		})
	}
	return trials
}

func expandPolicy(opts experiments.Options) []Trial {
	var trials []Trial
	for _, p := range experiments.PolicyPairs() {
		for _, name := range []string{p.Baseline, p.Variant} {
			for _, seed := range opts.Seeds {
				p, name, seed := p, name, seed
				trials = append(trials, Trial{
					Experiment: "policy", Point: fmt.Sprintf("%s=%s", p.Kind, name),
					Seed: seed, Nodes: 60, Scale: opts.Scale,
					run: func() Metrics {
						r := experiments.PolicyTrial(p.Kind, name, p.Churn, seed, opts)
						return Metrics{
							"response_s":    r.Response.Seconds(),
							"p50_s":         r.P50.Seconds(),
							"p95_s":         r.P95.Seconds(),
							"p99_s":         r.P99.Seconds(),
							"locality_rate": r.LocalityRate,
							"slot_util":     r.SlotUtil,
							"jobs_failed":   float64(r.JobsFailed),
						}
					},
				})
			}
		}
	}
	return trials
}

func expandWhatIf(opts experiments.Options) []Trial {
	var trials []Trial
	for _, branch := range experiments.WhatIfBranches {
		branch := branch
		trials = append(trials, Trial{
			Experiment: "whatif", Point: "branch=" + branch,
			Seed: opts.Seeds[0], Nodes: 10000, Scale: opts.Scale,
			run: func() Metrics {
				r := experiments.WhatIfBranch(opts, branch)
				return Metrics{
					"response_s":  r.Response.Seconds(),
					"p50_s":       r.P50.Seconds(),
					"p95_s":       r.P95.Seconds(),
					"p99_s":       r.P99.Seconds(),
					"warm_at_s":   r.WarmAt.Seconds(),
					"jobs":        float64(r.Jobs),
					"jobs_failed": float64(r.JobsFailed),
				}
			},
		})
	}
	return trials
}
