// Package experiments implements the paper's evaluation (Tables I-IV,
// Figures 4 and 5, the §IV.D failure studies) and the repository's
// ablation and scale studies. Each experiment is declared once, as an
// Experiment: its id and description, its cells (one self-contained trial
// each, returning a typed row), the metrics a row contributes to the results
// document, and the text report over its rows. internal/harness runs the
// cells on a worker pool and renders the JSON document or the text reports;
// cmd/hogbench is its command line.
package experiments

import (
	"fmt"
	"io"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/metrics"
	"hog/internal/ordered"
	"hog/internal/sim"
	"hog/internal/workload"
)

// Options controls experiment cost.
type Options struct {
	// Scale multiplies the workload's per-bin job counts (1.0 = the paper's
	// 88 jobs).
	Scale float64
	// Seeds are the per-point repetitions (the paper performs 3 runs per
	// sampling point).
	Seeds []int64
	// Nodes overrides the Figure 4 sweep points.
	Nodes []int
}

// fig4Nodes returns the sampling points on the paper's Figure 4 x-axis.
func fig4Nodes() []int {
	return []int{40, 50, 55, 60, 99, 100, 132, 160, 171, 180, 974, 1101}
}

// WithDefaults fills unset fields with the paper-scale defaults, including
// the Figure 4 node sweep — callers never need per-call fallbacks.
func (o Options) WithDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if len(o.Nodes) == 0 {
		o.Nodes = fig4Nodes()
	}
	return o
}

// Quick returns cheap options for smoke runs and benchmarks.
func Quick() Options {
	return Options{Scale: 0.25, Seeds: []int64{1}, Nodes: []int{40, 55, 100, 180}}
}

// Full returns the paper-scale options.
func Full() Options {
	return Options{
		Scale: 1.0,
		Seeds: []int64{1, 2, 3},
		Nodes: fig4Nodes(),
	}
}

func sched(seed int64, scale float64) *workload.Schedule {
	return workload.Generate(seed, workload.Config{Scale: scale})
}

// Experiment is one experiment of the evaluation, declared once: the
// harness expands its cells into trials, maps each trial's row to named
// metrics for the results document, and hands the rows, in cell order, to
// its text report.
type Experiment struct {
	// ID is the hogbench -exp name.
	ID string
	// Desc is the one-line description -list and the results document show.
	Desc string
	// Cells expands defaulted options into the experiment's trials.
	Cells func(opts Options) []Cell[any]
	// Metrics maps one cell's row to named scalars.
	Metrics func(row any) map[string]float64
	// Report writes the text report over every cell's row, in cell order.
	Report func(w io.Writer, rows []any)
}

// Cell is one trial of an experiment: its coordinates in the trial matrix
// and the self-contained run that produces its row.
type Cell[R any] struct {
	// Point is the aggregation group: cells sharing a Point (across seeds)
	// are summarized together.
	Point string
	Seed  int64
	Nodes int
	Scale float64
	Run   func() R
}

// declare erases an experiment's row type so the harness can hold every
// experiment in one registry; each experiment's own code stays typed.
func declare[R any](id, desc string, cells func(Options) []Cell[R],
	metrics func(R) map[string]float64, report func(io.Writer, []R)) Experiment {
	return Experiment{
		ID:   id,
		Desc: desc,
		Cells: func(opts Options) []Cell[any] {
			typed := cells(opts)
			out := make([]Cell[any], len(typed))
			for i, c := range typed {
				run := c.Run
				out[i] = Cell[any]{Point: c.Point, Seed: c.Seed, Nodes: c.Nodes, Scale: c.Scale,
					Run: func() any { return run() }}
			}
			return out
		},
		Metrics: func(row any) map[string]float64 { return metrics(row.(R)) },
		Report: func(w io.Writer, rows []any) {
			typed := make([]R, len(rows))
			for i, r := range rows {
				typed[i] = r.(R)
			}
			report(w, typed)
		},
	}
}

// perCase declares one cell per case, each run under the first seed on a
// pool of the given size, with point naming the case.
func perCase[C, R any](nodes int, cases []C, point func(C) string, run func(C, Options) R) func(Options) []Cell[R] {
	return func(opts Options) []Cell[R] {
		cells := make([]Cell[R], len(cases))
		for i, c := range cases {
			c := c
			cells[i] = Cell[R]{Point: point(c), Seed: opts.Seeds[0], Nodes: nodes, Scale: opts.Scale,
				Run: func() R { return run(c, opts) }}
		}
		return cells
	}
}

// single declares a one-cell experiment run under the first seed.
func single[R any](point string, nodes int, run func(Options) R) func(Options) []Cell[R] {
	return perCase(nodes, []string{point}, func(p string) string { return p },
		func(_ string, opts Options) R { return run(opts) })
}

// All returns every experiment in report order.
func All() []Experiment {
	return []Experiment{
		table1Experiment(),
		table2Experiment(),
		table3Experiment(),
		fig4Experiment(),
		fig5Experiment(),
		siteExperiment(),
		replExperiment(),
		heartbeatExperiment(),
		zombieExperiment(),
		diskExperiment(),
		ncopyExperiment(),
		delayExperiment(),
		hodExperiment(),
		scaleGridExperiment("grid", "LARGE-GRID: ~1000 nodes across 12 sites", LargeGridPreset),
		scaleGridExperiment("mega", "MEGA-GRID: ~10000 nodes across 40 sites", MegaGridPreset),
		scaleGridExperiment("giga", "GIGA-GRID: ~100000 nodes across 104 sites", GigaGridPreset),
		eventsExperiment(),
		chaosExperiment(),
		chaos2Experiment(),
		policyExperiment(),
		whatIfExperiment(),
	}
}

// ---------------------------------------------------------------- Table I/II

// Table1Result is the Facebook bin distribution plus a generated schedule's
// audit against it.
type Table1Result struct {
	Bins        []workload.Bin
	Jobs        int
	BinCounts   []int
	SpanSeconds float64
}

// RunTable1 validates a generated schedule against the Facebook bins.
func RunTable1() Table1Result {
	s := sched(1, 1.0)
	count := map[int]int{}
	for _, j := range s.Jobs {
		count[j.Bin]++
	}
	return Table1Result{
		Bins:        workload.Table1(),
		Jobs:        len(s.Jobs),
		BinCounts:   countsInOrder(count),
		SpanSeconds: s.Span().Seconds(),
	}
}

func table1Experiment() Experiment {
	return declare("table1", "Table I: Facebook workload bins",
		func(Options) []Cell[Table1Result] {
			return []Cell[Table1Result]{{Point: "schedule", Seed: 1, Scale: 1.0, Run: RunTable1}}
		},
		func(r Table1Result) map[string]float64 {
			return map[string]float64{
				"jobs":   float64(r.Jobs),
				"bins":   float64(len(r.BinCounts)),
				"span_s": r.SpanSeconds,
			}
		},
		func(w io.Writer, rows []Table1Result) {
			r := rows[0]
			fmt.Fprintln(w, "Table I: Facebook production workload bins")
			fmt.Fprintln(w, "Bin  #Maps  %Jobs@FB  #Maps(bench)  #Jobs(bench)")
			for _, b := range r.Bins {
				fmt.Fprintf(w, "%3d  %-9s %5.0f%%  %12d  %12d\n",
					b.Bin, b.MapsAtFacebook, b.PercentAtFacebook, b.Maps, b.Jobs)
			}
			fmt.Fprintf(w, "generated schedule: %d jobs, bins %v, span %.0fs\n",
				r.Jobs, r.BinCounts, r.SpanSeconds)
		})
}

// Table2Result is the truncated six-bin workload with its totals.
type Table2Result struct {
	Bins      []workload.Bin
	TotalJobs int
	TotalMaps int
}

// RunTable2 returns the truncated workload rows.
func RunTable2() Table2Result {
	bins := workload.Table2()
	return Table2Result{
		Bins:      bins,
		TotalJobs: workload.TotalJobs(bins),
		TotalMaps: workload.TotalMaps(bins),
	}
}

func table2Experiment() Experiment {
	return declare("table2", "Table II: truncated workload",
		func(Options) []Cell[Table2Result] {
			return []Cell[Table2Result]{{Point: "workload", Scale: 1.0, Run: RunTable2}}
		},
		func(r Table2Result) map[string]float64 {
			return map[string]float64{
				"bins":            float64(len(r.Bins)),
				"total_jobs":      float64(r.TotalJobs),
				"total_map_tasks": float64(r.TotalMaps),
			}
		},
		func(w io.Writer, rows []Table2Result) {
			r := rows[0]
			fmt.Fprintln(w, "Table II: truncated workload (bins 1-6, 88 jobs)")
			fmt.Fprintln(w, "Bin  MapTasks  ReduceTasks  Jobs")
			for _, b := range r.Bins {
				fmt.Fprintf(w, "%3d  %8d  %11d  %4d\n", b.Bin, b.Maps, b.Reduces, b.Jobs)
			}
			fmt.Fprintf(w, "total: %d jobs, %d map tasks\n", r.TotalJobs, r.TotalMaps)
		})
}

func countsInOrder(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for _, k := range ordered.Keys(m) {
		out = append(out, m[k])
	}
	return out
}

// ----------------------------------------------------------------- Table III

// Table3Result is the dedicated-cluster baseline measurement.
type Table3Result struct {
	Nodes, MapSlots, ReduceSlots int
	Response                     sim.Time
}

// Table3 builds the Table III cluster, audits its shape, and measures the
// workload response that forms Figure 4's dashed line.
func Table3(opts Options) Table3Result {
	opts = opts.WithDefaults()
	sys := core.New(core.DedicatedClusterConfig(opts.Seeds[0]))
	r := Table3Result{}
	for _, t := range sys.JT.AliveTrackers() {
		r.Nodes++
		r.MapSlots += t.MapSlots
		r.ReduceSlots += t.ReduceSlots
	}
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	r.Response = res.ResponseTime
	return r
}

func table3Experiment() Experiment {
	return declare("table3", "Table III: dedicated cluster baseline",
		single("cluster", 30, Table3),
		func(r Table3Result) map[string]float64 {
			return map[string]float64{
				"nodes":        float64(r.Nodes),
				"map_slots":    float64(r.MapSlots),
				"reduce_slots": float64(r.ReduceSlots),
				"response_s":   r.Response.Seconds(),
			}
		},
		func(w io.Writer, rows []Table3Result) {
			r := rows[0]
			fmt.Fprintln(w, "Table III: dedicated MapReduce cluster")
			fmt.Fprintf(w, "nodes=%d (paper: 30)  map slots=%d (paper: 100 cores -> 100)  reduce slots=%d (paper: 30)\n",
				r.Nodes, r.MapSlots, r.ReduceSlots)
			fmt.Fprintf(w, "workload response: %.0f s (Figure 4 dashed line)\n", r.Response.Seconds())
		})
}

// ----------------------------------------------------------------- Figure 4

// Fig4TrialResult is one Figure 4 execution: the pool size, the headline
// response time, and the completed-job count behind throughput metrics.
type Fig4TrialResult struct {
	Nodes     int
	Response  sim.Time
	Completed int // jobs that finished (scheduled minus failed)
}

// Fig4Cluster runs the dedicated-cluster reference trial (Figure 4's dashed
// line) for the given seed.
func Fig4Cluster(seed int64, opts Options) Fig4TrialResult {
	opts = opts.WithDefaults()
	cl := core.New(core.DedicatedClusterConfig(seed))
	res := cl.RunWorkload(sched(seed, opts.Scale))
	return Fig4TrialResult{Nodes: 30, Response: res.ResponseTime, Completed: len(res.JobResponses)}
}

// Fig4Trial runs one (pool size, seed) sampling point: reach the target
// size under stable churn, then upload data and run (the paper's §IV.B
// procedure).
func Fig4Trial(nodes int, seed int64, opts Options) Fig4TrialResult {
	opts = opts.WithDefaults()
	sys := core.New(core.HOGConfig(nodes, grid.ChurnStable, seed))
	res := sys.RunWorkload(sched(seed, opts.Scale))
	return Fig4TrialResult{Nodes: nodes, Response: res.ResponseTime, Completed: len(res.JobResponses)}
}

// fig4Experiment sweeps HOG pool sizes, several seeds per sampling point,
// against the dedicated cluster, whose cell comes first.
func fig4Experiment() Experiment {
	return declare("fig4", "Figure 4: equivalent performance sweep",
		func(opts Options) []Cell[Fig4TrialResult] {
			cells := []Cell[Fig4TrialResult]{{
				Point: "cluster", Seed: opts.Seeds[0], Nodes: 30, Scale: opts.Scale,
				Run: func() Fig4TrialResult { return Fig4Cluster(opts.Seeds[0], opts) },
			}}
			for _, n := range opts.Nodes {
				for _, seed := range opts.Seeds {
					n, seed := n, seed
					cells = append(cells, Cell[Fig4TrialResult]{
						Point: fmt.Sprintf("nodes=%d", n), Seed: seed, Nodes: n, Scale: opts.Scale,
						Run: func() Fig4TrialResult { return Fig4Trial(n, seed, opts) },
					})
				}
			}
			return cells
		},
		// The paper's headline response time plus completed-job throughput
		// (failed jobs don't count toward throughput).
		func(r Fig4TrialResult) map[string]float64 {
			m := map[string]float64{"response_s": r.Response.Seconds()}
			if r.Response > 0 {
				m["throughput_jobs_per_h"] = float64(r.Completed) / (r.Response.Seconds() / 3600)
			}
			return m
		},
		reportFig4)
}

// reportFig4 prints the equivalent-performance series: per pool size the
// per-seed responses, their mean, and the crossover with the cluster.
func reportFig4(w io.Writer, rows []Fig4TrialResult) {
	cluster := rows[0].Response
	fmt.Fprintln(w, "Figure 4: HOG vs. cluster equivalent performance")
	fmt.Fprintf(w, "cluster (100 cores): %.0f s\n", cluster.Seconds())
	fmt.Fprintln(w, "HOG nodes   runs(s)                    mean(s)   vs cluster")
	crossover := -1 // smallest HOG size whose mean beats the cluster
	for _, runs := range metrics.Group(rows[1:], func(r Fig4TrialResult) int { return r.Nodes }) {
		nodes := runs[0].Nodes
		fmt.Fprintf(w, "%9d   ", nodes)
		var sum sim.Time
		for _, r := range runs {
			fmt.Fprintf(w, "%7.0f ", r.Response.Seconds())
			sum += r.Response
		}
		mean := sum / sim.Time(len(runs))
		fmt.Fprintf(w, "  %7.0f   %+6.1f%%\n", mean.Seconds(), 100*(mean.Seconds()/cluster.Seconds()-1))
		if crossover < 0 && mean <= cluster {
			crossover = nodes
		}
	}
	if crossover >= 0 {
		fmt.Fprintf(w, "crossover (equivalent performance) at %d nodes (paper: [99,100])\n", crossover)
	} else {
		fmt.Fprintln(w, "no crossover within the swept range")
	}
}

// ---------------------------------------------------------- Figure 5 / T IV

// FluctuationCase identifies one Figure 5 sub-figure's configuration.
type FluctuationCase struct {
	Label string
	Churn grid.ChurnProfile
	Seed  int64
}

// FluctuationCases returns the three 55-node executions of Figure 5: two
// stable, one unstable.
func FluctuationCases() []FluctuationCase {
	return []FluctuationCase{
		{"5a (55 stable nodes)", grid.ChurnStable, 31},
		{"5b (55 stable nodes)", grid.ChurnStable, 32},
		{"5c (55 unstable nodes)", grid.ChurnUnstable, 31},
	}
}

// FluctuationRun is one Figure 5 sub-figure with its Table IV row.
type FluctuationRun struct {
	Label    string
	Response sim.Time
	Area     float64
	Series   *metrics.Series
	Start    sim.Time
	End      sim.Time
}

// FluctuationTrial performs one Figure 5 execution, reporting response time
// and area beneath the availability curve.
func FluctuationTrial(c FluctuationCase, opts Options) FluctuationRun {
	opts = opts.WithDefaults()
	sys := core.New(core.HOGConfig(55, c.Churn, c.Seed))
	res := sys.RunWorkload(sched(7, opts.Scale))
	return FluctuationRun{
		Label:    c.Label,
		Response: res.ResponseTime,
		Area:     res.Area,
		Series:   res.Reported,
		Start:    res.Start,
		End:      res.End,
	}
}

// fig5Experiment performs the three 55-node executions, each under its own
// seed.
func fig5Experiment() Experiment {
	return declare("fig5", "Figure 5 + Table IV: node fluctuation",
		func(opts Options) []Cell[FluctuationRun] {
			var cells []Cell[FluctuationRun]
			for _, c := range FluctuationCases() {
				c := c
				cells = append(cells, Cell[FluctuationRun]{
					Point: c.Label, Seed: c.Seed, Nodes: 55, Scale: opts.Scale,
					Run: func() FluctuationRun { return FluctuationTrial(c, opts) },
				})
			}
			return cells
		},
		func(r FluctuationRun) map[string]float64 {
			return map[string]float64{
				"response_s":  r.Response.Seconds(),
				"area_node_s": r.Area,
				"samples":     float64(r.Series.Len()),
			}
		},
		func(w io.Writer, runs []FluctuationRun) {
			fmt.Fprintln(w, "Figure 5 / Table IV: node fluctuation at 55 nodes")
			fmt.Fprintln(w, "Run                       Response(s)   Area(node-s)")
			for _, r := range runs {
				fmt.Fprintf(w, "%-25s %11.0f   %12.0f\n", r.Label, r.Response.Seconds(), r.Area)
			}
			for _, r := range runs {
				fmt.Fprintln(w)
				fmt.Fprint(w, r.Series.ASCIIPlot(68, 8, r.Start, r.End))
			}
			fmt.Fprintln(w, "\npaper shape: the unstable run has both the longest response time and")
			fmt.Fprintln(w, "the largest fluctuation; response time tracks node-curve area.")
		})
}
