// Package experiments implements the paper's evaluation section as callable
// experiment harnesses: one pure Run*/Trial function per table and figure
// returning typed rows, plus the ablation studies DESIGN.md calls out. The
// Print* functions are thin formatters over those rows; internal/harness
// expands them into a parallel trial matrix; cmd/hogbench prints or
// serializes them; bench_test.go wraps them in testing.B benchmarks;
// EXPERIMENTS.md records paper-versus-measured values.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/metrics"
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
	// SchedulerPolicy, SpeculationPolicy, PlacementPolicy, and
	// ReplicationOrder force the named policy in every simulated system
	// (hogbench -sched, -spec, -place, -repl). They can change results —
	// they are ablation selectors — but the empty string keeps each
	// decision point's default, under which every run is bit-identical to
	// the pre-policy behaviour. The POLICY experiment ignores them for the
	// decision point it is sweeping.
	SchedulerPolicy   string
	SpeculationPolicy string
	PlacementPolicy   string
	ReplicationOrder  string
}

// tune applies the option-level knobs to a built core config.
func (o Options) tune(cfg core.Config) core.Config {
	if o.SchedulerPolicy != "" {
		cfg.Policies.Scheduler = o.SchedulerPolicy
	}
	if o.SpeculationPolicy != "" {
		cfg.Policies.Speculation = o.SpeculationPolicy
	}
	if o.PlacementPolicy != "" {
		cfg.Policies.Placement = o.PlacementPolicy
	}
	if o.ReplicationOrder != "" {
		cfg.Policies.Replication = o.ReplicationOrder
	}
	return cfg
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

// PrintTable1 prints the Facebook bin distribution and the schedule audit.
func PrintTable1(w io.Writer) {
	r := RunTable1()
	fmt.Fprintln(w, "Table I: Facebook production workload bins")
	fmt.Fprintln(w, "Bin  #Maps  %Jobs@FB  #Maps(bench)  #Jobs(bench)")
	for _, b := range r.Bins {
		fmt.Fprintf(w, "%3d  %-9s %5.0f%%  %12d  %12d\n",
			b.Bin, b.MapsAtFacebook, b.PercentAtFacebook, b.Maps, b.Jobs)
	}
	fmt.Fprintf(w, "generated schedule: %d jobs, bins %v, span %.0fs\n",
		r.Jobs, r.BinCounts, r.SpanSeconds)
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

// PrintTable2 prints the truncated six-bin workload.
func PrintTable2(w io.Writer) {
	r := RunTable2()
	fmt.Fprintln(w, "Table II: truncated workload (bins 1-6, 88 jobs)")
	fmt.Fprintln(w, "Bin  MapTasks  ReduceTasks  Jobs")
	for _, b := range r.Bins {
		fmt.Fprintf(w, "%3d  %8d  %11d  %4d\n", b.Bin, b.Maps, b.Reduces, b.Jobs)
	}
	fmt.Fprintf(w, "total: %d jobs, %d map tasks\n", r.TotalJobs, r.TotalMaps)
}

func countsInOrder(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
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
	sys := core.New(opts.tune(core.DedicatedClusterConfig(opts.Seeds[0])))
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

// PrintTable3 prints the cluster audit and baseline.
func PrintTable3(w io.Writer, opts Options) {
	r := Table3(opts)
	fmt.Fprintln(w, "Table III: dedicated MapReduce cluster")
	fmt.Fprintf(w, "nodes=%d (paper: 30)  map slots=%d (paper: 100 cores -> 100)  reduce slots=%d (paper: 30)\n",
		r.Nodes, r.MapSlots, r.ReduceSlots)
	fmt.Fprintf(w, "workload response: %.0f s (Figure 4 dashed line)\n", r.Response.Seconds())
}

// ----------------------------------------------------------------- Figure 4

// Fig4Point is one x-position of Figure 4.
type Fig4Point struct {
	Nodes     int
	Responses []sim.Time
	Mean      sim.Time
	// Summary aggregates the per-seed responses in seconds.
	Summary metrics.FloatSummary
}

// Fig4Result is the equivalent-performance experiment.
type Fig4Result struct {
	Cluster   sim.Time
	Points    []Fig4Point
	Crossover int // smallest HOG size whose mean beats the cluster
}

// Fig4TrialResult is one Figure 4 execution: the headline response time and
// the completed-job count behind throughput metrics.
type Fig4TrialResult struct {
	Response  sim.Time
	Completed int // jobs that finished (scheduled minus failed)
}

// Fig4Cluster runs the dedicated-cluster reference trial (Figure 4's dashed
// line) for the given seed.
func Fig4Cluster(seed int64, opts Options) Fig4TrialResult {
	opts = opts.WithDefaults()
	cl := core.New(opts.tune(core.DedicatedClusterConfig(seed)))
	res := cl.RunWorkload(sched(seed, opts.Scale))
	return Fig4TrialResult{Response: res.ResponseTime, Completed: len(res.JobResponses)}
}

// Fig4Trial runs one (pool size, seed) sampling point: reach the target
// size under stable churn, then upload data and run (the paper's §IV.B
// procedure).
func Fig4Trial(nodes int, seed int64, opts Options) Fig4TrialResult {
	opts = opts.WithDefaults()
	sys := core.New(opts.tune(core.HOGConfig(nodes, grid.ChurnStable, seed)))
	res := sys.RunWorkload(sched(seed, opts.Scale))
	return Fig4TrialResult{Response: res.ResponseTime, Completed: len(res.JobResponses)}
}

// Fig4 sweeps HOG pool sizes against the dedicated cluster (several runs per
// sampling point).
func Fig4(opts Options) Fig4Result {
	opts = opts.WithDefaults()
	res := Fig4Result{Crossover: -1}
	res.Cluster = Fig4Cluster(opts.Seeds[0], opts).Response
	for _, n := range opts.Nodes {
		p := Fig4Point{Nodes: n}
		var sum sim.Time
		var secs []float64
		for _, seed := range opts.Seeds {
			resp := Fig4Trial(n, seed, opts).Response
			p.Responses = append(p.Responses, resp)
			secs = append(secs, resp.Seconds())
			sum += resp
		}
		p.Mean = sum / sim.Time(len(opts.Seeds))
		p.Summary = metrics.SummarizeFloats(secs)
		res.Points = append(res.Points, p)
		if res.Crossover < 0 && p.Mean <= res.Cluster {
			res.Crossover = n
		}
	}
	return res
}

// PrintFig4 prints the equivalent-performance series.
func PrintFig4(w io.Writer, opts Options) {
	r := Fig4(opts)
	fmt.Fprintln(w, "Figure 4: HOG vs. cluster equivalent performance")
	fmt.Fprintf(w, "cluster (100 cores): %.0f s\n", r.Cluster.Seconds())
	fmt.Fprintln(w, "HOG nodes   runs(s)                    mean(s)   vs cluster")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%9d   ", p.Nodes)
		for _, resp := range p.Responses {
			fmt.Fprintf(w, "%7.0f ", resp.Seconds())
		}
		fmt.Fprintf(w, "  %7.0f   %+6.1f%%\n", p.Mean.Seconds(),
			100*(p.Mean.Seconds()/r.Cluster.Seconds()-1))
	}
	if r.Crossover >= 0 {
		fmt.Fprintf(w, "crossover (equivalent performance) at %d nodes (paper: [99,100])\n", r.Crossover)
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
	sys := core.New(opts.tune(core.HOGConfig(55, c.Churn, c.Seed)))
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

// Fig5Table4 performs the three 55-node executions.
func Fig5Table4(opts Options) []FluctuationRun {
	opts = opts.WithDefaults()
	var out []FluctuationRun
	for _, c := range FluctuationCases() {
		out = append(out, FluctuationTrial(c, opts))
	}
	return out
}

// PrintFig5Table4 prints the fluctuation plots and the Table IV rows.
func PrintFig5Table4(w io.Writer, opts Options) {
	runs := Fig5Table4(opts)
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
}
