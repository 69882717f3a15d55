// Command hogperf is the repository's host-time benchmark. It runs one named
// workload of the simulator through the public core API, once per fresh
// child process, for a fixed time budget, checks every run's simulated
// outputs against the recorded reference, and prints the host-time metrics
// by name with their units. The last line of its output is one JSON object.
// From the repository root:
//
//	bash hogperf/run.sh --workload grid-data --seed 1 --seconds 38 --trace 0
//	bash hogperf/run.sh --workload grid-data --seed 1 --seconds 38 --trace 1   # per-layer split
//	bash hogperf/run.sh record --workload grid-data --seeds 0-32
//	bash hogperf/run.sh compare --parent parent.jsonl --change change.jsonl
//
// Runs are sequential: one client, closed loop, each run one batch
// simulation in a fresh process. A workload's inputs are the seeds recorded
// for it in refs.json, taken as a cycle: --seed picks where an invocation
// starts in that cycle and each further run takes the next seed. The cycles
// are short enough that one invocation covers most of its cycle, so input
// mix moves a median little, and --seed 1 starts mega-warmup at the seed of
// the committed MEGA-GRID row. chaos-repair's cycle holds only seeds on
// which every simulated job completes.
// With --trace 0 it reports the end-to-end metrics (medians over the runs);
// with --trace 1 it alternates untraced and traced runs of the same input
// and reports the per-layer metrics of the traced ones. Results appended
// with --record FILE on each commit are what compare reads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the host-time metrics of an untraced run, reported as medians
// over the runs of one invocation.
var endToEnd = []metric{
	{"wall_s", "s"}, {"setup_s", "s"}, {"provision_s", "s"}, {"run_s", "s"}, {"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, grouped by the package they
// describe. Every "<layer>.self_s" is CPU-profile self time.
var perLayer = []metric{
	{"workload.gen_s", "s"}, {"workload.jobs", "count"}, {"workload.maps", "count"}, {"workload.self_s", "s"},
	{"core.new_s", "s"}, {"core.self_s", "s"},
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.pending_max", "count"}, {"sim.rand_draws", "count"}, {"sim.self_s", "s"},
	{"grid.provisioned", "count"}, {"grid.preempted", "count"}, {"grid.reached", "count"}, {"grid.provision_sim_s", "sim_s"}, {"grid.self_s", "s"},
	{"netmodel.flows", "count"}, {"netmodel.flows_canceled", "count"}, {"netmodel.gb_moved", "GB"}, {"netmodel.cross_site_frac", "frac"}, {"netmodel.self_s", "s"},
	{"disk.self_s", "s"},
	{"hdfs.blocks_created", "count"}, {"hdfs.replications", "count"}, {"hdfs.blocks_lost", "count"}, {"hdfs.write_replicas_skipped", "count"},
	{"hdfs.corrupt_reads_detected", "count"}, {"hdfs.pipeline_recoveries", "count"}, {"hdfs.self_s", "s"},
	{"mapred.map_attempts", "count"}, {"mapred.reduce_attempts", "count"}, {"mapred.attempts_failed", "count"}, {"mapred.speculative", "count"},
	{"mapred.fetch_failures", "count"}, {"mapred.node_local_frac", "frac"}, {"mapred.useful_attempt_frac", "frac"}, {"mapred.self_s", "s"},
	{"audit.sweeps", "count"}, {"audit.sweep_s", "s"}, {"audit.sweep_p50_ms", "ms"}, {"audit.violations", "count"}, {"audit.self_s", "s"},
	{"event.count", "count"}, {"event.self_s", "s"},
	{"runtime.alloc_mb", "MB"}, {"runtime.mallocs_per_event", "count"}, {"runtime.gc_count", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.self_s", "s"},
	{"trace.overhead_frac", "frac"}, {"trace.samples", "count"}, {"trace.self_sum_frac", "frac"},
}

// setupsPerRun is how many times each run sets the workload up; setup_s is
// the median, so one slow first build does not swing it.
const setupsPerRun = 15

// childLimit caps one child run, so a hung simulation cannot hold the
// invocation past its deadline.
const childLimit = 150 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// maxProcs is each run's GOMAXPROCS, lowered to the CPU count: enough for
// the collector and the sharded engine's staging to use a second core.
const maxProcs = 2

// traceDir is where traced runs write their spans and CPU profiles,
// relative to the repository root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "hogperf", "traces")

// runOpts are the flags shared by the parent process and its children.
type runOpts struct {
	workload string
	seed     int64
	trace    bool
}

func (o *runOpts) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
}

// result is the JSON object the parent process prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childRun is one finished child process.
type childRun struct {
	seed   int64
	res    runResult
	rssMB  float64
	traced bool
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("hogperf", flag.ContinueOnError)
	var o runOpts
	o.register(fs)
	seconds := fs.Int("seconds", 38, "time budget of the invocation")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of traced runs")
	record := fs.String("record", "", "append the result, labelled, to this JSON-lines file (for compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "hogperf: unknown workload %q\n", o.workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "hogperf: --trace takes 0 or 1")
		return 2
	}
	o.trace = *trace == 1
	refs, err := loadRefs(refsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}

	cycle := refs.seeds(def.name)
	if len(cycle) == 0 {
		fmt.Fprintf(os.Stderr, "hogperf: no reference outputs recorded for %s\n", def.name)
		return 1
	}

	budget := time.Duration(*seconds) * time.Second
	begin := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var runs []childRun
	var failures []error
	// A round is one untraced run, plus one traced run of the same input
	// under --trace 1. Round i runs the recorded workload seed i places after
	// the one --seed starts at, so a run's median spans several inputs and
	// every run is checked against its reference. Rounds continue while another
	// one of the last round's length still fits the budget.
	var lastRound time.Duration
	first := cycleStart(cycle, o.seed)
	for round := 0; len(runs) == 0 || time.Since(begin)+lastRound <= budget; round++ {
		t := time.Now()
		seed := cycle[(first+round)%len(cycle)]
		for _, traced := range []bool{false, true}[:1+*trace] {
			cr, err := runChild(ctx, runOpts{workload: def.name, seed: seed, trace: traced}, len(runs))
			if err != nil {
				failures = append(failures, err)
				fmt.Fprintln(os.Stderr, "hogperf:", err)
				if ctx.Err() != nil || len(failures) > 3 {
					return 1
				}
				continue
			}
			runs = append(runs, cr)
		}
		lastRound = time.Since(t)
	}

	bad := checkRuns(def.name, runs, refs)
	res := result{
		Attempted: len(runs) + len(failures),
		Failed:    bad + len(failures),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0
	collect := func(f func(childRun) float64, traced bool) float64 {
		var xs []float64
		for _, r := range runs {
			if r.traced == traced {
				xs = append(xs, f(r))
			}
		}
		return median(xs)
	}
	wall := func(r childRun) float64 { return r.res.Times.Wall }
	if !o.trace {
		vals := map[string]float64{
			"wall_s":      collect(wall, false),
			"setup_s":     collect(func(r childRun) float64 { return r.res.Times.Setup }, false),
			"provision_s": collect(func(r childRun) float64 { return r.res.Times.Provision }, false),
			"run_s":       collect(func(r childRun) float64 { return r.res.Times.Run }, false),
			"peak_rss_mb": collect(func(r childRun) float64 { return r.rssMB }, false),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		for _, m := range perLayer {
			name := m.name
			res.Metrics[name] = metricValue{collect(func(r childRun) float64 { return r.res.Layers[name] }, true), m.unit}
		}
		res.Metrics["trace.overhead_frac"] = metricValue{ratio(collect(wall, true), collect(wall, false)) - 1, "frac"}
	}
	return report(os.Stdout, def.name, o.seed, res, *record)
}

// runChild runs one repetition in a fresh process of this binary and
// returns its result with the process's peak resident memory.
func runChild(ctx context.Context, o runOpts, rep int) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childLimit)
	defer cancel()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "child", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--trace", trace, "--rep", strconv.Itoa(rep))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(maxProcs, runtime.NumCPU())))
	// A child must not outlive a parent process that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("run %d of %s seed %d: %w", rep, o.workload, o.seed, err)
	}
	cr := childRun{seed: o.seed, traced: o.trace}
	if err := json.Unmarshal(out.Bytes(), &cr.res); err != nil {
		return childRun{}, fmt.Errorf("run %d of %s: decode result: %w", rep, o.workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}

// checkRuns counts the runs whose outputs are wrong: they differ from the
// recorded reference for their workload seed, or chaos-repair's audit found
// a violation or an unpaired fault.
func checkRuns(name string, runs []childRun, refs refTable) int {
	bad := 0
	for i, r := range runs {
		want, ok := refs.lookup(name, r.seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "hogperf: run %d of %s: no reference for seed %d\n", i, name, r.seed)
			bad++
			continue
		}
		if diff := diffOutputs(want, r.res.Out); diff != "" {
			fmt.Fprintf(os.Stderr, "hogperf: run %d of %s seed %d: outputs differ from the reference: %s\n", i, name, r.seed, diff)
			bad++
			continue
		}
		if a := r.res.Out.Audit; a != nil && (a.Violations > 0 || !a.Paired) {
			fmt.Fprintf(os.Stderr, "hogperf: run %d of %s seed %d: %d audit violations (first: %s), faults paired: %v\n",
				i, name, r.seed, a.Violations, a.First, a.Paired)
			bad++
		}
	}
	return bad
}

// report prints every metric by name with its unit, then the JSON result as
// the last line.
func report(w *os.File, name string, seed int64, res result, record string) int {
	// failed_frac is printed here, not carried as a metric: it is 0 on every
	// correct invocation, and the result's attempted and failed hold it.
	fmt.Fprintf(w, "hogperf %s seed=%d runs=%d failed=%d failed_frac=%g\n",
		name, seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}
	if record != "" {
		if err := appendRecord(record, name, seed, res); err != nil {
			fmt.Fprintln(os.Stderr, "hogperf:", err)
			return 1
		}
	}
	fmt.Fprintln(w, string(line))
	return 0
}

// childMain performs one run and prints its runResult as JSON.
func childMain(args []string) int {
	fs := flag.NewFlagSet("hogperf child", flag.ContinueOnError)
	var o runOpts
	o.register(fs)
	trace := fs.Int("trace", 0, "1 traces the run")
	rep := fs.Int("rep", 0, "repetition index, for output file names")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "hogperf: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := childRunOnce(def, o.seed, *trace == 1, *rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}
	return 0
}

// cpuSeconds returns the user and system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// childRunOnce runs def once. A traced run records spans and a CPU profile,
// adds each layer's self time to the result, and writes both out.
func childRunOnce(def workloadDef, seed int64, traced bool, rep int) (runResult, error) {
	if !traced {
		return runOnce(def, seed, setupsPerRun, nil)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return runResult{}, fmt.Errorf("start profile: %w", err)
	}
	tr := &tracer{}
	cpu0 := cpuSeconds()
	res, err := runOnce(def, seed, 1, tr)
	cpu := cpuSeconds() - cpu0
	pprof.StopCPUProfile()
	if err != nil {
		return runResult{}, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return runResult{}, err
	}
	sum := 0.0
	for l, s := range selfTimes(samples) {
		res.Layers[l+".self_s"] = s
		sum += s
	}
	res.Layers["trace.samples"] = float64(len(samples))
	// The profile samples CPU time, which exceeds wall time by whatever ran
	// on a second processor (mostly the collector), so the self times must
	// sum to the run's CPU time.
	res.Layers["trace.self_sum_frac"] = ratio(sum, cpu)

	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-run%d", def.name, seed, rep))
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return runResult{}, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return runResult{}, err
	}
	if err := errors.Join(os.WriteFile(base+".spans.json", spans, 0o644), os.WriteFile(base+".pprof", prof.Bytes(), 0o644)); err != nil {
		return runResult{}, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}
