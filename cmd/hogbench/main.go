// Command hogbench regenerates the paper's tables and figures plus the
// repository's ablation studies.
//
// Usage:
//
//	hogbench -exp all                  # everything, paper scale (several minutes)
//	hogbench -exp fig4 -quick          # one experiment, reduced scale
//	hogbench -exp all -parallel 8      # trial matrix across 8 workers
//	hogbench -exp all -json -out r.json # versioned JSON results document
//	hogbench -list                     # show available experiment ids
//
// Experiment ids map to the paper via DESIGN.md's per-experiment index.
// With -json or -parallel > 1 the run goes through internal/harness: the
// experiments are expanded into a trial matrix and executed across a
// bounded worker pool; for a fixed seed set the JSON document is
// bit-identical for any -parallel value (docs/HARNESS.md records the
// schema and the determinism contract). Without either flag the classic
// sequential text report is printed unchanged.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"slices"
	"strings"

	"hog/internal/experiments"
	"hog/internal/harness"
	"hog/internal/hdfs"
	"hog/internal/mapred"
)

type runner struct {
	id    string
	desc  string
	alias bool // duplicates another id; skipped in -exp all
	run   func(w io.Writer, opts experiments.Options)
}

// printers maps experiment ids to their classic text formatters. Ids and
// descriptions come from harness.Specs(), so the text and harness paths
// can never drift apart.
var printers = map[string]func(io.Writer, experiments.Options){
	"table1":    func(w io.Writer, _ experiments.Options) { experiments.PrintTable1(w) },
	"table2":    func(w io.Writer, _ experiments.Options) { experiments.PrintTable2(w) },
	"table3":    experiments.PrintTable3,
	"fig4":      experiments.PrintFig4,
	"fig5":      experiments.PrintFig5Table4,
	"site":      experiments.PrintSiteFailure,
	"repl":      experiments.PrintReplicationSweep,
	"heartbeat": experiments.PrintHeartbeatSweep,
	"zombie":    experiments.PrintZombieSweep,
	"disk":      experiments.PrintDiskOverflow,
	"ncopy":     experiments.PrintRedundantCopies,
	"delay":     experiments.PrintDelayScheduling,
	"hod":       experiments.PrintHODComparison,
	"grid":      experiments.PrintLargeGrid,
	"mega":      experiments.PrintMegaGrid,
	"giga":      experiments.PrintGigaGrid,
	"sched":     experiments.PrintSchedScale,
	"events":    experiments.PrintEventCounts,
	"chaos":     experiments.PrintChaos,
	"chaos2":    experiments.PrintChaos2,
	"policy":    experiments.PrintPolicy,
	"whatif":    experiments.PrintWhatIf,
}

// runners derives the text-path registry from the harness spec registry,
// inserting the table4 alias after fig5.
func runners() []runner {
	var out []runner
	for _, s := range harness.Specs() {
		p, ok := printers[s.ID]
		if !ok {
			panic(fmt.Sprintf("hogbench: no printer for experiment %q", s.ID))
		}
		out = append(out, runner{id: s.ID, desc: s.Desc, run: p})
		if s.ID == "fig5" {
			out = append(out, runner{id: "table4", desc: "Table IV (alias of fig5)", alias: true, run: p})
		}
	}
	return out
}

// policyFlags describes the global policy-forcing flags: each row is one
// decision point with its flag name and registry listing. listText and the
// flag validation both walk this table, so -list can never drift from what
// the flags accept.
type policyFlag struct {
	flag  string
	desc  string
	names func() []string
}

func policyFlags() []policyFlag {
	return []policyFlag{
		{"sched", "job-ordering policy", mapred.SchedulerPolicyNames},
		{"place", "block-placement policy", hdfs.PlacementPolicyNames},
		{"spec", "straggler criterion", mapred.SpeculationPolicyNames},
		{"repl", "block-recovery order", hdfs.ReplicationOrderNames},
	}
}

// listText renders the -list output: the experiment registry followed by the
// policy registries (already sorted by their Names functions).
func listText() string {
	var b strings.Builder
	for _, r := range runners() {
		fmt.Fprintf(&b, "%-10s %s\n", r.id, r.desc)
	}
	b.WriteString("\npolicies (forced globally by flag; swept by -exp policy):\n")
	for _, p := range policyFlags() {
		fmt.Fprintf(&b, "  -%-6s %-22s %s\n", p.flag, p.desc, strings.Join(p.names(), ", "))
	}
	return b.String()
}

// checkPolicyName validates one policy flag value against its registry,
// returning a usage error naming the valid choices. Empty keeps the default.
func checkPolicyName(pf policyFlag, val string) error {
	if val == "" || slices.Contains(pf.names(), val) {
		return nil
	}
	return fmt.Errorf("unknown %s %q for -%s; known: %s",
		pf.desc, val, pf.flag, strings.Join(pf.names(), ", "))
}

// experimentIDs returns every runnable -exp value, aliases included.
func experimentIDs() []string {
	var ids []string
	for _, r := range runners() {
		ids = append(ids, r.id)
	}
	return ids
}

// main delegates to run so deferred profile writers flush on every exit
// path — os.Exit would skip them and leave truncated pprof files.
func main() {
	if code := run(); code != 0 {
		os.Exit(code)
	}
}

func run() int {
	exp := flag.String("exp", "all", "experiment id (see -list)")
	quick := flag.Bool("quick", false, "reduced scale and single seed")
	list := flag.Bool("list", false, "list experiment ids")
	scale := flag.Float64("scale", 0, "override workload scale (0 = preset)")
	scan := flag.Bool("scan", false, "force the linear-scan scheduler baseline (results must be bit-identical)")
	schedPol := flag.String("sched", "", "force a job-ordering policy in every run (see -list)")
	placePol := flag.String("place", "", "force a block-placement policy in every run (see -list)")
	specPol := flag.String("spec", "", "force a straggler criterion in every run (see -list)")
	replPol := flag.String("repl", "", "force a block-recovery order in every run (see -list)")
	parallel := flag.Int("parallel", 1, "worker pool size for the trial matrix")
	jsonOut := flag.Bool("json", false, "emit the versioned JSON results document")
	outPath := flag.String("out", "", "write output to this file instead of stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settled live-heap numbers, not allocation noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	rs := runners()
	if *list {
		fmt.Print(listText())
		return 0
	}

	opts := experiments.Full()
	if *quick {
		opts = experiments.Quick()
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	opts.ScanScheduler = *scan
	opts.SchedulerPolicy = *schedPol
	opts.PlacementPolicy = *placePol
	opts.SpeculationPolicy = *specPol
	opts.ReplicationOrder = *replPol
	for i, val := range []string{*schedPol, *placePol, *specPol, *replPol} {
		if err := checkPolicyName(policyFlags()[i], val); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	// Validate the id before touching -out, so a typo can't truncate a
	// previous artifact.
	valid := *exp == "all"
	for _, r := range rs {
		if r.id == *exp {
			valid = true
		}
	}
	if !valid {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s (use -list for details)\n",
			*exp, strings.Join(experimentIDs(), ", "))
		return 2
	}

	if *jsonOut || *parallel > 1 {
		if err := runHarness(*exp, opts, *parallel, *jsonOut, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return 0
	}

	out, err := openOut(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, r := range rs {
		if *exp != "all" && *exp != r.id {
			continue
		}
		if *exp == "all" && r.alias {
			continue
		}
		start := time.Now()
		r.run(out, opts)
		fmt.Fprintf(out, "[%s done in %.1fs]\n\n", r.id, time.Since(start).Seconds())
	}
	if err := closeOut(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}

// openOut returns stdout, or the named file when -out is set.
func openOut(path string) (*os.File, error) {
	if path == "" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

// closeOut closes an openOut file, leaving stdout alone.
func closeOut(f *os.File) error {
	if f == os.Stdout {
		return nil
	}
	return f.Close()
}

// runHarness executes the trial matrix through the parallel harness and
// emits the results as JSON or a generic text table. Timing goes to stderr
// so the document stays bit-identical across worker counts.
func runHarness(exp string, opts experiments.Options, parallel int, jsonOut bool, outPath string) error {
	// Validate the selection and open the output before the (potentially
	// minutes-long) run, so neither a bad id nor a bad path discards it.
	if _, err := harness.Select(exp); err != nil {
		return err
	}
	out, err := openOut(outPath)
	if err != nil {
		return err
	}
	start := time.Now()
	doc, err := harness.RunSuite(context.Background(), []string{exp}, opts, parallel)
	if err != nil {
		closeOut(out)
		return err
	}
	trials := 0
	for _, e := range doc.Experiments {
		trials += len(e.Trials)
	}
	fmt.Fprintf(os.Stderr, "[%d trials on %d workers in %.1fs]\n", trials, parallel, time.Since(start).Seconds())
	if jsonOut {
		if err := doc.WriteJSON(out); err != nil {
			closeOut(out)
			return err
		}
	} else {
		doc.WriteText(out)
	}
	return closeOut(out)
}
