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
// -list names every experiment id; docs/HARNESS.md lists each one's metrics.
// Every run goes through internal/harness: the selected experiments are
// expanded into a trial matrix and executed across a bounded pool of
// -parallel workers. The output is each experiment's text report, or with
// -json the versioned results document; for a fixed seed set either is
// bit-identical for any -parallel value (docs/HARNESS.md records the schema
// and the determinism contract). The run's wall time goes to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"slices"
	"sort"
	"strings"

	"hog/internal/experiments"
	"hog/internal/harness"
	"hog/internal/hdfs"
	"hog/internal/mapred"
)

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

// listText renders the -list output: the experiment registry and its
// aliases, then the policy registries (already sorted by their Names
// functions).
func listText() string {
	var b strings.Builder
	for _, s := range harness.Specs() {
		fmt.Fprintf(&b, "%-10s %s\n", s.ID, s.Desc)
	}
	for _, a := range aliasIDs() {
		fmt.Fprintf(&b, "%-10s alias of %s\n", a, harness.Aliases()[a])
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

// aliasIDs returns the alias -exp values, sorted.
func aliasIDs() []string {
	var ids []string
	for a := range harness.Aliases() {
		ids = append(ids, a)
	}
	sort.Strings(ids)
	return ids
}

// experimentIDs returns every runnable -exp value, aliases last.
func experimentIDs() []string {
	var ids []string
	for _, s := range harness.Specs() {
		ids = append(ids, s.ID)
	}
	return append(ids, aliasIDs()...)
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
	if _, err := harness.Select(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s (use -list for details)\n",
			*exp, strings.Join(experimentIDs(), ", "))
		return 2
	}
	if err := runSuite(*exp, opts, *parallel, *jsonOut, *outPath); err != nil {
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

// runSuite executes the trial matrix on parallel workers and writes the
// text reports, or the JSON document when jsonOut is set. Timing goes to
// stderr so the output stays bit-identical across worker counts.
func runSuite(exp string, opts experiments.Options, parallel int, jsonOut bool, outPath string) error {
	// Open the output before the (potentially minutes-long) run, so a bad
	// path doesn't discard it.
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
