package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// refsJSON holds the recorded reference outputs: workload name -> seed ->
// outputs. Regenerate it with "hogperf record" only when a change is meant
// to alter simulated results.
//
//go:embed refs.json
var refsJSON []byte

type refTable map[string]map[string]outputs

func loadRefs(data []byte) (refTable, error) {
	var t refTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("reference outputs: %w", err)
	}
	return t, nil
}

// seeds returns the workload seeds recorded for name, in ascending order.
func (t refTable) seeds(name string) []int64 {
	var out []int64
	for k := range t[name] {
		if s, err := strconv.ParseInt(k, 10, 64); err == nil {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// cycleStart is the position in cycle an invocation with seed starts at:
// the seed's own position when it is recorded, else the seed modulo the
// cycle length. The same seed always starts at the same input.
func cycleStart(cycle []int64, seed int64) int {
	if i := slices.Index(cycle, seed); i >= 0 {
		return i
	}
	n := int64(len(cycle))
	return int((seed%n + n) % n)
}

func (t refTable) lookup(name string, seed int64) (outputs, bool) {
	o, ok := t[name][strconv.FormatInt(seed, 10)]
	return o, ok
}

// diffOutputs names the top-level fields in which got differs from want,
// or returns "" when they are identical.
func diffOutputs(want, got outputs) string {
	var diffs []string
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s: want %+v, got %+v",
				wv.Type().Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface()))
		}
	}
	return strings.Join(diffs, "; ")
}

// recordMain runs each seed of a range once and stores the outputs as that
// workload's references. A chaos-repair seed whose audit is not clean is
// reported and left out.
func recordMain(args []string) int {
	fs := flag.NewFlagSet("hogperf record", flag.ContinueOnError)
	var o runOpts
	o.register(fs)
	seeds := fs.String("seeds", "1", "seed range, as lo-hi or a single seed")
	path := fs.String("refs", "hogperf/refs.json", "reference file to update")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := findWorkload(o.workload); !ok {
		fmt.Fprintf(os.Stderr, "hogperf: unknown workload %q\n", o.workload)
		return 2
	}
	lo, hi, err := parseRange(*seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 2
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}
	refs, err := loadRefs(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}
	if refs[o.workload] == nil {
		refs[o.workload] = map[string]outputs{}
	}
	status := 0
	for seed := lo; seed <= hi; seed++ {
		o.seed = seed
		cr, err := runChild(context.Background(), o, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hogperf:", err)
			return 1
		}
		out := cr.res.Out
		if a := out.Audit; a != nil && (a.Violations > 0 || !a.Paired) {
			fmt.Fprintf(os.Stderr, "hogperf: %s seed %d not recorded: %d audit violations (first: %s), faults paired %v\n",
				o.workload, seed, a.Violations, a.First, a.Paired)
			status = 1
			continue
		}
		refs[o.workload][strconv.FormatInt(seed, 10)] = out
		fmt.Fprintf(os.Stderr, "%s seed %d: response %.6f s, %d jobs failed, digest %s\n",
			o.workload, seed, float64(out.ResponseUs)/1e6, out.JobsFailed, out.digest())
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}
	if err := os.WriteFile(*path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hogperf:", err)
		return 1
	}
	return status
}

func parseRange(s string) (lo, hi int64, err error) {
	a, b, found := strings.Cut(s, "-")
	if lo, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
	}
	hi = lo
	if found {
		if hi, err = strconv.ParseInt(b, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("seed range %q: %w", s, err)
		}
	}
	return lo, hi, nil
}
