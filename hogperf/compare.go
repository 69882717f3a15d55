package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// record is one invocation's result, labelled for compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

func appendRecord(path, name string, seed int64, res result) error {
	line, err := json.Marshal(record{Workload: name, Seed: seed, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record %s: %w", path, err)
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints one row per workload and end-to-end metric for two
// result sets recorded with --record: each side's median and quartiles, the
// fraction of seed-paired runs the change wins, and a verdict by the rule
// the benchmark's bounds fix.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("hogperf compare", flag.ContinueOnError)
	parentPath := fs.String("parent", "", "records of the parent commit")
	changePath := fs.String("change", "", "records of the change")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	var parent, change []record
	if err == nil {
		parent, err = readRecords(*parentPath)
	}
	if err == nil {
		change, err = readRecords(*changePath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hogperf compare:", err)
		return 1
	}
	compare(os.Stdout, spec, parent, change)
	return 0
}

func compare(w io.Writer, spec benchSpec, parent, change []record) {
	names := map[string]bool{}
	for _, r := range append(slices.Clone(parent), change...) {
		names[r.Workload] = true
	}
	workloads := make([]string, 0, len(names))
	for n := range names {
		workloads = append(workloads, n)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-13s %-12s %-34s %-34s %7s %6s  %s\n", "workload", "metric", "parent median [q1 q3] n", "change median [q1 q3] n", "delta", "wins", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			pv, cv, pairs := sides(wl, m.Name, parent, change)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			lower := m.Better == "lower"
			wins := 0
			for _, p := range pairs {
				if (lower && p[1] < p[0]) || (!lower && p[1] > p[0]) {
					wins++
				}
			}
			pq, cq := quartiles(pv), quartiles(cv)
			delta := cq[1]/pq[1] - 1
			fmt.Fprintf(w, "%-13s %-12s %-34s %-34s %+6.1f%% %2d/%-3d  %s\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g] %d %s", pq[1], pq[0], pq[2], len(pv), m.Unit),
				fmt.Sprintf("%.4g [%.4g %.4g] %d %s", cq[1], cq[0], cq[2], len(cv), m.Unit),
				100*delta, wins, len(pairs), verdict(pv, cv, pq, cq, wins, len(pairs), lower, m.Bound))
		}
	}
}

// sides gathers one metric's values for a workload from each result set,
// and the (parent, change) pairs that share a seed.
func sides(wl, name string, parent, change []record) (pv, cv []float64, pairs [][2]float64) {
	bySeed := map[int64]float64{}
	for _, r := range parent {
		if v, ok := r.Result.Metrics[name]; ok && r.Workload == wl {
			pv = append(pv, v.Value)
			bySeed[r.Seed] = v.Value
		}
	}
	for _, r := range change {
		if v, ok := r.Result.Metrics[name]; ok && r.Workload == wl {
			cv = append(cv, v.Value)
			if p, ok := bySeed[r.Seed]; ok {
				pairs = append(pairs, [2]float64{p, v.Value})
			}
		}
	}
	return pv, cv, pairs
}

// verdict applies the benchmark's rule: a gain needs the change to win at
// least nine tenths of the pairs and the medians to differ by more than the
// parent's quartile spread; a regression is a median worse by more than the
// bound; a parent spread wider than the bound leaves the metric unresolved
// unless every change run beats every parent run.
func verdict(pv, cv []float64, pq, cq [3]float64, wins, pairs int, lower bool, bound float64) string {
	sign := 1.0
	if !lower {
		sign = -1
	}
	worse := sign * (cq[1] - pq[1]) / pq[1]
	spread := pq[2] - pq[0]
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(cq[1]-pq[1]) > spread:
		return "gain"
	case worse > bound:
		return "regression"
	case spread/pq[1] > bound && !allBetter(pv, cv, lower):
		return "unresolved"
	}
	return "no change"
}

func allBetter(pv, cv []float64, lower bool) bool {
	for _, p := range pv {
		for _, c := range cv {
			if (lower && c >= p) || (!lower && c <= p) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median, and third quartile of xs by
// the exclusive method Python's statistics.quantiles(xs, n=4) uses.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	if m == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
