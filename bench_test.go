package hog

// End-to-end benchmarks: the three scale points, each checked against a
// recorded result or its shape, and the whole quick experiment matrix
// through the harness, checked against the paper's qualitative shapes. The
// experiments' own shape tests live in internal/experiments; for the
// paper-scale sweeps (all 12 Figure 4 points, 3 seeds each, the full 88-job
// schedule) use cmd/hogbench.

import (
	"context"
	"io"
	"os"
	"runtime"
	"testing"

	"hog/internal/experiments"
	"hog/internal/harness"
)

// largeGridQuick and gigaGridQuick are the seed-1, scale-0.25 results
// recorded when the binary heap, the sequential timing wheel and the
// site-sharded engine were all still selectable and all produced exactly
// these values. The benchmarks below check every run against them, so a
// faster engine can never buy its speed with a different simulation. The
// LARGE-GRID Reached count was read later from the same run, on code whose
// results matched every other field here.
var (
	largeGridQuick = experiments.ScaleGridResult{
		Target: 1000, Sites: 12, Reached: 999, Response: 496493204, EventsFired: 49410,
		FlowsStarted: 21780, CrossSiteFrac: 0.8870060688270149, JobsFailed: 0,
	}
	gigaGridQuick = experiments.ScaleGridResult{
		Target: 100000, Sites: 104, Reached: 99682, Response: 724800000, EventsFired: 449948,
		FlowsStarted: 22527, CrossSiteFrac: 0.9867615971428944, JobsFailed: 0,
	}
)

// BenchmarkLargeGrid runs the Facebook workload end to end on the ~1000-node
// twelve-site preset — the scale the incremental rebalancer was built to
// open.
func BenchmarkLargeGrid(b *testing.B) {
	var r experiments.ScaleGridResult
	for i := 0; i < b.N; i++ {
		r = experiments.ScaleGrid(experiments.Options{Scale: 0.25, Seeds: []int64{1}}, experiments.LargeGridPreset)
	}
	if r != largeGridQuick {
		b.Fatalf("result diverged from the recorded run:\n got  %+v\n want %+v", r, largeGridQuick)
	}
	b.ReportMetric(r.Response.Seconds(), "response-s")
	b.ReportMetric(float64(r.EventsFired), "events")
	b.ReportMetric(100*r.CrossSiteFrac, "cross-site-%")
}

// BenchmarkMegaGrid runs the Facebook workload end to end at the MEGA-GRID
// scale: ~10,000 nodes over forty sites, an order of magnitude past
// LARGE-GRID and two past the paper. One iteration is a full provisioning
// ramp plus workload execution; quick-mode CI runs it once.
func BenchmarkMegaGrid(b *testing.B) {
	var r experiments.ScaleGridResult
	for i := 0; i < b.N; i++ {
		r = experiments.ScaleGrid(experiments.Options{Scale: 0.25, Seeds: []int64{1}}, experiments.MegaGridPreset)
	}
	if r.JobsFailed != 0 {
		b.Fatalf("%d jobs failed on the stable mega grid", r.JobsFailed)
	}
	b.ReportMetric(r.Response.Seconds(), "response-s")
	b.ReportMetric(float64(r.EventsFired), "events")
	b.ReportMetric(float64(r.Reached), "nodes")
}

// BenchmarkGigaGrid runs the Facebook workload end to end at the GIGA-GRID
// scale: ~100,000 slots over 104 sites, an order of magnitude past
// MEGA-GRID and three past the paper.
func BenchmarkGigaGrid(b *testing.B) {
	var r experiments.ScaleGridResult
	for i := 0; i < b.N; i++ {
		r = experiments.ScaleGrid(experiments.Options{Scale: 0.25, Seeds: []int64{1}}, experiments.GigaGridPreset)
	}
	if r != gigaGridQuick {
		b.Fatalf("result diverged from the recorded run:\n got  %+v\n want %+v", r, gigaGridQuick)
	}
	b.ReportMetric(r.Response.Seconds(), "response-s")
	b.ReportMetric(float64(r.EventsFired), "events")
	b.ReportMetric(float64(r.Reached), "nodes")
}

// BenchmarkHarnessSuite runs the full experiment matrix through the
// parallel harness and emits the same versioned JSON results document
// hogbench -json produces. Set HOG_BENCH_JSON=path to keep the document as
// a CI artifact; otherwise it is discarded after serialization.
func BenchmarkHarnessSuite(b *testing.B) {
	var doc *harness.Doc
	for i := 0; i < b.N; i++ {
		var err error
		doc, err = harness.RunSuite(context.Background(), []string{"all"}, experiments.Quick(), runtime.NumCPU())
		if err != nil {
			b.Fatal(err)
		}
	}
	trials := 0
	for _, e := range doc.Experiments {
		trials += len(e.Trials)
	}
	b.ReportMetric(float64(trials), "trials")
	checkShapes(b, doc)
	out := io.Writer(io.Discard)
	if path := os.Getenv("HOG_BENCH_JSON"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := doc.WriteJSON(out); err != nil {
		b.Fatal(err)
	}
}

// checkShapes asserts the paper's qualitative results on the quick suite
// document: the Table I schedule and the Table III cluster shape, Figure 5's
// availability series, and the outcome each failure study exists to show.
func checkShapes(b *testing.B, doc *harness.Doc) {
	b.Helper()
	metric := func(exp, point, key string) float64 {
		for _, e := range doc.Experiments {
			for _, t := range e.Trials {
				if e.ID == exp && t.Point == point {
					if v, ok := t.Metrics[key]; ok {
						return v
					}
				}
			}
		}
		b.Fatalf("suite document has no %s %q metric %s", exp, point, key)
		return 0
	}
	hod, hog := experiments.HODSystems()[0], experiments.HODSystems()[1]
	checks := []struct {
		what string
		ok   bool
	}{
		{"the Table I schedule has 88 jobs", metric("table1", "schedule", "jobs") == 88},
		{"the Table III cluster is 30 nodes, 100 map slots, 30 reduce slots",
			metric("table3", "cluster", "nodes") == 30 && metric("table3", "cluster", "map_slots") == 100 &&
				metric("table3", "cluster", "reduce_slots") == 30},
		{"every Figure 5 run has an availability series",
			metric("fig5", "5a (55 stable nodes)", "samples") > 0 && metric("fig5", "5b (55 stable nodes)", "samples") > 0 &&
				metric("fig5", "5c (55 unstable nodes)", "samples") > 0},
		{"HOG loses no blocks on a whole-site failure", metric("site", "HOG (repl 10, site-aware)", "blocks_lost") == 0},
		{"fixed zombie handling fails no jobs", metric("zombie", "mode=fixed", "jobs_failed") == 0},
		{"ample disks kill no workers", metric("disk", "disk=10.00x", "workers_killed") == 0},
		{"delay scheduling does not lower locality",
			metric("delay", "wait=45s", "locality_rate") >= metric("delay", "wait=0s", "locality_rate")},
		{"HOD is slower than HOG", metric("hod", hod, "response_s") > metric("hod", hog, "response_s")},
	}
	for _, c := range checks {
		if !c.ok {
			b.Errorf("quick suite: want %s", c.what)
		}
	}
}
