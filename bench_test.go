package hog

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation studies of DESIGN.md's per-experiment index. Each benchmark
// iteration executes the corresponding experiment end to end and reports the
// headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every row the paper reports at a bounded scale. For the
// paper-scale sweeps (all 12 Figure 4 points, 3 seeds each, the full 88-job
// schedule) use cmd/hogbench, whose output EXPERIMENTS.md records.

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"hog/internal/disk"
	"hog/internal/experiments"
	"hog/internal/harness"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/topology"
	"hog/internal/workload"
)

// benchOpts keeps a single benchmark iteration to a few seconds while
// preserving every experiment's qualitative shape.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale: 0.5,
		Seeds: []int64{1},
		Nodes: []int{40, 55, 99, 100, 180},
	}
}

// schedulerRun drives a 1008-node, 12-site MapReduce cluster through the
// scheduler's worst case: all input blocks live on 48 dedicated data nodes
// with zero map slots, so under delay scheduling every one of the ~960
// worker trackers holds a free slot whose every heartbeat probes all 24
// queued jobs — for the scan path, every map of every job, O(jobs x tasks x
// trackers) per wave — and declines the non-local work until LocalityWait
// expires near the end of the horizon, when remote launches flood out. The
// event stream is identical under both scheduler paths (they are
// bit-identical), so wall-clock differences are assignment-path cost alone.
// Returns total map attempts launched as the cross-path self-check.
func schedulerRun(scan bool) int {
	const (
		nSites      = 12
		perSite     = 84
		dataPerSite = 4 // slotless block hosts; the rest are workers
		nJobs       = 24
		nMaps       = 50
		blockLen    = 8e6
	)
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	dt := disk.NewTracker()
	nnCfg := hdfs.HOGConfig()
	nnCfg.Replication = 2
	nnCfg.BlockSize = blockLen
	nn := hdfs.NewNamenode(eng, net, dt, nnCfg)
	jtCfg := mapred.DefaultConfig()
	jtCfg.TrackerTimeout = 60 * sim.Second
	jtCfg.LocalityWait = 3 * sim.Minute
	jtCfg.ScanScheduler = scan
	jt := mapred.NewJobTracker(eng, net, nn, dt, jtCfg)
	mapper := topology.NewMapper()
	var nodes, workers []netmodel.NodeID
	for s := 0; s < nSites; s++ {
		dom := fmt.Sprintf("site%d.edu", s)
		sid := net.AddSite(dom, 300e6, 300e6)
		for i := 0; i < perSite; i++ {
			host := fmt.Sprintf("wn%d.%s", i, dom)
			id := net.AddNode(sid, host)
			nn.Register(id, host)
			if i < dataPerSite {
				dt.SetCapacity(id, 100e9)
				jt.RegisterTracker(id, host, mapper.Site(host), 0, 1)
			} else {
				dt.SetCapacity(id, 1e6) // too small for a block: no replicas land here
				jt.RegisterTracker(id, host, mapper.Site(host), 1, 1)
				workers = append(workers, id)
			}
			nodes = append(nodes, id)
		}
	}
	nn.Start()
	jt.Start()
	eng.Every(3*sim.Second, func() {
		for _, id := range nodes {
			nn.Heartbeat(id)
			jt.Heartbeat(id)
		}
	})
	for i := 0; i < nJobs; i++ {
		name := fmt.Sprintf("sched%02d", i)
		nn.SeedFile("/in/"+name, nMaps*blockLen, 0)
		jt.Submit(mapred.JobConfig{Name: name, InputFile: "/in/" + name, Reduces: 1})
	}
	// Workers get real scratch space only after seeding pinned the input to
	// the data nodes.
	for _, id := range workers {
		dt.SetCapacity(id, 100e9)
	}
	eng.RunWhile(func() bool { return !jt.AllDone() && eng.Now() < 4*sim.Minute })
	started := 0
	for _, j := range jt.Jobs() {
		started += j.Counters().MapAttemptsStarted
	}
	return started
}

// BenchmarkScheduler compares the indexed assignment path (the default)
// against the retained linear-scan baseline on a ~1000-node grid. The
// acceptance bar for this PR is indexed <= scan/5 ns/op.
func BenchmarkScheduler(b *testing.B) {
	want := -1
	for _, mode := range []struct {
		name string
		scan bool
	}{{"indexed", false}, {"scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := schedulerRun(mode.scan)
				if got == 0 {
					b.Fatal("no map attempts launched")
				}
				if want == -1 {
					want = got
				} else if got != want {
					b.Fatalf("paths diverge: %d map attempts vs %d", got, want)
				}
			}
		})
	}
}

// largeGridQuick and gigaGridQuick are the seed-1, scale-0.25 results
// recorded when the binary heap, the sequential timing wheel and the
// site-sharded engine were all still selectable and all produced exactly
// these values. The benchmarks below check every run against them, so a
// faster engine can never buy its speed with a different simulation.
var (
	largeGridQuick = experiments.LargeGridResult{
		Target: 1000, Sites: 12, Response: 496493204, EventsFired: 49410,
		FlowsStarted: 21780, CrossSiteFrac: 0.8870060688270149, JobsFailed: 0,
	}
	gigaGridQuick = experiments.GigaGridResult{
		Target: 100000, Sites: 104, Reached: 99682, Response: 724800000, EventsFired: 449948,
		FlowsStarted: 22527, CrossSiteFrac: 0.9867615971428944, JobsFailed: 0,
	}
)

// BenchmarkLargeGrid runs the Facebook workload end to end on the ~1000-node
// twelve-site preset — the scale the incremental rebalancer was built to
// open.
func BenchmarkLargeGrid(b *testing.B) {
	var r experiments.LargeGridResult
	for i := 0; i < b.N; i++ {
		r = experiments.LargeGrid(experiments.Options{Scale: 0.25, Seeds: []int64{1}})
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
// ramp plus workload execution; quick-mode CI runs it once and uploads the
// harness document as BENCH_mega.json.
func BenchmarkMegaGrid(b *testing.B) {
	var r experiments.MegaGridResult
	for i := 0; i < b.N; i++ {
		r = experiments.MegaGrid(experiments.Options{Scale: 0.25, Seeds: []int64{1}})
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
	var r experiments.GigaGridResult
	for i := 0; i < b.N; i++ {
		r = experiments.GigaGrid(experiments.Options{Scale: 0.25, Seeds: []int64{1}})
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

// BenchmarkTable1FacebookBins regenerates Table I: the Facebook bin
// distribution and a generated 88-job schedule over it.
func BenchmarkTable1FacebookBins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintTable1(io.Discard)
		s := workload.Generate(int64(i)+1, workload.Config{})
		if len(s.Jobs) != 88 {
			b.Fatalf("schedule has %d jobs, want 88", len(s.Jobs))
		}
	}
	b.ReportMetric(88, "jobs")
	b.ReportMetric(float64(workload.TotalMaps(workload.Table2())), "map-tasks")
}

// BenchmarkTable2TruncatedWorkload regenerates Table II.
func BenchmarkTable2TruncatedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintTable2(io.Discard)
	}
	bins := workload.Table2()
	b.ReportMetric(float64(len(bins)), "bins")
	b.ReportMetric(float64(workload.TotalJobs(bins)), "jobs")
}

// BenchmarkTable3DedicatedCluster measures the Figure 4 dashed line: the
// Table III cluster running the Facebook schedule.
func BenchmarkTable3DedicatedCluster(b *testing.B) {
	var r experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3(benchOpts())
	}
	if r.Nodes != 30 || r.MapSlots != 100 || r.ReduceSlots != 30 {
		b.Fatalf("cluster shape %d/%d/%d, want 30/100/30", r.Nodes, r.MapSlots, r.ReduceSlots)
	}
	b.ReportMetric(r.Response.Seconds(), "response-s")
}

// BenchmarkFig4EquivalentPerformance sweeps HOG pool sizes against the
// dedicated cluster and reports the crossover point (paper: [99,100]).
func BenchmarkFig4EquivalentPerformance(b *testing.B) {
	var r experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(benchOpts())
	}
	b.ReportMetric(r.Cluster.Seconds(), "cluster-s")
	for _, p := range r.Points {
		if p.Nodes == 55 {
			b.ReportMetric(p.Mean.Seconds(), "hog55-s")
		}
		if p.Nodes == 100 {
			b.ReportMetric(p.Mean.Seconds(), "hog100-s")
		}
	}
	if r.Crossover < 0 {
		b.Log("no crossover in benchmark-scale sweep")
	} else {
		b.ReportMetric(float64(r.Crossover), "crossover-nodes")
	}
}

// BenchmarkFig5NodeFluctuation regenerates the three Figure 5 node series.
func BenchmarkFig5NodeFluctuation(b *testing.B) {
	var runs []experiments.FluctuationRun
	for i := 0; i < b.N; i++ {
		runs = experiments.Fig5Table4(benchOpts())
	}
	if len(runs) != 3 {
		b.Fatalf("runs = %d, want 3 (5a, 5b, 5c)", len(runs))
	}
	for _, r := range runs {
		if r.Series.Len() == 0 {
			b.Fatal("empty availability series")
		}
	}
	b.ReportMetric(runs[2].Response.Seconds()-runs[0].Response.Seconds(), "unstable-penalty-s")
}

// BenchmarkTable4AreaBeneathCurves reports the Table IV statistics: response
// time and area beneath the availability curve for the Figure 5 runs.
func BenchmarkTable4AreaBeneathCurves(b *testing.B) {
	var runs []experiments.FluctuationRun
	for i := 0; i < b.N; i++ {
		runs = experiments.Fig5Table4(benchOpts())
	}
	for _, r := range runs {
		label := strings.Fields(r.Label)[0]
		b.ReportMetric(r.Response.Seconds(), label+"-resp-s")
		b.ReportMetric(r.Area/1000, label+"-area-kns")
	}
}

// BenchmarkAblationSiteAwareness: whole-site failure with and without
// HOG's site-aware placement and replication 10 (§III.B.1).
func BenchmarkAblationSiteAwareness(b *testing.B) {
	var rs []experiments.SiteFailureResult
	for i := 0; i < b.N; i++ {
		rs = experiments.SiteFailure(benchOpts())
	}
	if rs[0].BlocksLost != 0 {
		b.Fatalf("HOG config lost %d blocks on site failure, want 0", rs[0].BlocksLost)
	}
	b.ReportMetric(float64(rs[0].BlocksLost), "hog-blocks-lost")
	b.ReportMetric(float64(rs[1].BlocksLost), "naive-blocks-lost")
	b.ReportMetric(float64(rs[1].JobsFailed), "naive-jobs-failed")
}

// BenchmarkAblationReplicationFactor sweeps the replication factor under
// unstable churn (§III.B.1's 3-vs-10 trade-off).
func BenchmarkAblationReplicationFactor(b *testing.B) {
	var rs []experiments.ReplicationResult
	for i := 0; i < b.N; i++ {
		rs = experiments.ReplicationSweep(benchOpts())
	}
	for _, r := range rs {
		switch r.Repl {
		case 3:
			b.ReportMetric(float64(r.BlocksLost), "repl3-blocks-lost")
		case 10:
			b.ReportMetric(float64(r.BlocksLost), "repl10-blocks-lost")
			b.ReportMetric(r.BytesReplicated/1e9, "repl10-recovery-GB")
		}
	}
}

// BenchmarkAblationHeartbeatTimeout compares HOG's 30 s dead timeout with
// the traditional 15 minutes under churn (§III.B).
func BenchmarkAblationHeartbeatTimeout(b *testing.B) {
	var rs []experiments.HeartbeatResult
	for i := 0; i < b.N; i++ {
		rs = experiments.HeartbeatSweep(benchOpts())
	}
	b.ReportMetric(rs[0].Response.Seconds(), "timeout30s-resp-s")
	b.ReportMetric(rs[1].Response.Seconds(), "timeout900s-resp-s")
	if rs[0].Response >= rs[1].Response {
		b.Log("warning: 30s timeout not faster in this run (stochastic)")
	}
}

// BenchmarkAblationZombieDatanodes compares the three §IV.D.1 behaviours.
func BenchmarkAblationZombieDatanodes(b *testing.B) {
	var rs []experiments.ZombieResult
	for i := 0; i < b.N; i++ {
		rs = experiments.ZombieSweep(benchOpts())
	}
	for _, r := range rs {
		b.ReportMetric(float64(r.JobsFailed), r.Mode.String()+"-jobs-failed")
	}
	// The fix must eliminate job failures.
	if rs[2].JobsFailed != 0 {
		b.Fatalf("fixed mode failed %d jobs", rs[2].JobsFailed)
	}
}

// BenchmarkAblationDiskOverflow reproduces §IV.D.2: shrinking scratch disks
// until accumulated intermediate output kills workers.
func BenchmarkAblationDiskOverflow(b *testing.B) {
	var rs []experiments.DiskOverflowResult
	for i := 0; i < b.N; i++ {
		rs = experiments.DiskOverflow(benchOpts())
	}
	b.ReportMetric(float64(rs[0].Killed), "disk-ample-killed")
	b.ReportMetric(float64(rs[len(rs)-1].Killed), "disk-tight-killed")
	if rs[0].Killed > 0 {
		b.Fatalf("ample disks still overflowed (%d workers killed)", rs[0].Killed)
	}
}

// BenchmarkAblationRedundantCopies explores the paper's §VI future work:
// configurable task copy counts under churn.
func BenchmarkAblationRedundantCopies(b *testing.B) {
	var rs []experiments.NCopyResult
	for i := 0; i < b.N; i++ {
		rs = experiments.RedundantCopies(benchOpts())
	}
	for _, r := range rs {
		name := "copies2"
		switch {
		case r.Copies == 1:
			name = "nospec"
		case r.Copies == 2 && r.Eager:
			name = "eager2"
		case r.Copies == 3:
			name = "eager3"
		}
		b.ReportMetric(r.Response.Seconds(), name+"-resp-s")
	}
}

// BenchmarkAblationDelayScheduling compares HOG's FIFO against delay
// scheduling (Zaharia et al. [3]) at a contended replication factor.
func BenchmarkAblationDelayScheduling(b *testing.B) {
	var rs []experiments.DelayResult
	for i := 0; i < b.N; i++ {
		rs = experiments.DelayScheduling(benchOpts())
	}
	b.ReportMetric(100*rs[0].LocalityRate, "fifo-local-pct")
	b.ReportMetric(100*rs[len(rs)-1].LocalityRate, "delay45s-local-pct")
	if rs[len(rs)-1].LocalityRate < rs[0].LocalityRate {
		b.Fatal("delay scheduling reduced locality")
	}
}

// BenchmarkAblationHODBaseline compares Hadoop On Demand's per-job cluster
// reconstruction with HOG's persistent platform (§V).
func BenchmarkAblationHODBaseline(b *testing.B) {
	var rs []experiments.HODResultRow
	for i := 0; i < b.N; i++ {
		rs = experiments.HODComparison(benchOpts())
	}
	b.ReportMetric(rs[0].Response.Seconds(), "hod-resp-s")
	b.ReportMetric(rs[1].Response.Seconds(), "hog-resp-s")
	if rs[0].Response <= rs[1].Response {
		b.Fatal("HOD not slower than HOG; reconstruction overhead lost")
	}
}
