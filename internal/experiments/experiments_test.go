package experiments

import (
	"bytes"
	"strings"
	"testing"

	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/workload"
)

// tiny returns very cheap options for unit-testing the harnesses.
func tiny() Options {
	return Options{Scale: 0.1, Seeds: []int64{1}, Nodes: []int{20, 40}}
}

// runCells runs every cell of experiment id under opts, in cell order, and
// returns the typed rows.
func runCells[R any](t *testing.T, id string, opts Options) []R {
	t.Helper()
	e := experiment(t, id)
	var rows []R
	for _, c := range e.Cells(opts.WithDefaults()) {
		rows = append(rows, c.Run().(R))
	}
	return rows
}

// report renders experiment id's text report over rows.
func report[R any](t *testing.T, id string, rows []R) string {
	t.Helper()
	erased := make([]any, len(rows))
	for i, r := range rows {
		erased[i] = r
	}
	var buf bytes.Buffer
	experiment(t, id).Report(&buf, erased)
	return buf.String()
}

func experiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %q", id)
	return Experiment{}
}

func TestPrintTables(t *testing.T) {
	if out := report(t, "table1", runCells[Table1Result](t, "table1", tiny())); !strings.Contains(out, "88 jobs") {
		t.Fatalf("Table1 output missing schedule: %s", out)
	}
	if out := report(t, "table2", runCells[Table2Result](t, "table2", tiny())); !strings.Contains(out, "2410 map tasks") {
		t.Fatalf("Table2 output missing total: %s", out)
	}
}

func TestTable3Audit(t *testing.T) {
	r := Table3(tiny())
	if r.Nodes != 30 || r.MapSlots != 100 || r.ReduceSlots != 30 {
		t.Fatalf("cluster shape %+v", r)
	}
	if r.Response <= 0 {
		t.Fatal("no response measured")
	}
}

func TestFig4Shape(t *testing.T) {
	rows := runCells[Fig4TrialResult](t, "fig4", tiny())
	if len(rows) != 3 || rows[0].Nodes != 30 { // the cluster, then 20 and 40 nodes
		t.Fatalf("rows = %+v", rows)
	}
	// More nodes must be at least as fast at this scale.
	if rows[2].Response > rows[1].Response {
		t.Fatalf("40 nodes (%v) slower than 20 (%v)", rows[2].Response, rows[1].Response)
	}
	if !strings.Contains(report(t, "fig4", rows), "cluster") {
		t.Fatal("Fig4 output missing cluster line")
	}
}

// TestFig4Report checks the per-point mean and the crossover over rows
// repeated across seeds.
func TestFig4Report(t *testing.T) {
	rows := []Fig4TrialResult{
		{Nodes: 30, Response: 100 * sim.Second},
		{Nodes: 40, Response: 120 * sim.Second}, {Nodes: 40, Response: 130 * sim.Second},
		{Nodes: 50, Response: 90 * sim.Second}, {Nodes: 50, Response: 100 * sim.Second},
	}
	out := report(t, "fig4", rows)
	for _, want := range []string{
		"       40       120     130       125    +25.0%\n",
		"       50        90     100        95     -5.0%\n",
		"crossover (equivalent performance) at 50 nodes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestPolicyReport checks that a policy's row averages its seeds and sums
// their failed jobs.
func TestPolicyReport(t *testing.T) {
	rows := []PolicyTrialResult{
		{Kind: "sched", Name: "fifo", Response: 100 * sim.Second, P95: 50 * sim.Second, LocalityRate: 0.5, SlotUtil: 0.2, JobsFailed: 1},
		{Kind: "sched", Name: "fifo", Response: 200 * sim.Second, P95: 70 * sim.Second, LocalityRate: 0.7, SlotUtil: 0.4, JobsFailed: 2},
		{Kind: "sched", Name: "fair", Response: 90 * sim.Second, P95: 40 * sim.Second, LocalityRate: 0.6, SlotUtil: 0.3},
	}
	out := report(t, "policy", rows)
	for _, want := range []string{
		"sched  fifo                150       60     0.600     0.300           3\n",
		"sched  fair                 90       40     0.600     0.300           0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Table4Runs(t *testing.T) {
	runs := runCells[FluctuationRun](t, "fig5", tiny())
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		if r.Response <= 0 || r.Area <= 0 || r.Series.Len() == 0 {
			t.Fatalf("degenerate run %+v", r.Label)
		}
	}
}

func TestSiteFailureShape(t *testing.T) {
	rs := runCells[SiteFailureResult](t, "site", tiny())
	if rs[0].BlocksLost != 0 {
		t.Fatalf("HOG lost %d blocks", rs[0].BlocksLost)
	}
	if rs[1].BlocksLost == 0 {
		t.Log("naive config lost nothing at tiny scale (possible); rerun at larger scale in hogbench")
	}
}

func TestHeartbeatSweepShape(t *testing.T) {
	rs := runCells[HeartbeatResult](t, "heartbeat", tiny())
	if len(rs) != 2 || rs[0].Timeout != 30*sim.Second || rs[1].Timeout != 900*sim.Second {
		t.Fatalf("sweep shape %+v", rs)
	}
}

func TestZombieSweepShape(t *testing.T) {
	rs := runCells[ZombieResult](t, "zombie", tiny())
	if len(rs) != 3 {
		t.Fatalf("rows = %d", len(rs))
	}
	// The fixed mode must not fail jobs.
	if rs[2].JobsFailed != 0 {
		t.Fatalf("fixed mode failed %d jobs", rs[2].JobsFailed)
	}
}

func TestDiskOverflowShape(t *testing.T) {
	rs := runCells[DiskOverflowResult](t, "disk", tiny())
	if rs[0].Killed != 0 {
		t.Fatalf("ample disk killed %d workers", rs[0].Killed)
	}
	if rs[len(rs)-1].Overflows == 0 {
		t.Fatal("tiny disk never overflowed")
	}
}

func TestRedundantCopiesShape(t *testing.T) {
	rs := runCells[NCopyResult](t, "ncopy", tiny())
	if len(rs) != 4 {
		t.Fatalf("rows = %d", len(rs))
	}
	if rs[0].Speculative != 0 {
		t.Fatal("no-speculation row speculated")
	}
	if rs[2].Speculative == 0 {
		t.Fatal("eager mode never duplicated")
	}
}

func TestDelaySchedulingShape(t *testing.T) {
	rs := runCells[DelayResult](t, "delay", tiny())
	if len(rs) != 3 || rs[0].Wait != 0 {
		t.Fatalf("rows %+v", rs)
	}
	if rs[2].LocalityRate < rs[0].LocalityRate {
		t.Fatalf("delay scheduling reduced locality: %.2f < %.2f", rs[2].LocalityRate, rs[0].LocalityRate)
	}
}

func TestHODComparisonShape(t *testing.T) {
	rs := runCells[HODResultRow](t, "hod", tiny())
	if rs[0].Response <= rs[1].Response {
		t.Fatalf("HOD (%v) not slower than HOG (%v)", rs[0].Response, rs[1].Response)
	}
	if rs[0].Reconstruction <= 0 {
		t.Fatal("HOD reconstruction overhead missing")
	}
}

func TestRunTables(t *testing.T) {
	r1 := RunTable1()
	if r1.Jobs != 88 || len(r1.Bins) == 0 || r1.SpanSeconds <= 0 {
		t.Fatalf("Table1 result %+v", r1)
	}
	r2 := RunTable2()
	if r2.TotalJobs != 88 || r2.TotalMaps != 2410 || len(r2.Bins) != 6 {
		t.Fatalf("Table2 result %+v", r2)
	}
}

func TestWithDefaultsNodes(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Scale != 1.0 || len(o.Seeds) != 3 {
		t.Fatalf("defaults %+v", o)
	}
	if len(o.Nodes) != 12 {
		t.Fatalf("Nodes not defaulted centrally: %v", o.Nodes)
	}
	// Explicit fields survive.
	o = Options{Scale: 0.5, Seeds: []int64{9}, Nodes: []int{7}}.WithDefaults()
	if o.Scale != 0.5 || o.Seeds[0] != 9 || len(o.Nodes) != 1 || o.Nodes[0] != 7 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

func TestFig4TrialAtom(t *testing.T) {
	// The per-trial atom must agree with the experiment's cell and metrics.
	trial := Fig4Trial(20, 1, tiny())
	if trial.Completed <= 0 {
		t.Fatalf("trial completed %d jobs", trial.Completed)
	}
	rows := runCells[Fig4TrialResult](t, "fig4", tiny())
	if rows[1] != trial {
		t.Fatalf("Fig4Trial (%+v) != fig4 cell row (%+v)", trial, rows[1])
	}
	m := experiment(t, "fig4").Metrics(rows[1])
	if m["response_s"] != trial.Response.Seconds() ||
		m["throughput_jobs_per_h"] != float64(trial.Completed)/(trial.Response.Seconds()/3600) {
		t.Fatalf("cell metrics %v for trial %+v", m, trial)
	}
}

func TestQuickAndFullPresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.Scale >= f.Scale {
		t.Fatal("quick not cheaper than full")
	}
	if len(f.Nodes) != 12 {
		t.Fatalf("full sweep has %d points, want the paper's 12", len(f.Nodes))
	}
	if len(f.Seeds) != 3 {
		t.Fatal("full sweep must use 3 seeds (paper: 3 runs per point)")
	}
	_ = workload.Table1()
}

// TestMegaGridShape pins the MEGA-GRID preset's shape: forty sites and
// enough aggregate capacity for the ten-thousand-node target.
func TestMegaGridShape(t *testing.T) {
	sites := grid.MegaGridSites(grid.ChurnStable)
	if len(sites) != 40 {
		t.Fatalf("MegaGridSites has %d sites, want 40", len(sites))
	}
	total := 0
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s.Name] {
			t.Fatalf("duplicate site %q", s.Name)
		}
		seen[s.Name] = true
		total += s.Capacity
	}
	if total < 10500 {
		t.Fatalf("aggregate capacity %d too small for a 10000-node target", total)
	}
}
