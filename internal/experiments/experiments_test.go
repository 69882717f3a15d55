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

func TestPrintTables(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	if !strings.Contains(buf.String(), "88 jobs") {
		t.Fatalf("Table1 output missing schedule: %s", buf.String())
	}
	buf.Reset()
	PrintTable2(&buf)
	if !strings.Contains(buf.String(), "2410 map tasks") {
		t.Fatalf("Table2 output missing total: %s", buf.String())
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
	r := Fig4(tiny())
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// More nodes must be at least as fast at this scale.
	if r.Points[1].Mean > r.Points[0].Mean {
		t.Fatalf("40 nodes (%v) slower than 20 (%v)", r.Points[1].Mean, r.Points[0].Mean)
	}
	var buf bytes.Buffer
	PrintFig4(&buf, tiny())
	if !strings.Contains(buf.String(), "cluster") {
		t.Fatal("Fig4 output missing cluster line")
	}
}

func TestFig5Table4Runs(t *testing.T) {
	runs := Fig5Table4(tiny())
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
	rs := SiteFailure(tiny())
	if rs[0].BlocksLost != 0 {
		t.Fatalf("HOG lost %d blocks", rs[0].BlocksLost)
	}
	if rs[1].BlocksLost == 0 {
		t.Log("naive config lost nothing at tiny scale (possible); rerun at larger scale in hogbench")
	}
}

func TestHeartbeatSweepShape(t *testing.T) {
	rs := HeartbeatSweep(tiny())
	if len(rs) != 2 || rs[0].Timeout != 30*sim.Second || rs[1].Timeout != 900*sim.Second {
		t.Fatalf("sweep shape %+v", rs)
	}
}

func TestZombieSweepShape(t *testing.T) {
	rs := ZombieSweep(tiny())
	if len(rs) != 3 {
		t.Fatalf("rows = %d", len(rs))
	}
	// The fixed mode must not fail jobs.
	if rs[2].JobsFailed != 0 {
		t.Fatalf("fixed mode failed %d jobs", rs[2].JobsFailed)
	}
}

func TestDiskOverflowShape(t *testing.T) {
	rs := DiskOverflow(tiny())
	if rs[0].Killed != 0 {
		t.Fatalf("ample disk killed %d workers", rs[0].Killed)
	}
	if rs[len(rs)-1].Overflows == 0 {
		t.Fatal("tiny disk never overflowed")
	}
}

func TestRedundantCopiesShape(t *testing.T) {
	rs := RedundantCopies(tiny())
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
	rs := DelayScheduling(tiny())
	if len(rs) != 3 || rs[0].Wait != 0 {
		t.Fatalf("rows %+v", rs)
	}
	if rs[2].LocalityRate < rs[0].LocalityRate {
		t.Fatalf("delay scheduling reduced locality: %.2f < %.2f", rs[2].LocalityRate, rs[0].LocalityRate)
	}
}

func TestHODComparisonShape(t *testing.T) {
	rs := HODComparison(tiny())
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
	// The per-trial atom must agree with the composed sweep.
	trial := Fig4Trial(20, 1, tiny())
	if trial.Completed <= 0 {
		t.Fatalf("trial completed %d jobs", trial.Completed)
	}
	r := Fig4(tiny())
	if r.Points[0].Responses[0] != trial.Response {
		t.Fatalf("Fig4Trial (%v) != Fig4 point response (%v)", trial.Response, r.Points[0].Responses[0])
	}
	if r.Points[0].Summary.N != 1 || r.Points[0].Summary.Mean != trial.Response.Seconds() {
		t.Fatalf("point summary %+v", r.Points[0].Summary)
	}
}

// TestSchedScaleEquivalence runs SCHED-SCALE at reduced scale: the indexed
// and scan schedulers must agree bit-for-bit on the full 1000-node system —
// same response time, same event count, same failures.
func TestSchedScaleEquivalence(t *testing.T) {
	rs := SchedScale(Options{Scale: 0.1, Seeds: []int64{1}})
	if len(rs) != 2 || rs[0].Scan || !rs[1].Scan {
		t.Fatalf("unexpected case shape: %+v", rs)
	}
	if rs[0].Response != rs[1].Response || rs[0].EventsFired != rs[1].EventsFired || rs[0].JobsFailed != rs[1].JobsFailed {
		t.Fatalf("scheduler paths diverge at 1000 nodes:\nindexed: %+v\nscan:    %+v", rs[0], rs[1])
	}
	if rs[0].Response <= 0 {
		t.Fatal("non-positive response time")
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
