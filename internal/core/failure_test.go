package core

import (
	"testing"

	"hog/internal/grid"
	"hog/internal/sim"
)

// TestSiteOutageMidWorkload injects a full-site failure during execution and
// checks HOG's configuration rides it out with zero data loss and zero job
// failures (the §III.B.1 design goal).
func TestSiteOutageMidWorkload(t *testing.T) {
	cfg := HOGConfig(50, grid.ChurnNone, 21)
	sys := New(cfg)
	sys.AwaitNodes()
	lostWorkers := 0
	sys.Eng.After(200*sim.Second, func() { lostWorkers = sys.Pool.PreemptSite(1, 1.0) })
	res := sys.RunWorkload(tinySchedule(21))
	if lostWorkers == 0 {
		t.Fatal("outage injection killed nothing")
	}
	if res.JobsFailed != 0 {
		t.Fatalf("%d jobs failed despite replication 10 + site awareness", res.JobsFailed)
	}
	if res.NN.BlocksLost != 0 {
		t.Fatalf("%d blocks lost despite site-aware placement", res.NN.BlocksLost)
	}
	if res.NN.ReplicationsDone == 0 {
		t.Fatal("no recovery replication after losing a site")
	}
	// The pool replaced the lost workers.
	if got := sys.Pool.AliveCount(); got != 50 {
		t.Fatalf("pool did not recover: %d alive, want 50", got)
	}
}

// TestDiskOverflowKillPath checks §IV.D.2 end to end at the system level:
// tiny scratch disks cause overflow kills and pool replacement.
func TestDiskOverflowKillPath(t *testing.T) {
	cfg := HOGConfig(25, grid.ChurnNone, 22)
	cfg.Grid.Pool.DiskBytesPerNode = 3e9
	cfg.Costs.ReduceCostPerMB = 500 * sim.Millisecond // keep intermediate around
	sys := New(cfg)
	res := sys.RunWorkload(tinySchedule(22))
	if sys.Disk.Overflows() == 0 {
		t.Skip("no overflow with this seed/scale; covered at larger scale by hogbench")
	}
	if res.Pool.Killed == 0 {
		t.Fatal("overflowing workers were not shut down")
	}
}

// TestRunBoundTerminates ensures a run that cannot finish still returns.
func TestRunBoundTerminates(t *testing.T) {
	cfg := HOGConfig(3, grid.ChurnNone, 23)
	cfg.RunBound = 10 * sim.Minute // far too short for the workload
	sys := New(cfg)
	res := sys.RunWorkload(tinySchedule(23))
	if res.ResponseTime > 11*sim.Minute {
		t.Fatalf("run bound not enforced: %v", res.ResponseTime)
	}
}

// TestStaticClusterNeverChurns sanity-checks the dedicated baseline: no
// pool, no preemptions, flat reported series.
func TestStaticClusterNeverChurns(t *testing.T) {
	sys := New(DedicatedClusterConfig(24))
	res := sys.RunWorkload(tinySchedule(24))
	if sys.Pool != nil {
		t.Fatal("static cluster has a pool")
	}
	if res.Reported.Min() != 30 || res.Reported.Max() != 30 {
		t.Fatalf("reported series fluctuated on a static cluster: [%v,%v]",
			res.Reported.Min(), res.Reported.Max())
	}
	if res.Counters.MapsReExecuted != 0 {
		t.Fatal("re-executions on a healthy static cluster")
	}
}

// TestZombieDiskCheckConverges verifies disk-check zombies disappear within
// the probe interval.
func TestZombieDiskCheckConverges(t *testing.T) {
	cfg := HOGConfig(25, grid.ChurnNone, 26)
	cfg.Zombie = ZombieDiskCheck
	sys := New(cfg)
	sys.AwaitNodes()
	// Preempt a handful of nodes at once.
	sys.Pool.PreemptSite(0, 0.5)
	if sys.Zombies() == 0 {
		t.Skip("no zombies created (site empty with this seed)")
	}
	peak := sys.Zombies()
	sys.Eng.RunUntil(sys.Eng.Now() + cfg.DiskCheckInterval + 10*sim.Second)
	if sys.Zombies() != 0 {
		t.Fatalf("zombies remaining after probe interval: %d (peak %d)", sys.Zombies(), peak)
	}
}
