package core

import (
	"testing"

	"hog/internal/grid"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// checkLiveLists checks the three live lists against the full records they
// shadow: the namenode's placeable list against its datanodes, each grid
// site's alive list against the pool's nodes, and the heartbeat tick's
// workerList against the roster, which must keep every worker that is not
// dead, in ID order. The roster itself must hold a worker at every node ID
// the network issued: a worker joins as its ID is issued.
func checkLiveLists(t *testing.T, sys *System) {
	t.Helper()
	if err := sys.NN.CheckLiveList(); err != nil {
		t.Fatalf("at %v: hdfs: %v", sys.Eng.Now(), err)
	}
	if err := sys.Pool.CheckLiveLists(); err != nil {
		t.Fatalf("at %v: grid: %v", sys.Eng.Now(), err)
	}
	var listed []*worker
	for i, w := range sys.workerList {
		if i > 0 && sys.workerList[i-1].id >= w.id {
			t.Fatalf("at %v: workerList out of ID order at %d", sys.Eng.Now(), i)
		}
		if w.health != workerDead {
			listed = append(listed, w)
		}
	}
	if len(sys.workers) != sys.Net.NumNodes() {
		t.Fatalf("at %v: roster spans %d node IDs, the network issued %d", sys.Eng.Now(), len(sys.workers), sys.Net.NumNodes())
	}
	j := 0
	for id, w := range sys.workers {
		if w == nil || w.id != netmodel.NodeID(id) {
			t.Fatalf("at %v: roster slot %d holds no worker of that ID", sys.Eng.Now(), id)
		}
		if w.health == workerDead {
			continue
		}
		if j >= len(listed) || listed[j] != w {
			t.Fatalf("at %v: worker %d is not dead but missing from workerList", sys.Eng.Now(), id)
		}
		j++
	}
	if j != len(listed) {
		t.Fatalf("at %v: workerList holds %d live workers, the roster %d", sys.Eng.Now(), len(listed), j)
	}
}

// TestLiveListsTrackChurn runs an unstable pool through node cuts on
// workers that then die, a site partition and its heal (partition-heal
// recovery re-lists datanodes), a namenode crash and restart, a pool-wide
// kill, a site outage and a shrinking target, and checks the live lists
// after every event. Active ticks must visit fewer workers than the full
// roster the walk covered before dead workers left it.
func TestLiveListsTrackChurn(t *testing.T) {
	cfg := HOGConfig(80, grid.ChurnUnstable, 3)
	sys := New(cfg)
	site, other := cfg.Grid.Sites[0].Name, cfg.Grid.Sites[1].Name
	sc := NewScenario("live lists").
		PartitionNodesAt(20*sim.Second, other, 4, "out").
		KillFraction(40*sim.Second, 0.5).
		HealPartitionAt(90*sim.Second, other).
		PartitionSiteAt(100*sim.Second, site, "both").
		HealPartitionAt(180*sim.Second, site).
		CrashNameNodeAt(200*sim.Second).
		RestartMastersAfter(260*sim.Second).
		SiteOutageAt(300*sim.Second, other, 0.5).
		RetargetPool(330*sim.Second, 60)
	if err := sys.Apply(sc); err != nil {
		t.Fatal(err)
	}
	var fullRoster int64 // visits a walk of the full roster would make on the active ticks
	var last Work
	cutDead := false
	check := func() {
		checkLiveLists(t, sys)
		w := sys.Work()
		if w.Ticks > last.Ticks && w.IdleTicks == last.IdleTicks {
			fullRoster += int64(len(sys.workers))
		}
		last = w
		for id := range sys.partedNodes {
			cutDead = cutDead || sys.workers[id].health == workerDead
		}
	}
	sys.Pool.SetTarget(cfg.Grid.TargetNodes)
	sys.Eng.RunWhile(func() bool {
		check()
		return sys.Pool.AliveCount() < cfg.Grid.TargetNodes
	})
	if err := sys.StartWorkload(tinySchedule(3)); err != nil {
		t.Fatal(err)
	}
	run := sys.runCond()
	sys.Eng.RunWhile(func() bool {
		check()
		return run()
	})
	res := sys.FinishWorkload()
	check()
	if !cutDead {
		t.Fatal("no worker died behind a node cut; the heal of a dead worker's cut went untested")
	}
	if n := sys.PartitionedNodes(); n != 0 {
		t.Fatalf("%d node cuts survived the heals", n)
	}
	if res.NN.NodesRecovered == 0 {
		t.Fatal("no datanode was recovered by a partition heal")
	}
	w := sys.Work()
	activeVisits := w.Visits - w.IdleVisits
	t.Logf("active-tick visits %d, full-roster walks would make %d; placement %+v", activeVisits, fullRoster, w.Place)
	if activeVisits >= fullRoster {
		t.Fatalf("active ticks visited %d workers, no fewer than the full roster's %d", activeVisits, fullRoster)
	}
}
