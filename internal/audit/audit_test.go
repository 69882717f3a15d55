package audit_test

import (
	"fmt"
	"testing"

	"hog/internal/audit"
	"hog/internal/core"
	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/workload"
)

// TestCleanRunHasNoViolations attaches the auditor to a small churning HOG
// run, sweeping every 30 simulated seconds: a healthy run must stay silent.
func TestCleanRunHasNoViolations(t *testing.T) {
	aud := audit.New()
	sys, err := core.NewSystem(core.HOGConfig(40, grid.ChurnStable, 11), aud)
	if err != nil {
		t.Fatal(err)
	}
	aud.Attach(sys.NN, sys.JT)
	sys.Eng.Every(30*sim.Second, func() { aud.Sweep(sys.Eng.Now()) })
	res := sys.RunWorkload(workload.Generate(11, workload.Config{Scale: 0.1}))
	aud.Sweep(sys.Eng.Now())
	if res.JobsFailed != 0 {
		t.Fatalf("%d jobs failed", res.JobsFailed)
	}
	if n := aud.Count(); n != 0 {
		t.Fatalf("%d violations on a clean run; first: %v", n, aud.Violations()[0])
	}
}

// masters builds a namenode and JobTracker over two registered nodes with
// room for a few blocks each, the state the event rules consult.
func masters(t *testing.T) (*hdfs.Namenode, *mapred.JobTracker, []netmodel.NodeID) {
	t.Helper()
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.DefaultConfig())
	dt := disk.NewTracker()
	nn := hdfs.NewNamenode(eng, net, dt, hdfs.DefaultConfig())
	jt := mapred.NewJobTracker(eng, net, nn, dt, mapred.DefaultConfig())
	site := net.AddSite("a.edu", 1e9, 1e9)
	var ids []netmodel.NodeID
	for _, host := range []string{"n0.a.edu", "n1.a.edu"} {
		id := net.AddNode(site, host)
		dt.SetCapacity(id, 1e9)
		nn.Register(id)
		jt.RegisterTracker(id, 1, 1)
		ids = append(ids, id)
	}
	return nn, jt, ids
}

// rules returns how often each rule fired.
func rules(a *audit.Auditor) map[string]int {
	out := map[string]int{}
	for _, v := range a.Violations() {
		out[v.Rule]++
	}
	return out
}

func nodeEvent(typ event.Type, at sim.Time, node netmodel.NodeID) event.Event {
	ev := event.At(typ, at)
	ev.Node = node
	return ev
}

func siteEvent(typ event.Type, at sim.Time, site string) event.Event {
	ev := event.At(typ, at)
	ev.Site = site
	return ev
}

func masterEvent(typ event.Type, at sim.Time, which string) event.Event {
	ev := event.At(typ, at)
	ev.Detail = which
	return ev
}

// TestLivenessRulesFire feeds the auditor crafted events that contradict
// master state, one rule at a time, and checks each fires by name — and
// that the consistent version of each event passes.
func TestLivenessRulesFire(t *testing.T) {
	t.Run("node-dead", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		a.HandleEvent(nodeEvent(event.NodeDead, 1, ids[0]))
		if got := rules(a)["node-dead"]; got != 1 {
			t.Fatalf("node-dead fired %d times for an alive datanode, want 1", got)
		}
		nn.ForceDead(ids[1])
		a.HandleEvent(nodeEvent(event.NodeDead, 2, ids[1]))
		if a.Count() != 1 {
			t.Fatalf("a genuinely dead datanode raised %v", a.Violations())
		}
	})
	t.Run("tracker-reregister", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		jt.ForceTrackerDead(ids[0])
		a.HandleEvent(nodeEvent(event.TrackerReregistered, 1, ids[0]))
		a.HandleEvent(nodeEvent(event.TrackerReregistered, 2, 99)) // never registered
		if got := rules(a)["tracker-reregister"]; got != 2 {
			t.Fatalf("tracker-reregister fired %d times, want 2: %v", got, a.Violations())
		}
		a.HandleEvent(nodeEvent(event.TrackerReregistered, 3, ids[1]))
		if a.Count() != 2 {
			t.Fatalf("an alive tracker's re-registration raised %v", a.Violations())
		}
	})
	t.Run("node-recovered", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		nn.ForceDead(ids[0])
		a.HandleEvent(nodeEvent(event.NodeRecovered, 1, ids[0]))
		if got := rules(a)["node-recovered"]; got != 1 {
			t.Fatalf("node-recovered fired %d times for a dead datanode, want 1: %v", got, a.Violations())
		}
		a.HandleEvent(nodeEvent(event.NodeRecovered, 2, ids[1]))
		if a.Count() != 1 {
			t.Fatalf("an alive datanode's recovery raised %v", a.Violations())
		}
	})
	t.Run("gray-placement", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		nn.SetNodeGray(ids[0], true)
		a.HandleEvent(nodeEvent(event.ReplicationDone, 1, ids[0]))
		if got := rules(a)["gray-placement"]; got != 1 {
			t.Fatalf("gray-placement fired %d times for a copy on a gray node, want 1: %v", got, a.Violations())
		}
		nn.SetNodeGray(ids[0], false)
		a.HandleEvent(nodeEvent(event.ReplicationDone, 2, ids[0]))
		if a.Count() != 1 {
			t.Fatalf("a copy on a restored node raised %v", a.Violations())
		}
	})
	t.Run("master-pairing", func(t *testing.T) {
		a := audit.New()
		a.HandleEvent(masterEvent(event.MasterCrashed, 1, "namenode"))
		a.HandleEvent(masterEvent(event.MasterRecovered, 2, "namenode"))
		if a.Count() != 0 {
			t.Fatalf("a paired crash and recovery raised %v", a.Violations())
		}
		a.HandleEvent(masterEvent(event.MasterRecovered, 3, "jobtracker")) // no crash
		a.HandleEvent(masterEvent(event.MasterCrashed, 4, "jobtracker"))   // pairs with nothing
		a.HandleEvent(masterEvent(event.MasterCrashed, 5, "jobtracker"))   // crashed twice
		a.HandleEvent(masterEvent(event.MasterCrashed, 6, "secondary"))    // unknown master
		a.HandleEvent(masterEvent(event.MasterRecovered, 7, "secondary"))  // unknown master
		if got := rules(a)["master-pairing"]; got != 4 {
			t.Fatalf("master-pairing fired %d times, want 4: %v", got, a.Violations())
		}
	})
	t.Run("degrade-pairing", func(t *testing.T) {
		a := audit.New()
		a.HandleEvent(nodeEvent(event.NodeDegraded, 1, 3))
		a.HandleEvent(nodeEvent(event.NodeRestored, 2, 3))
		a.HandleEvent(nodeEvent(event.NodeDegraded, 3, 3)) // degraded again after a restore
		a.HandleEvent(nodeEvent(event.NodeRestored, 4, 3))
		if a.Count() != 0 {
			t.Fatalf("paired degradations and restores raised %v", a.Violations())
		}
		a.HandleEvent(nodeEvent(event.NodeRestored, 5, 4)) // never degraded
		if got := rules(a)["degrade-pairing"]; got != 1 {
			t.Fatalf("degrade-pairing fired %d times, want 1: %v", got, a.Violations())
		}
	})
	t.Run("partition-pairing", func(t *testing.T) {
		a := audit.New()
		a.HandleEvent(siteEvent(event.PartitionStarted, 1, "a.edu"))
		a.HandleEvent(siteEvent(event.PartitionStarted, 2, "a.edu")) // a node cut overlapping the site cut
		a.HandleEvent(siteEvent(event.PartitionHealed, 3, "a.edu"))
		if a.Count() != 0 {
			t.Fatalf("a healed partition raised %v", a.Violations())
		}
		a.HandleEvent(siteEvent(event.PartitionHealed, 4, "a.edu")) // the heal cleared both cuts
		a.HandleEvent(siteEvent(event.PartitionHealed, 5, "b.edu")) // never partitioned
		if got := rules(a)["partition-pairing"]; got != 2 {
			t.Fatalf("partition-pairing fired %d times, want 2: %v", got, a.Violations())
		}
	})
	t.Run("safe-mode-pairing", func(t *testing.T) {
		a := audit.New()
		a.HandleEvent(event.At(event.SafeModeEntered, 1))
		a.HandleEvent(event.At(event.SafeModeExited, 2))
		if a.Count() != 0 {
			t.Fatalf("a paired safe-mode entry and exit raised %v", a.Violations())
		}
		a.HandleEvent(event.At(event.SafeModeExited, 3)) // no entry
		if got := rules(a)["safe-mode-pairing"]; got != 1 {
			t.Fatalf("safe-mode-pairing fired %d times, want 1: %v", got, a.Violations())
		}
	})
	t.Run("monotone-time", func(t *testing.T) {
		a := audit.New()
		a.HandleEvent(masterEvent(event.MasterCrashed, 10, "namenode"))
		a.HandleEvent(masterEvent(event.MasterRecovered, 5, "namenode"))
		if got := rules(a)["monotone-time"]; got != 1 {
			t.Fatalf("monotone-time fired %d times, want 1: %v", got, a.Violations())
		}
	})
}

// TestStateRulesFire feeds the auditor crafted events that contradict the
// masters' block and job state, one rule at a time, and checks each fires
// by name — and that the consistent version of each event passes.
func TestStateRulesFire(t *testing.T) {
	t.Run("block-lost", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		bid := nn.SeedFile("/in", hdfs.DefaultBlockSize, 2).Blocks[0]
		lost := event.At(event.BlockLost, 1)
		lost.Block = int64(bid)
		a.HandleEvent(lost)
		if got := rules(a)["block-lost"]; got != 1 {
			t.Fatalf("block-lost fired %d times for a live block, want 1: %v", got, a.Violations())
		}
		nn.ForceDead(ids[0])
		nn.ForceDead(ids[1])
		if !nn.Block(bid).Lost() {
			t.Fatal("block not lost with both its holders dead")
		}
		lost.Time = 2
		a.HandleEvent(lost)
		if a.Count() != 1 {
			t.Fatalf("a genuinely lost block raised %v", a.Violations())
		}
	})
	t.Run("corrupt-invalidation", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		bid := nn.SeedFile("/in", hdfs.DefaultBlockSize, 2).Blocks[0]
		if !nn.CorruptReplica(bid, ids[0]) {
			t.Fatal("could not corrupt the replica")
		}
		inv := nodeEvent(event.ReplicaInvalidated, 1, ids[0])
		inv.Block = int64(bid)
		a.HandleEvent(inv)
		if got := rules(a)["corrupt-invalidation"]; got != 1 {
			t.Fatalf("corrupt-invalidation fired %d times for a surviving marker, want 1: %v", got, a.Violations())
		}
		inv = nodeEvent(event.ReplicaInvalidated, 2, ids[1])
		inv.Block = int64(bid)
		a.HandleEvent(inv)
		if a.Count() != 1 {
			t.Fatalf("invalidating a clean replica raised %v", a.Violations())
		}
	})
	t.Run("job-complete", func(t *testing.T) {
		nn, jt, _ := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		nn.SeedFile("/in", 2*hdfs.DefaultBlockSize, 2)
		j := jt.Submit(mapred.JobConfig{Name: "j", InputFile: "/in", Reduces: 1})
		done := event.At(event.JobFinished, 1)
		done.Job = int(j.ID)
		done.Detail = "succeeded"
		a.HandleEvent(done)
		if got := rules(a)["job-complete"]; got != 1 {
			t.Fatalf("job-complete fired %d times for a job with no finished task, want 1: %v", got, a.Violations())
		}
		done.Time, done.Detail = 2, "failed"
		a.HandleEvent(done)
		if a.Count() != 1 {
			t.Fatalf("an unfinished job's failure raised %v", a.Violations())
		}
	})
	// The replica rules check state the namenode keeps consistent on every
	// path, so the breach is written into a datanode record's exported
	// fields. A replica on a node the namenode never registered cannot be
	// injected: replicas are only ever added through a registered record.
	// Writing Alive directly bypasses the namenode's placement flags (the
	// byte per node that placement reads instead of the record), so these
	// namenodes would fail CheckLiveList; the audit rules read the record.
	t.Run("replica-liveness", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		nn.SeedFile("/in", hdfs.DefaultBlockSize, 2)
		a.Sweep(1)
		if a.Count() != 0 {
			t.Fatalf("a fully replicated block raised %v", a.Violations())
		}
		d := nn.Datanode(ids[0])
		d.Alive = false // dead, but its replicas were never dropped
		a.Sweep(2)
		if got := rules(a)["replica-liveness"]; got != 1 || a.Count() != 1 {
			t.Fatalf("replica-liveness fired %d times for a replica on a dead node, want 1: %v", got, a.Violations())
		}
		d.Alive = true
		a.Sweep(3)
		if a.Count() != 1 {
			t.Fatalf("replicas on live nodes raised %v", a.Violations())
		}
	})
	t.Run("replica-presence", func(t *testing.T) {
		nn, jt, ids := masters(t)
		a := audit.New()
		a.Attach(nn, jt)
		nn.SeedFile("/in", hdfs.DefaultBlockSize, 2)
		a.Sweep(1)
		if a.Count() != 0 {
			t.Fatalf("a fully replicated block raised %v", a.Violations())
		}
		// A record naming the wrong node: the dead-marking clears ids[0]'s
		// inventory but drops ids[1]'s replica record instead of its own.
		d := nn.Datanode(ids[0])
		d.ID = ids[1]
		nn.ForceDead(ids[0])
		d.ID, d.Alive = ids[0], true
		a.Sweep(2)
		if got := rules(a)["replica-presence"]; got != 1 || a.Count() != 1 {
			t.Fatalf("replica-presence fired %d times for a replica not physically held, want 1: %v", got, a.Violations())
		}
	})
}

// BenchmarkSweep times one audit sweep over a namenode shaped like the
// chaos-repair workload's: the paper's 60-node pool over five sites,
// holding about 4000 blocks at HOG's replication factor of 10.
func BenchmarkSweep(b *testing.B) {
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.DefaultConfig())
	dt := disk.NewTracker()
	nn := hdfs.NewNamenode(eng, net, dt, hdfs.HOGConfig())
	for s := 0; s < 5; s++ {
		dom := fmt.Sprintf("site%d.edu", s)
		sid := net.AddSite(dom, 1e9, 1e9)
		for i := 0; i < 12; i++ {
			host := fmt.Sprintf("n%d.%s", i, dom)
			id := net.AddNode(sid, host)
			dt.SetCapacity(id, 100e9)
			nn.Register(id)
		}
	}
	for f := 0; f < 40; f++ {
		nn.SeedFile(fmt.Sprintf("/in/%d", f), 100*hdfs.DefaultBlockSize, 0)
	}
	a := audit.New()
	a.Attach(nn, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sweep(sim.Time(i))
	}
	b.StopTimer()
	if a.Count() != 0 {
		b.Fatalf("sweep raised %v", a.Violations())
	}
}
