package hdfs

import (
	"testing"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

func TestDecommissionDrainsNode(t *testing.T) {
	h := newHarness(t, 41, 4, Config{Replication: 3})
	tk := h.heartbeatAll(nil)
	defer tk.Stop()
	for i := 0; i < 6; i++ {
		h.nn.SeedFile("/in/dec"+string(rune('a'+i)), DefaultBlockSize, 3)
	}
	// Pick a node hosting at least one block.
	var victim netmodel.NodeID = -1
	for _, id := range h.all {
		if h.nn.Datanode(id).Blocks() > 0 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Skip("no loaded node with this seed")
	}
	hosted := h.nn.Datanode(victim).Blocks()
	done := false
	h.nn.Decommission(victim, func() { done = true })
	if !h.nn.Decommissioning(victim) && !done {
		t.Fatal("node not marked decommissioning")
	}
	h.eng.RunUntil(30 * sim.Minute)
	if !done {
		t.Fatalf("decommission of node with %d blocks never completed (queue %d)", hosted, h.nn.UnderReplicated())
	}
	if h.nn.Datanode(victim).Blocks() != 0 {
		t.Fatalf("drained node still hosts %d blocks", h.nn.Datanode(victim).Blocks())
	}
	if h.dt.Used(victim) != 0 {
		t.Fatalf("drained node still charges %.0f bytes", h.dt.Used(victim))
	}
	// Every block still fully replicated without the victim.
	for i := 0; i < 6; i++ {
		f := h.nn.File("/in/dec" + string(rune('a'+i)))
		for _, bid := range f.Blocks {
			b := h.nn.Block(bid)
			if b.NumReplicas() < 3 {
				t.Fatalf("block %d has %d replicas after drain", bid, b.NumReplicas())
			}
			for _, r := range b.Replicas() {
				if r == victim {
					t.Fatal("block still lists drained node")
				}
			}
		}
	}
}

func TestDecommissionEmptyNodeImmediate(t *testing.T) {
	h := newHarness(t, 42, 2, Config{Replication: 2, PlacementPolicy: PlacementFlat})
	// Find an empty node (no files seeded yet: all empty).
	done := false
	h.nn.Decommission(h.all[0], func() { done = true })
	if !done {
		t.Fatal("empty node decommission should complete synchronously")
	}
	if h.nn.Decommissioning(h.all[0]) {
		t.Fatal("empty node still draining")
	}
}

func TestDecommissionDeadNodeNoop(t *testing.T) {
	h := newHarness(t, 43, 2, Config{Replication: 2, PlacementPolicy: PlacementFlat})
	h.nn.ForceDead(h.all[0])
	done := false
	h.nn.Decommission(h.all[0], func() { done = true })
	if !done {
		t.Fatal("decommission of dead node should call done immediately")
	}
}

// TestDecommissionRacesPreemption kills a node mid-drain — the elastic-shrink
// path racing a site preemption. The drain must resolve (done fires exactly
// once, the node stops draining) and the dead-node recovery path must restore
// every block to target with nothing stranded under-replicated.
func TestDecommissionRacesPreemption(t *testing.T) {
	h := newHarness(t, 45, 4, Config{Replication: 3, DeadTimeout: 30 * sim.Second})
	for i := 0; i < 6; i++ {
		h.nn.SeedFile("/in/race"+string(rune('a'+i)), DefaultBlockSize, 3)
	}
	var victim netmodel.NodeID = -1
	for _, id := range h.all {
		if h.nn.Datanode(id).Blocks() > 0 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Skip("no loaded node with this seed")
	}
	doneCalls := 0
	h.nn.Decommission(victim, func() { doneCalls++ })
	if !h.nn.Decommissioning(victim) {
		t.Fatal("drain completed synchronously; race not exercised")
	}
	// Preempt the draining node before its extra copies finish.
	h.nn.ForceDead(victim)
	if doneCalls != 1 {
		t.Fatalf("done called %d times after mid-drain death, want 1", doneCalls)
	}
	if h.nn.Decommissioning(victim) {
		t.Fatal("dead node still marked decommissioning")
	}
	tk := h.heartbeatAll(map[netmodel.NodeID]bool{victim: true})
	defer tk.Stop()
	h.eng.RunUntil(30 * sim.Minute)
	if doneCalls != 1 {
		t.Fatalf("done called %d times after recovery, want exactly 1", doneCalls)
	}
	if n := h.nn.UnderReplicated(); n != 0 {
		t.Fatalf("%d blocks stranded under-replicated after recovery", n)
	}
	for i := 0; i < 6; i++ {
		f := h.nn.File("/in/race" + string(rune('a'+i)))
		for _, bid := range f.Blocks {
			b := h.nn.Block(bid)
			if b.NumReplicas() < 3 {
				t.Fatalf("block %d has %d replicas after recovery", bid, b.NumReplicas())
			}
			for _, r := range b.Replicas() {
				if r == victim {
					t.Fatal("block still lists the preempted node")
				}
			}
		}
	}
}

func TestDecommissioningNodeNotATarget(t *testing.T) {
	h := newHarness(t, 44, 2, Config{Replication: 3, PlacementPolicy: PlacementFlat})
	tk := h.heartbeatAll(nil)
	defer tk.Stop()
	h.nn.SeedFile("/in/x", DefaultBlockSize, 3)
	var empty netmodel.NodeID = -1
	for _, id := range h.all {
		if h.nn.Datanode(id).Blocks() == 0 {
			empty = id
			break
		}
	}
	if empty < 0 {
		t.Skip("no empty node")
	}
	h.nn.Decommission(empty, nil)
	// New files must not place replicas on the draining node... but an
	// empty node drains instantly, so decommission again on a loaded one
	// and verify placement avoidance while draining.
	var loaded netmodel.NodeID = -1
	for _, id := range h.all {
		if h.nn.Datanode(id).Blocks() > 0 {
			loaded = id
			break
		}
	}
	h.nn.Decommission(loaded, nil)
	if h.nn.Decommissioning(loaded) {
		for i := 0; i < 5; i++ {
			f := h.nn.SeedFile("/in/y"+string(rune('a'+i)), DefaultBlockSize, 3)
			for _, r := range h.nn.Block(f.Blocks[0]).Replicas() {
				if r == loaded {
					t.Fatal("placement chose a decommissioning node")
				}
			}
		}
	}
	h.eng.RunUntil(30 * sim.Minute)
}
