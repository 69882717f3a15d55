package hdfs

import (
	"testing"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

// TestCorruptReadDetectsFailsOverAndRepairs drives the full corruption loop:
// a silently corrupted replica is caught by checksum verification on read
// (never acknowledged as data), invalidated out of the block map, the read
// fails over to a clean copy and succeeds, and the re-replication queue
// restores full replication.
func TestCorruptReadDetectsFailsOverAndRepairs(t *testing.T) {
	h := newHarness(t, 21, 4, Config{Replication: 3, DeadTimeout: 30 * sim.Second})
	tk := h.heartbeatAll(nil)
	defer tk.Stop()
	f := h.nn.SeedFile("/in/rot", 2*DefaultBlockSize, 3)
	bid := f.Blocks[0]

	// The reader holds a replica itself, so ReadSource deterministically
	// serves the local copy first; corrupting that copy forces the first
	// attempt to detect and fail over.
	src := h.nn.Block(bid).Replicas()[0]
	reader := src
	if !h.nn.CorruptReplica(bid, src) {
		t.Fatal("CorruptReplica refused a held replica")
	}
	if h.nn.CorruptReplicaCount() != 1 {
		t.Fatalf("corrupt count = %d, want 1", h.nn.CorruptReplicaCount())
	}

	var got, called bool
	h.nn.ReadBlock(reader, bid, func(ok bool) { got, called = ok, true })
	h.eng.RunUntil(10 * sim.Minute)

	if !called || !got {
		t.Fatalf("read (called=%v ok=%v) did not recover via failover", called, got)
	}
	st := h.nn.Stats()
	if st.CorruptReadsDetected != 1 {
		t.Fatalf("CorruptReadsDetected = %d, want 1", st.CorruptReadsDetected)
	}
	if st.ReplicasInvalidated != 1 {
		t.Fatalf("ReplicasInvalidated = %d, want 1", st.ReplicasInvalidated)
	}
	if st.CorruptAcked != 0 {
		t.Fatalf("CorruptAcked = %d — corrupt bytes were returned as good data", st.CorruptAcked)
	}
	if h.nn.CorruptReplicaCount() != 0 {
		t.Fatalf("corrupt replicas left after invalidation: %d", h.nn.CorruptReplicaCount())
	}
	b := h.nn.Block(bid)
	if b.NumReplicas() != 3 {
		t.Fatalf("replicas = %d after repair, want 3", b.NumReplicas())
	}
	if b.CorruptOn(src) {
		t.Fatal("invalidated replica still marked corrupt")
	}
}

// TestReadBackoffIsCappedExponential pins the failover retry budget: a block
// whose every replica is corrupt burns all attempts with capped exponential
// backoff and then fails — it must not retry forever, and it must not hand
// back corrupt data.
func TestReadBackoffIsCappedExponential(t *testing.T) {
	h := newHarness(t, 22, 2, Config{Replication: 3, DeadTimeout: 30 * sim.Second, PlacementPolicy: PlacementFlat})
	tk := h.heartbeatAll(nil)
	defer tk.Stop()
	f := h.nn.SeedFile("/in/doomed", DefaultBlockSize, 3)
	bid := f.Blocks[0]
	// Corrupt every current replica AND keep corrupting what re-replication
	// rebuilds from corrupt sources; the reader must eventually give up.
	for _, nid := range h.nn.Block(bid).Replicas() {
		h.nn.CorruptReplica(bid, nid)
	}
	var got, called bool
	start := h.eng.Now()
	h.nn.ReadBlock(h.all[len(h.all)-1], bid, func(ok bool) { got, called = ok, true })
	h.eng.RunUntil(start + 30*sim.Minute)
	if !called {
		t.Fatal("read never completed — retry loop is unbounded")
	}
	if got {
		// Re-replication may legitimately rebuild a clean copy from an
		// uncorrupted source before the budget runs out; what is forbidden
		// is acknowledging corrupt bytes.
		if h.nn.Stats().CorruptAcked != 0 {
			t.Fatal("read succeeded by acknowledging corrupt data")
		}
	}
	if h.nn.Stats().CorruptReadsDetected == 0 {
		t.Fatal("no corruption detected on an all-corrupt block")
	}
}

// TestGrayNodeExcludedFromPlacement flags nodes gray and checks both new
// placement and re-replication refuse them until the flag clears.
func TestGrayNodeExcludedFromPlacement(t *testing.T) {
	h := newHarness(t, 23, 2, Config{Replication: 3, DeadTimeout: 30 * sim.Second})
	gray := map[netmodel.NodeID]bool{h.all[0]: true, h.all[1]: true, h.all[2]: true}
	for id := range gray {
		h.nn.SetNodeGray(id, true)
	}
	if h.nn.GrayDatanodes() != 3 {
		t.Fatalf("GrayDatanodes = %d, want 3", h.nn.GrayDatanodes())
	}
	f := h.nn.SeedFile("/in/clean", 4*DefaultBlockSize, 3)
	for _, bid := range f.Blocks {
		for _, nid := range h.nn.Block(bid).Replicas() {
			if gray[nid] {
				t.Fatalf("block %d placed a replica on gray node %d", bid, nid)
			}
		}
	}
	for id := range gray {
		h.nn.SetNodeGray(id, false)
	}
	if h.nn.GrayDatanodes() != 0 {
		t.Fatalf("GrayDatanodes = %d after restore, want 0", h.nn.GrayDatanodes())
	}
}

// TestRecoverDatanodeRestoresHeldInventory walks the partitioned-not-dead
// path: a node silenced long enough to be declared dead keeps its physical
// replica inventory; when the partition heals, RecoverDatanode re-registers
// it and hands the preserved replicas back without double-counting what the
// cluster re-replicated in the meantime.
func TestRecoverDatanodeRestoresHeldInventory(t *testing.T) {
	h := newHarness(t, 24, 4, Config{Replication: 3, DeadTimeout: 30 * sim.Second})
	f := h.nn.SeedFile("/in/parted", 4*DefaultBlockSize, 3)
	victim := h.nn.Block(f.Blocks[0]).Replicas()[0]
	heldBlocks := 0
	for _, bid := range f.Blocks {
		b := h.nn.Block(bid)
		for _, nid := range b.Replicas() {
			if nid == victim {
				heldBlocks++
			}
		}
	}
	if heldBlocks == 0 {
		t.Fatal("victim holds no replicas of the test file")
	}

	// Silence the victim (a partition, not a crash): the dead timeout fires
	// and the cluster re-replicates around it.
	dead := map[netmodel.NodeID]bool{victim: true}
	tk := h.heartbeatAll(dead)
	defer tk.Stop()
	h.eng.RunUntil(20 * sim.Minute)
	if h.nn.Datanode(victim).Alive {
		t.Fatal("victim not declared dead")
	}
	for _, bid := range f.Blocks {
		if b := h.nn.Block(bid); b.NumReplicas() != 3 {
			t.Fatalf("block %d not re-replicated while victim down: %d", bid, b.NumReplicas())
		}
	}

	// Heal: the preserved inventory comes back as tolerated
	// over-replication, like a late block report.
	restored := h.nn.RecoverDatanode(victim)
	if restored != heldBlocks {
		t.Fatalf("restored %d replicas, held %d", restored, heldBlocks)
	}
	if !h.nn.Datanode(victim).Alive {
		t.Fatal("recovered node not alive")
	}
	for _, bid := range f.Blocks {
		b := h.nn.Block(bid)
		if n := b.NumReplicas(); n < 3 || n > 4 {
			t.Fatalf("block %d has %d replicas after heal, want 3 or 4 (set semantics)", bid, n)
		}
	}
	st := h.nn.Stats()
	if st.NodesRecovered != 1 || st.ReplicasRecovered != restored {
		t.Fatalf("stats NodesRecovered=%d ReplicasRecovered=%d, want 1, %d",
			st.NodesRecovered, st.ReplicasRecovered, restored)
	}
	// Recovering twice is a no-op.
	if again := h.nn.RecoverDatanode(victim); again != 0 {
		t.Fatalf("second recovery restored %d replicas, want 0", again)
	}
}

// TestPhysicallyLostNodeHasNothingToRecover pins the crash/partition
// distinction: a node whose hardware is actually gone (preempt, overflow)
// must not hand stale replicas back on a later heal.
func TestPhysicallyLostNodeHasNothingToRecover(t *testing.T) {
	h := newHarness(t, 25, 4, Config{Replication: 3, DeadTimeout: 30 * sim.Second})
	f := h.nn.SeedFile("/in/lost", 2*DefaultBlockSize, 3)
	victim := h.nn.Block(f.Blocks[0]).Replicas()[0]
	h.nn.MarkPhysicallyLost(victim)
	dead := map[netmodel.NodeID]bool{victim: true}
	tk := h.heartbeatAll(dead)
	defer tk.Stop()
	h.eng.RunUntil(20 * sim.Minute)
	if h.nn.Datanode(victim).Alive {
		t.Fatal("victim not declared dead")
	}
	if restored := h.nn.RecoverDatanode(victim); restored != 0 {
		t.Fatalf("physically lost node recovered %d replicas, want 0", restored)
	}
	if h.nn.Datanode(victim).Alive {
		t.Fatal("physically lost node came back alive")
	}
}

// TestFileDeletedDuringOutageReleasesHeldSpace covers the orphan-reclaim arm
// of RecoverDatanode: a file deleted while its holder was partitioned away
// pins disk space no deletion path could reach; the heal must release it.
func TestFileDeletedDuringOutageReleasesHeldSpace(t *testing.T) {
	h := newHarness(t, 26, 4, Config{Replication: 3, DeadTimeout: 30 * sim.Second})
	f := h.nn.SeedFile("/in/ephemeral", 2*DefaultBlockSize, 3)
	victim := h.nn.Block(f.Blocks[0]).Replicas()[0]
	dead := map[netmodel.NodeID]bool{victim: true}
	tk := h.heartbeatAll(dead)
	defer tk.Stop()
	h.eng.RunUntil(20 * sim.Minute)
	if h.nn.Datanode(victim).Alive {
		t.Fatal("victim not declared dead")
	}
	h.nn.DeleteFile("/in/ephemeral")
	before := h.dt.Used(victim)
	if restored := h.nn.RecoverDatanode(victim); restored != 0 {
		t.Fatalf("recovered %d replicas of a deleted file, want 0", restored)
	}
	if after := h.dt.Used(victim); after >= before {
		t.Fatalf("held space not released: %g -> %g bytes", before, after)
	}
}
