package hdfs

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

// balancerState builds a deliberately imbalanced namenode: all file data is
// seeded while only the first site's datanodes have capacity registered, so
// every replica lands there; then the remaining sites get their disks and
// the balancer has obvious work to do.
func balancerState(t *testing.T, seed int64) *harness {
	t.Helper()
	h := newHarness(t, seed, 3, Config{Replication: 2})
	// Starve all but site 0 so seeding concentrates replicas.
	for i, id := range h.all {
		if i >= 3 {
			h.dt.SetCapacity(id, 0)
		}
	}
	for f := 0; f < 4; f++ {
		h.nn.SeedFile(fmt.Sprintf("/in/f%d", f), 6*DefaultBlockSize, 0)
	}
	for i, id := range h.all {
		if i >= 3 {
			h.dt.SetCapacity(id, 10e9)
		}
	}
	return h
}

// pendingMoves captures the scheduled move set as sorted (block, dst) pairs.
func pendingMoves(nn *Namenode) []string {
	var out []string
	nn.ForEachBlock(func(b *BlockInfo) {
		for _, dst := range b.pending {
			out = append(out, fmt.Sprintf("%d->%d", b.ID, dst))
		}
	})
	sort.Strings(out)
	return out
}

// TestBalanceOnceDeterministic is the regression test for balancer move
// determinism: two BalanceOnce rounds over identically constructed state
// must schedule exactly the same move set — the candidate walk is the
// per-source sorted block order, never map iteration order.
func TestBalanceOnceDeterministic(t *testing.T) {
	a := balancerState(t, 7)
	b := balancerState(t, 7)
	movesA := a.nn.BalanceOnce(0.01, 50)
	movesB := b.nn.BalanceOnce(0.01, 50)
	if movesA == 0 {
		t.Fatal("balancer scheduled no moves on an imbalanced cluster")
	}
	if movesA != movesB {
		t.Fatalf("move counts diverge: %d vs %d", movesA, movesB)
	}
	setA, setB := pendingMoves(a.nn), pendingMoves(b.nn)
	if fmt.Sprint(setA) != fmt.Sprint(setB) {
		t.Fatalf("move sets diverge:\n%v\nvs\n%v", setA, setB)
	}
	// Completing the transfers must land both runs in identical placement.
	a.heartbeatAll(nil)
	b.heartbeatAll(nil)
	a.eng.RunUntil(10 * sim.Minute)
	b.eng.RunUntil(10 * sim.Minute)
	a.nn.ForEachBlock(func(ba *BlockInfo) {
		bb := b.nn.Block(ba.ID)
		if bb == nil || !slices.Equal(ba.replicas, bb.replicas) {
			t.Fatalf("post-move placement diverges for block %d", ba.ID)
		}
	})
}

// TestBlockRingFIFO pins the ring buffer's ordering and wrap-around.
func TestBlockRingFIFO(t *testing.T) {
	var q blockRing
	next, got := BlockID(0), BlockID(0)
	// Interleave pushes and pops so head wraps many times.
	for round := 0; round < 200; round++ {
		for i := 0; i < 7; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if v := q.pop(); v != got {
				t.Fatalf("pop = %d, want %d", v, got)
			}
			got++
		}
	}
	for q.len() > 0 {
		if v := q.pop(); v != got {
			t.Fatalf("drain pop = %d, want %d", v, got)
		}
		got++
	}
	if got != next {
		t.Fatalf("drained %d items, pushed %d", got, next)
	}
}

// TestBlockRingMemoryBounded is the regression test for the old
// slice-advance queue, which retained the backing array of every block ever
// queued. The ring's capacity must track the concurrent backlog, not the
// total throughput, and must shrink after a churn burst drains.
func TestBlockRingMemoryBounded(t *testing.T) {
	var q blockRing
	// One huge burst, then a long steady trickle.
	for i := 0; i < 100000; i++ {
		q.push(BlockID(i))
	}
	for q.len() > 0 {
		q.pop()
	}
	for i := 0; i < 500000; i++ {
		q.push(BlockID(i))
		q.pop()
	}
	if cap := len(q.buf); cap > 1024 {
		t.Fatalf("ring capacity %d after drain; burst memory was not released", cap)
	}
}

// TestReplicationQueueBounded drives the namenode-level queue through churn
// — a succession of node deaths, each re-queueing that node's replicas —
// and asserts the queue's backing memory stays bounded by the concurrent
// backlog rather than growing with everything ever queued.
func TestReplicationQueueBounded(t *testing.T) {
	h := newHarness(t, 3, 4, Config{Replication: 3, DeadTimeout: 20 * sim.Second, CheckInterval: 5 * sim.Second, PlacementPolicy: PlacementFlat})
	h.nn.SeedFile("/in/data", 20*DefaultBlockSize, 0)
	dead := map[netmodel.NodeID]bool{}
	tick := h.heartbeatAll(dead)
	defer tick.Stop()
	for round := 0; round < 6; round++ {
		dead[h.all[round]] = true
		h.eng.RunUntil(h.eng.Now() + 2*sim.Minute)
	}
	if c := len(h.nn.replQueue.buf); c > 4*len(h.nn.blocks)+64 {
		t.Fatalf("replication ring capacity %d for %d blocks", c, len(h.nn.blocks))
	}
}
