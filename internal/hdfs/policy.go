package hdfs

import (
	"fmt"
	"slices"

	"hog/internal/netmodel"
	"hog/internal/ordered"
)

// This file defines the pluggable block-placement and re-replication-order
// policies. The candidate machinery (gatherCandidates, spreadAcrossSites)
// and the recovery ring stay on the Namenode as the shared substrate; a
// policy only decides which candidates become targets and which queued block
// recovers next. Policies are selected by name through Config.PlacementPolicy
// and Config.ReplicationOrder (set through the hog.WithHDFS option; the
// POLICY experiment sweeps them; core.Validate vets the names); the
// defaults reproduce the pre-extraction behaviour bit for bit, which
// policy_equiv_test.go pins.

// PlacementPolicy chooses replica targets for new writes and for recovery
// copies. Implementations must draw randomness only through the candidate
// substrate (gatherCandidates shuffles with the engine RNG) so runs stay
// deterministic.
type PlacementPolicy interface {
	// Name returns the registry name the policy was constructed under.
	Name() string
	// ChooseTargets picks up to n distinct live datanodes with room for a
	// new block of the given size. writer, if a live datanode, may be
	// preferred for the first replica. Fewer than n targets mean the
	// cluster cannot satisfy the request right now.
	ChooseTargets(nn *Namenode, writer netmodel.NodeID, size float64, n int) []netmodel.NodeID
	// ReplicationTargets picks up to n targets for re-replicating block b,
	// accounting for its existing and in-flight replicas.
	ReplicationTargets(nn *Namenode, b *BlockInfo, n int) []netmodel.NodeID
}

// ReplicationOrder decides which queued under-replicated block the recovery
// pump serves next. The ring and its coalescing set stay on the Namenode;
// Next removes and returns one entry (policies may pick any position) or
// reports false when the queue is empty. Entries may be stale — the pump
// re-validates every block after Next.
type ReplicationOrder interface {
	// Name returns the registry name the policy was constructed under.
	Name() string
	// Next removes and returns the next block to recover; ok is false when
	// the queue is empty.
	Next(nn *Namenode) (bid BlockID, ok bool)
}

// Registry names of the built-in policies.
const (
	PlacementGrid     = "grid"
	PlacementFlat     = "flat"
	PlacementRandom   = "random"
	ReplicationFIFO   = "fifo"
	ReplicationRarest = "rarest"
)

var placementPolicies = map[string]func() PlacementPolicy{
	PlacementGrid:   func() PlacementPolicy { return gridPlacement{} },
	PlacementFlat:   func() PlacementPolicy { return flatPlacement{} },
	PlacementRandom: func() PlacementPolicy { return randomPlacement{} },
}

var replicationOrders = map[string]func() ReplicationOrder{
	ReplicationFIFO:   func() ReplicationOrder { return fifoOrder{} },
	ReplicationRarest: func() ReplicationOrder { return rarestOrder{} },
}

// NewPlacementPolicy constructs the named placement policy; the empty name
// selects the default ("grid", the paper's site-aware rule).
func NewPlacementPolicy(name string) (PlacementPolicy, error) {
	if name == "" {
		name = PlacementGrid
	}
	mk, ok := placementPolicies[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: unknown placement policy %q (have %v)", name, PlacementPolicyNames())
	}
	return mk(), nil
}

// NewReplicationOrder constructs the named re-replication order; the empty
// name selects the default ("fifo", recovery in loss order).
func NewReplicationOrder(name string) (ReplicationOrder, error) {
	if name == "" {
		name = ReplicationFIFO
	}
	mk, ok := replicationOrders[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: unknown replication order %q (have %v)", name, ReplicationOrderNames())
	}
	return mk(), nil
}

// PlacementPolicyNames returns the registered placement policy names, sorted.
func PlacementPolicyNames() []string { return ordered.Keys(placementPolicies) }

// ReplicationOrderNames returns the registered replication-order names,
// sorted.
func ReplicationOrderNames() []string { return ordered.Keys(replicationOrders) }

// PlacementPolicyName returns the active placement policy's registry name.
func (nn *Namenode) PlacementPolicyName() string { return nn.place.Name() }

// ReplicationOrderName returns the active replication order's registry name.
func (nn *Namenode) ReplicationOrderName() string { return nn.replOrder.Name() }

// writerFirst gathers the placement candidates and, when the writer is
// among them (a live, non-gray datanode with room for the block), takes it
// as the first target (data locality for the producing task). skipIx is the
// writer's index in cands, or -1 when it was not taken.
func (nn *Namenode) writerFirst(writer netmodel.NodeID, size float64) (cands []int32, targets []netmodel.NodeID, skipIx int) {
	cands = nn.gatherCandidates(size, nil)
	if i := slices.Index(cands, int32(writer)); i >= 0 {
		return cands, []netmodel.NodeID{writer}, i
	}
	return cands, nil, -1
}

// gridPlacement is HOG's policy: replica one on the writer when possible,
// then a greedy spread so replicas cover as many sites as possible before
// doubling up (the paper's generalisation of Hadoop's source-rack +
// one-other-rack rule to the site failure domain).
type gridPlacement struct{}

func (gridPlacement) Name() string { return PlacementGrid }

func (gridPlacement) ChooseTargets(nn *Namenode, writer netmodel.NodeID, size float64, n int) []netmodel.NodeID {
	if n <= 0 {
		return nil
	}
	cands, targets, skipIx := nn.writerFirst(writer, size)
	if len(cands) == 0 {
		return nil
	}
	// Site-aware spreading, seeded with the replicas chosen so far.
	for s := range nn.siteCounts {
		nn.siteCounts[s] = 0
	}
	for _, id := range targets {
		nn.siteCounts[nn.siteOf[id]]++
	}
	return nn.spreadAcrossSites(cands, skipIx, n, targets)
}

func (gridPlacement) ReplicationTargets(nn *Namenode, b *BlockInfo, n int) []netmodel.NodeID {
	if n <= 0 {
		return nil
	}
	cands := nn.gatherCandidates(b.Size, b)
	if len(cands) == 0 {
		return nil
	}
	// Candidate pool as in ChooseTargets, but seeded with the existing
	// replicas' site counts.
	for s := range nn.siteCounts {
		nn.siteCounts[s] = 0
	}
	for _, set := range [2][]netmodel.NodeID{b.replicas, b.pending} {
		for _, id := range set {
			if nn.Datanode(id) != nil {
				nn.siteCounts[nn.siteOf[id]]++
			}
		}
	}
	return nn.spreadAcrossSites(cands, -1, n, nil)
}

// flatPlacement is grid placement without topology knowledge: replica one
// on the writer when possible, the rest in shuffled candidate order, and
// recovery copies placed as randomPlacement places them. It is the paper's
// implicit baseline for a grid deployment without site awareness, and
// stock Hadoop's choice in a HOD cluster.
type flatPlacement struct{}

func (flatPlacement) Name() string { return PlacementFlat }

func (flatPlacement) ChooseTargets(nn *Namenode, writer netmodel.NodeID, size float64, n int) []netmodel.NodeID {
	if n <= 0 {
		return nil
	}
	cands, targets, skipIx := nn.writerFirst(writer, size)
	for i := 0; len(targets) < n && i < len(cands); i++ {
		if i != skipIx {
			targets = append(targets, netmodel.NodeID(cands[i]))
		}
	}
	return targets
}

func (flatPlacement) ReplicationTargets(nn *Namenode, b *BlockInfo, n int) []netmodel.NodeID {
	return randomPlacement{}.ReplicationTargets(nn, b, n)
}

// randomPlacement scatters replicas uniformly at random with no writer
// preference and no site awareness — the widest spread the candidate pool
// allows, and the ablation baseline that shows what HOG's grid awareness
// buys. The shuffled candidate order is the random draw.
type randomPlacement struct{}

func (randomPlacement) Name() string { return PlacementRandom }

func (randomPlacement) ChooseTargets(nn *Namenode, _ netmodel.NodeID, size float64, n int) []netmodel.NodeID {
	return randomTargets(nn, size, n, nil)
}

func (randomPlacement) ReplicationTargets(nn *Namenode, b *BlockInfo, n int) []netmodel.NodeID {
	return randomTargets(nn, b.Size, n, b)
}

// randomTargets takes the first n shuffled candidates; a non-nil b is the
// block being recovered, whose holders are not candidates.
func randomTargets(nn *Namenode, size float64, n int, b *BlockInfo) []netmodel.NodeID {
	if n <= 0 {
		return nil
	}
	cands := nn.gatherCandidates(size, b)
	var targets []netmodel.NodeID
	for i := 0; len(targets) < n && i < len(cands); i++ {
		targets = append(targets, netmodel.NodeID(cands[i]))
	}
	return targets
}

// fifoOrder recovers blocks in the order their under-replication was
// noticed — the pre-extraction behaviour, one ring pop per stream slot.
type fifoOrder struct{}

func (fifoOrder) Name() string { return ReplicationFIFO }

func (fifoOrder) Next(nn *Namenode) (BlockID, bool) {
	if nn.replQueue.len() == 0 {
		return 0, false
	}
	return nn.replQueue.pop(), true
}

// rarestOrder recovers the most endangered block first: fewest effective
// replicas plus in-flight copies, ties broken by lowest block ID. Deleted
// blocks (stale ring entries) count as rarity -1 so they flush out
// immediately; the pump's validity check discards them. The scan is O(queue)
// per stream slot — acceptable for a recovery path that is bounded by
// MaxReplicationStreams, and the price of not recovering a singly-replicated
// block behind a churn burst's backlog of nine-replica blocks.
type rarestOrder struct{}

func (rarestOrder) Name() string { return ReplicationRarest }

func (rarestOrder) Next(nn *Namenode) (BlockID, bool) {
	q := &nn.replQueue
	if q.len() == 0 {
		return 0, false
	}
	best, bestHave, bestBid := 0, 0, BlockID(0)
	for i := 0; i < q.len(); i++ {
		bid := q.at(i)
		have := -1
		if b := nn.Block(bid); b != nil {
			have = b.replicas.Len() + b.pending.Len()
		}
		if i == 0 || have < bestHave || (have == bestHave && bid < bestBid) {
			best, bestHave, bestBid = i, have, bid
		}
	}
	return q.removeAt(best), true
}
