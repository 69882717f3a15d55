package hdfs

import (
	"fmt"
	"slices"
	"sort"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

// PlaceWork counts the placement scan's work: gatherCandidates calls, the
// placeable-list entries they visited (live datanodes plus the deaths not
// yet dropped) and the candidates they kept. The counts are exact for a
// seed but feed no result.
type PlaceWork struct {
	Calls, Scanned, Gathered int64
}

// PlaceWork returns the placement scan's work counters.
func (nn *Namenode) PlaceWork() PlaceWork { return nn.placeWork }

// gatherCandidates fills the namenode's candidate scratch buffer with every
// live datanode that has room for a block of the given size and, when b is
// not nil, holds no replica or in-flight copy of the recovering block b —
// in ascending ID order (the placeable list is kept sorted, so no per-call
// sort) — then shuffles it with the engine's RNG so ties break randomly but
// reproducibly. The scan plus shuffle is O(live datanodes): the scan drops
// the datanodes that died since the previous call from the placeable list
// as it passes them, so a preempted node is visited at most once more. b's
// holders are stamped with a fresh placement epoch up front, so the scan
// tests a field instead of searching the block's sets per candidate.
func (nn *Namenode) gatherCandidates(size float64, b *BlockInfo) []*DatanodeInfo {
	nn.placeEpoch++
	if b != nil {
		for _, set := range [2]nodeSet{b.replicas, b.pending} {
			for _, id := range set {
				if d := nn.Datanode(id); d != nil {
					d.placeMark = nn.placeEpoch
				}
			}
		}
	}
	cands := nn.candBuf[:0]
	list := nn.placeable
	kept := 0
	for i, d := range list {
		if !d.Alive {
			continue
		}
		if kept != i {
			list[kept] = d
		}
		kept++
		if d.gray {
			// A node flagged for gray degradation still heartbeats, but giving
			// it new replicas would stash data behind a slow disk and widen the
			// failure's blast radius; placement routes around it until the
			// degradation is lifted.
			continue
		}
		if d.placeMark == nn.placeEpoch {
			continue
		}
		if nn.disk.Free(d.ID) >= size {
			cands = append(cands, d)
		}
	}
	clear(list[kept:])
	nn.placeable = list[:kept]
	nn.placeWork.Calls++
	nn.placeWork.Scanned += int64(len(list))
	nn.placeWork.Gathered += int64(len(cands))
	nn.candBuf = cands
	sim.Shuffle(nn.eng.Rand(), cands)
	return cands
}

// CheckLiveList reports a breach of the placeable list's invariant: it is
// strictly ascending by ID, and its live entries are exactly the live
// registered datanodes.
func (nn *Namenode) CheckLiveList() error {
	for i := 1; i < len(nn.placeable); i++ {
		if nn.placeable[i-1].ID >= nn.placeable[i].ID {
			return fmt.Errorf("placeable list out of ID order at %d: %d then %d", i, nn.placeable[i-1].ID, nn.placeable[i].ID)
		}
	}
	dead := func(d *DatanodeInfo) bool { return d == nil || !d.Alive }
	got := slices.DeleteFunc(slices.Clone(nn.placeable), dead)
	want := slices.DeleteFunc(slices.Clone(nn.datanodes), dead)
	if !slices.Equal(got, want) {
		return fmt.Errorf("placeable list holds %d live datanodes, the table %d, or other ones", len(got), len(want))
	}
	return nil
}

// spreadAcrossSites appends up to n targets chosen from cands (in shuffled
// order, skipping skipIx) to targets, greedily preferring sites hosting the
// fewest replicas chosen so far, so ten replicas of a block land on all
// five sites before doubling up anywhere. nn.siteCounts must hold the
// per-site seed counts (existing replicas) on entry; it is scratch and is
// left dirty.
//
// The greedy rule — "first candidate in shuffled order whose site count is
// minimal" — is evaluated through per-site FIFO queues of candidate
// positions: the winner is the earliest queue head among minimum-count
// sites, which is the same candidate the original O(replicas × candidates)
// rescan picked, at O(replicas × sites). No site can supply more than the
// want = n−len(targets) targets still missing, so a queue stops at want
// positions and the candidate walk stops once every site's queue is full;
// placement_oracle_test.go keeps the uncapped queues as the oracle.
func (nn *Namenode) spreadAcrossSites(cands []*DatanodeInfo, skipIx int, n int, targets []netmodel.NodeID) []netmodel.NodeID {
	want := n - len(targets)
	if want <= 0 {
		return targets
	}
	for s := range nn.siteCands {
		nn.siteCands[s] = nn.siteCands[s][:0]
	}
	remaining, full := 0, 0
	for i, d := range cands {
		if i == skipIx {
			continue
		}
		q := nn.siteCands[d.siteIx]
		if len(q) == want {
			continue
		}
		nn.siteCands[d.siteIx] = append(q, int32(i))
		remaining++
		if len(q)+1 == want {
			if full++; full == len(nn.siteCands) {
				break
			}
		}
	}
	heads := nn.siteHeads
	for s := range heads {
		heads[s] = 0
	}
	for len(targets) < n && remaining > 0 {
		bestSite := -1
		bestCount := int(^uint(0) >> 1)
		bestPos := int32(0)
		for s := range nn.siteCands {
			if heads[s] >= len(nn.siteCands[s]) {
				continue
			}
			c := nn.siteCounts[s]
			if c < bestCount || (c == bestCount && nn.siteCands[s][heads[s]] < bestPos) {
				bestSite, bestCount, bestPos = s, c, nn.siteCands[s][heads[s]]
			}
		}
		d := cands[bestPos]
		nn.siteCounts[bestSite]++
		heads[bestSite]++
		remaining--
		targets = append(targets, d.ID)
	}
	return targets
}

// chooseTargets picks replica targets for a new block through the active
// placement policy (policy.go; the default "grid" policy documents the
// paper's rule). Fewer than n targets are returned when the cluster cannot
// satisfy the request; callers queue the block for later re-replication.
func (nn *Namenode) chooseTargets(writer netmodel.NodeID, size float64, n int) []netmodel.NodeID {
	return nn.place.ChooseTargets(nn, writer, size, n)
}

// chooseReplicationTargets picks targets for re-replicating block b through
// the active placement policy, counting its existing replicas toward the
// spread.
func (nn *Namenode) chooseReplicationTargets(b *BlockInfo, n int) []netmodel.NodeID {
	return nn.place.ReplicationTargets(nn, b, n)
}

// SitesOf returns the distinct awareness sites currently hosting replicas of
// the block, for invariant checks and experiments.
func (nn *Namenode) SitesOf(b *BlockInfo) []string {
	seen := make(map[string]bool)
	var out []string
	for _, id := range b.replicas {
		if d := nn.Datanode(id); d != nil && !seen[d.Site] {
			seen[d.Site] = true
			out = append(out, d.Site)
		}
	}
	sort.Strings(out)
	return out
}
