package hdfs

import (
	"sort"

	"hog/internal/netmodel"
)

// gatherCandidates fills the namenode's candidate scratch buffer with every
// live, non-excluded datanode that has room for a block of the given size —
// in ascending ID order (dnOrder is maintained sorted, so no per-call sort) —
// then shuffles it with the engine's RNG so ties break randomly but
// reproducibly. The scan plus shuffle is O(datanodes); the old
// per-call sort made it O(datanodes log datanodes), the largest single cost
// of a LARGE-GRID run. The excluded datanodes are stamped with a fresh
// placement epoch up front, so the scan tests a field instead of making a
// map lookup per candidate.
func (nn *Namenode) gatherCandidates(size float64, exclude map[netmodel.NodeID]struct{}) []*DatanodeInfo {
	nn.placeEpoch++
	for id := range exclude {
		if d := nn.datanodes[id]; d != nil {
			d.placeMark = nn.placeEpoch
		}
	}
	cands := nn.candBuf[:0]
	for _, d := range nn.dnOrder {
		if !d.Alive {
			continue
		}
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
	nn.candBuf = cands
	if len(cands) == 0 {
		return cands
	}
	r := nn.eng.Rand()
	r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands
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
// rescan picked, at O(replicas × sites).
func (nn *Namenode) spreadAcrossSites(cands []*DatanodeInfo, skipIx int, n int, targets []netmodel.NodeID) []netmodel.NodeID {
	for s := range nn.siteCands {
		nn.siteCands[s] = nn.siteCands[s][:0]
	}
	remaining := 0
	for i, d := range cands {
		if i == skipIx {
			continue
		}
		nn.siteCands[d.siteIx] = append(nn.siteCands[d.siteIx], int32(i))
		remaining++
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
func (nn *Namenode) chooseTargets(writer netmodel.NodeID, size float64, n int, exclude map[netmodel.NodeID]struct{}) []netmodel.NodeID {
	return nn.place.ChooseTargets(nn, writer, size, n, exclude)
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
	for id := range b.replicas {
		if d, ok := nn.datanodes[id]; ok && !seen[d.Site] {
			seen[d.Site] = true
			out = append(out, d.Site)
		}
	}
	sort.Strings(out)
	return out
}
