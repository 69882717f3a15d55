package hdfs

import (
	"fmt"
	"slices"

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

// gatherCandidates fills the namenode's candidate scratch buffer with the
// ID of every live, non-gray datanode that has room for a block of the given
// size and, when b is not nil, holds no replica or in-flight copy of the
// recovering block b — in ascending ID order (the placeable list is kept
// sorted, so no per-call sort) — then shuffles it with the engine's RNG so
// ties break randomly but reproducibly. The scan plus shuffle is O(live
// datanodes), and the scan reads two things per datanode: its list entry
// and its placement flags byte, which holds every test (b's holders are
// flagged placeHeld for the call). Only a datanode short of a block of free
// space, or a size above a block, costs a free-space computation. The scan
// drops the datanodes that died since the previous call from the placeable
// list as it passes them, so a preempted node is visited at most once more.
func (nn *Namenode) gatherCandidates(size float64, b *BlockInfo) []int32 {
	if b != nil {
		nn.markHeld(b, true)
	}
	list := nn.placeable
	nn.candBuf = slices.Grow(nn.candBuf[:0], len(list))
	cands := nn.candBuf[:len(list)]
	flags := nn.placeFlags
	roomy := size <= nn.cfg.BlockSize
	kept, n := 0, 0
	for i, id := range list {
		f := flags[id]
		if f&placeAlive == 0 {
			continue
		}
		if kept != i {
			list[kept] = id
		}
		kept++
		if f != placeAlive || !roomy {
			// Gray, a holder of b, short of a block, or a size above a
			// block. A node flagged for gray degradation still heartbeats,
			// but giving it new replicas would stash data behind a slow disk
			// and widen the failure's blast radius; placement routes around
			// it until the degradation is lifted.
			if f&(placeGray|placeHeld) != 0 || nn.disk.Free(netmodel.NodeID(id)) < size {
				continue
			}
		}
		cands[n] = id
		n++
	}
	if b != nil {
		nn.markHeld(b, false)
	}
	cands = cands[:n]
	nn.placeable = list[:kept]
	nn.placeWork.Calls++
	nn.placeWork.Scanned += int64(len(list))
	nn.placeWork.Gathered += int64(len(cands))
	sim.Shuffle(nn.eng.Source(), cands)
	return cands
}

// markHeld sets (or clears) placeHeld on the registered datanodes holding a
// replica or in-flight copy of b.
func (nn *Namenode) markHeld(b *BlockInfo, on bool) {
	for _, set := range [2][]netmodel.NodeID{b.replicas, b.pending} {
		for _, id := range set {
			if nn.Datanode(id) == nil {
				continue
			}
			if on {
				nn.placeFlags[id] |= placeHeld
			} else {
				nn.placeFlags[id] &^= placeHeld
			}
		}
	}
}

// CheckLiveList reports a breach of the placeable list's invariant: it is
// strictly ascending, its live entries are exactly the live registered
// datanodes, the placement flags agree with every datanode record's Alive
// and gray fields and with the disk tracker's free space (zero where no
// datanode registered; placeHeld never set between calls). It also checks
// the ID-ordered lists the namenode walks without sorting: every datanode's
// inventory and preserved inventory are strictly ascending, a live datanode
// preserves nothing, and the replication streams are strictly ascending by
// (block, destination, source).
func (nn *Namenode) CheckLiveList() error {
	for i := 1; i < len(nn.placeable); i++ {
		if nn.placeable[i-1] >= nn.placeable[i] {
			return fmt.Errorf("placeable list out of ID order at %d: %d then %d", i, nn.placeable[i-1], nn.placeable[i])
		}
	}
	if len(nn.placeFlags) != len(nn.datanodes) {
		return fmt.Errorf("placement flags cover %d IDs, the datanode table %d", len(nn.placeFlags), len(nn.datanodes))
	}
	var want []int32
	for id, d := range nn.datanodes {
		var f uint8
		if d != nil && d.Alive {
			f |= placeAlive
			want = append(want, int32(id))
		}
		if d != nil && d.gray {
			f |= placeGray
		}
		if d != nil {
			f |= nn.shortBit(netmodel.NodeID(id))
		}
		if nn.placeFlags[id] != f {
			return fmt.Errorf("datanode %d: placement flags %04b, its record and disk say %04b", id, nn.placeFlags[id], f)
		}
		if d == nil {
			continue
		}
		for i := 1; i < len(d.blocks); i++ {
			if d.blocks[i-1] >= d.blocks[i] {
				return fmt.Errorf("datanode %d: inventory out of ID order at %d: %d then %d", id, i, d.blocks[i-1], d.blocks[i])
			}
		}
		for i := 1; i < len(d.held); i++ {
			if d.held[i-1].id >= d.held[i].id {
				return fmt.Errorf("datanode %d: preserved inventory out of ID order at %d: %d then %d", id, i, d.held[i-1].id, d.held[i].id)
			}
		}
		if d.Alive && len(d.held) > 0 {
			return fmt.Errorf("live datanode %d preserves %d replicas", id, len(d.held))
		}
	}
	for i := 1; i < len(nn.streams); i++ {
		if compareStreams(nn.streams[i-1], nn.streams[i]) >= 0 {
			a, b := nn.streams[i-1], nn.streams[i]
			return fmt.Errorf("replication streams out of order at %d: block %d %d->%d then block %d %d->%d", i, a.bid, a.src, a.dst, b.bid, b.src, b.dst)
		}
	}
	got := slices.DeleteFunc(slices.Clone(nn.placeable), func(id int32) bool {
		d := netmodel.Lookup(nn.datanodes, netmodel.NodeID(id))
		return d == nil || !d.Alive
	})
	if !slices.Equal(got, want) {
		return fmt.Errorf("placeable list holds %d live datanodes, the table %d, or other ones", len(got), len(want))
	}
	return nil
}

// spreadAcrossSites appends up to n targets chosen from the candidate IDs
// cands (in shuffled order, skipping skipIx) to targets, greedily
// preferring sites hosting the fewest replicas chosen so far, so ten
// replicas of a block land on all five sites before doubling up anywhere.
// nn.siteCounts must hold the per-site seed counts (existing replicas) on
// entry; it is scratch and is left dirty.
//
// The greedy rule — "first candidate in shuffled order whose site count is
// minimal" — is evaluated through per-site FIFO queues of candidate
// positions: the winner is the earliest queue head among minimum-count
// sites, which is the same candidate the original O(replicas × candidates)
// rescan picked, at O(replicas × sites). No site can supply more than the
// want = n−len(targets) targets still missing, so a queue stops at want
// positions and the candidate walk stops once every site's queue is full;
// placement_oracle_test.go keeps the uncapped queues as the oracle.
func (nn *Namenode) spreadAcrossSites(cands []int32, skipIx int, n int, targets []netmodel.NodeID) []netmodel.NodeID {
	want := n - len(targets)
	if want <= 0 {
		return targets
	}
	for s := range nn.siteCands {
		nn.siteCands[s] = nn.siteCands[s][:0]
	}
	remaining, full := 0, 0
	for i, id := range cands {
		if i == skipIx {
			continue
		}
		site := nn.siteOf[id]
		q := nn.siteCands[site]
		if len(q) == want {
			continue
		}
		nn.siteCands[site] = append(q, int32(i))
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
		nn.siteCounts[bestSite]++
		heads[bestSite]++
		remaining--
		targets = append(targets, netmodel.NodeID(cands[bestPos]))
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

// SiteCount returns the number of distinct awareness sites currently
// hosting replicas of the block, for invariant checks and experiments.
func (nn *Namenode) SiteCount(b *BlockInfo) int {
	var seen []int
	for _, id := range b.replicas {
		if s := nn.SiteOf(id); s >= 0 && !slices.Contains(seen, s) {
			seen = append(seen, s)
		}
	}
	return len(seen)
}
