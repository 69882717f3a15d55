package hdfs

import (
	"sort"

	"hog/internal/netmodel"
)

// BalanceOnce runs one round of the HDFS balancer (the paper: users "can use
// the HDFS balancer to balance the data distribution" after growing the
// pool). It moves block replicas from nodes whose disk utilisation exceeds
// the cluster mean by more than threshold to nodes below the mean by more
// than threshold, preserving placement invariants (no duplicate replica on a
// node). Moves are simulated transfers; the returned count is the number of
// moves started. maxMoves bounds a round.
func (nn *Namenode) BalanceOnce(threshold float64, maxMoves int) int {
	if nn.down || nn.safeMode {
		// No balancing against a crashed or still-rebuilding namenode: its
		// replica map understates reality until block reports finish.
		return 0
	}
	type util struct {
		d *DatanodeInfo
		u float64
	}
	var all []util
	var sum float64
	for _, d := range nn.datanodes {
		if d == nil || !d.Alive {
			continue
		}
		u := nn.disk.Utilization(d.ID)
		all = append(all, util{d, u})
		sum += u
	}
	if len(all) == 0 {
		return 0
	}
	mean := sum / float64(len(all))
	sort.Slice(all, func(i, j int) bool {
		if all[i].u != all[j].u {
			return all[i].u > all[j].u
		}
		return all[i].d.ID < all[j].d.ID
	})
	moves := 0
	for oi := range all {
		over := &all[oi]
		if moves >= maxMoves || over.u <= mean+threshold {
			// The list is sorted by descending utilisation and scheduled
			// moves only lower the entries above this one, so nothing further
			// down can still be over-full.
			break
		}
		// Move blocks from the tail (most underutilised) upward, keeping the
		// working utilisations current as moves are scheduled: without the
		// adjustment one round kept draining the same over-full node against
		// its stale pre-round utilisation and overshot both endpoints.
		for i := len(all) - 1; i > oi && moves < maxMoves && over.u > mean+threshold; i-- {
			under := &all[i]
			if under.u >= mean-threshold {
				// Skip rather than stop: scheduled moves may have pumped this
				// tail entry into the band while entries further up are still
				// under-full, so ascending order no longer holds here.
				continue
			}
			// The source's inventory is ascending, so the move set is the
			// same on every run over identical state (see
			// TestBalanceOnceDeterministic). A move changes inventories
			// only when its copy completes, after this round.
			bid, ok := nn.pickMovableBlock(over.d.blocks, under.d)
			if !ok {
				continue
			}
			size := nn.Block(bid).Size
			if nn.startMove(bid, over.d.ID, under.d.ID) {
				moves++
				if c := nn.disk.Capacity(over.d.ID); c > 0 {
					over.u -= size / c
				}
				if c := nn.disk.Capacity(under.d.ID); c > 0 {
					under.u += size / c
				}
			}
		}
	}
	return moves
}

// pickMovableBlock finds the first candidate block (ascending BlockID) that
// dst does not already host, is not in flight to dst, and fits on dst.
func (nn *Namenode) pickMovableBlock(cands []BlockID, dst *DatanodeInfo) (BlockID, bool) {
	for _, bid := range cands {
		b := nn.Block(bid)
		if b == nil || b.replicas.Has(dst.ID) || b.pending.Has(dst.ID) {
			continue
		}
		if nn.disk.Free(dst.ID) >= b.Size {
			return bid, true
		}
	}
	return 0, false
}

// startMove copies a block src->dst and drops the src replica once the copy
// is durable, mirroring the balancer's copy-then-delete protocol.
func (nn *Namenode) startMove(bid BlockID, src, dst netmodel.NodeID) bool {
	b := nn.Block(bid)
	if b == nil {
		return false
	}
	if !nn.disk.Reserve(dst, b.Size) {
		return false
	}
	b.pending.Add(dst)
	nn.net.StartFlow(src, dst, b.Size, func() {
		b.pending.Remove(dst)
		if nn.Block(bid) == nil { // file deleted mid-move
			nn.disk.Release(dst, b.Size)
			return
		}
		if d := nn.Datanode(dst); d == nil || !d.Alive {
			nn.disk.Release(dst, b.Size)
			return
		}
		nn.addReplica(b, dst)
		nn.stats.BalancerMoves++
		// Drop the source replica only if the block stays at or above its
		// target without it.
		if sd := nn.Datanode(src); sd != nil {
			if b.replicas.Has(src) && b.replicas.Len() > nn.targetReplication(b) {
				nn.dropReplica(b, src)
				sd.blocks.Remove(bid)
				nn.disk.Release(src, b.Size)
			}
		}
	})
	return true
}
