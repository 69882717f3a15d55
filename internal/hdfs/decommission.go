package hdfs

import "hog/internal/netmodel"

// Decommission gracefully retires a datanode: its replicas are first copied
// elsewhere, and done is invoked once the node holds no block whose
// replication would drop below target without it. This is how an elastic
// HOG pool should shrink without churning the replication monitor (paper
// §VI: "To shrink and grow HOG, we need to consider how the data blocks
// will be moved and replicated").
//
// The node keeps serving reads while draining. Preemption during a drain is
// handled by the normal dead-node path.
func (nn *Namenode) Decommission(id netmodel.NodeID, done func()) {
	d, ok := nn.datanodes[id]
	if !ok || !d.Alive {
		if done != nil {
			done()
		}
		return
	}
	if nn.decommissioning == nil {
		nn.decommissioning = make(map[netmodel.NodeID]func())
	}
	nn.decommissioning[id] = done
	// Queue every hosted block for an extra copy. The placement policy
	// excludes decommissioning nodes from new targets, so the copies land
	// elsewhere.
	bids := make([]BlockID, 0, len(d.blocks))
	for bid := range d.blocks {
		bids = append(bids, bid)
	}
	sortBlockIDs(bids)
	for _, bid := range bids {
		nn.queueReplication(bid)
	}
	nn.pumpReplication()
	nn.checkDecommission(id)
}

// Decommissioning reports whether the node is draining.
func (nn *Namenode) Decommissioning(id netmodel.NodeID) bool {
	_, ok := nn.decommissioning[id]
	return ok
}

// checkDecommission completes a drain when every block on the node has
// enough replicas elsewhere.
func (nn *Namenode) checkDecommission(id netmodel.NodeID) {
	done, ok := nn.decommissioning[id]
	if !ok {
		return
	}
	d := nn.datanodes[id]
	if d == nil {
		delete(nn.decommissioning, id)
		return
	}
	for bid := range d.blocks {
		b := nn.blocks[bid]
		if b == nil {
			continue
		}
		// Count replicas excluding this node.
		others := len(b.replicas)
		if _, here := b.replicas[id]; here {
			others--
		}
		if others < nn.targetReplication(b) {
			return // still needed
		}
	}
	// Fully drained: drop its replicas (space is reclaimed by the caller
	// shutting the node down) and finish.
	bids := make([]BlockID, 0, len(d.blocks))
	for bid := range d.blocks {
		bids = append(bids, bid)
	}
	sortBlockIDs(bids)
	for _, bid := range bids {
		b := nn.blocks[bid]
		if b == nil {
			continue
		}
		nn.dropReplica(b, id)
		nn.disk.Release(id, b.Size)
	}
	d.blocks = nil
	delete(nn.decommissioning, id)
	if done != nil {
		done()
	}
}

func sortBlockIDs(bids []BlockID) {
	for i := 1; i < len(bids); i++ {
		for j := i; j > 0 && bids[j] < bids[j-1]; j-- {
			bids[j], bids[j-1] = bids[j-1], bids[j]
		}
	}
}
