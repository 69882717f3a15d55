package hdfs

import "hog/internal/netmodel"

// ForgetReplica drops the replica of bid on id from the namenode's record
// and from the datanode's physical inventory, and declares nothing: no
// loss, no recovery, no disk release. Dropping every copy this way leaves
// the state the audit's replicated-nowhere rule looks for, which no
// exported call reaches.
func (nn *Namenode) ForgetReplica(bid BlockID, id netmodel.NodeID) {
	if d := nn.Datanode(id); d != nil {
		d.blocks.Remove(bid)
	}
	nn.dropReplica(nn.Block(bid), id)
}
