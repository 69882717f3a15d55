package hdfs

import (
	"cmp"
	"slices"

	"hog/internal/event"
	"hog/internal/netmodel"
)

// replStream is one in-flight re-replication transfer.
type replStream struct {
	bid  BlockID
	src  netmodel.NodeID
	dst  netmodel.NodeID
	flow *netmodel.Flow
}

// compareStreams orders streams by block, then destination, then source. A
// block can have several in-flight streams, so the endpoints break ties.
func compareStreams(a, b *replStream) int {
	if c := cmp.Compare(a.bid, b.bid); c != 0 {
		return c
	}
	if c := cmp.Compare(a.dst, b.dst); c != 0 {
		return c
	}
	return cmp.Compare(a.src, b.src)
}

// addStream inserts st into the ascending stream list.
func (nn *Namenode) addStream(st *replStream) {
	i, _ := slices.BinarySearchFunc(nn.streams, st, compareStreams)
	nn.streams = slices.Insert(nn.streams, i, st)
}

// removeStream deletes st from the ascending stream list.
func (nn *Namenode) removeStream(st *replStream) {
	if i, ok := slices.BinarySearchFunc(nn.streams, st, compareStreams); ok {
		nn.streams = slices.Delete(nn.streams, i, i+1)
	}
}

// blockRing is the FIFO recovery queue, backed by a circular buffer. The
// previous representation — append to a slice, advance with q = q[1:] —
// pinned the backing array of every block ever queued for the life of the
// namenode, O(total-ever-queued) memory under long churn scenarios; the
// ring bounds memory to the maximum concurrent backlog and shrinks again
// when a churn burst drains.
type blockRing struct {
	buf  []BlockID
	head int
	n    int
}

func (q *blockRing) len() int { return q.n }

func (q *blockRing) push(bid BlockID) {
	if q.n == len(q.buf) {
		q.resize(2 * max(q.n, 8))
	}
	q.buf[(q.head+q.n)%len(q.buf)] = bid
	q.n++
}

func (q *blockRing) pop() BlockID {
	bid := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if len(q.buf) > 64 && q.n <= len(q.buf)/4 {
		q.resize(len(q.buf) / 2)
	}
	return bid
}

func (q *blockRing) resize(size int) {
	buf := make([]BlockID, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// at returns the i-th queued block (0 is the head) without removing it.
func (q *blockRing) at(i int) BlockID { return q.buf[(q.head+i)%len(q.buf)] }

// removeAt removes and returns the i-th queued block, shifting later entries
// forward — O(n-i), used by non-FIFO replication orders; removeAt(0) is pop.
func (q *blockRing) removeAt(i int) BlockID {
	bid := q.at(i)
	for ; i < q.n-1; i++ {
		q.buf[(q.head+i)%len(q.buf)] = q.buf[(q.head+i+1)%len(q.buf)]
	}
	q.n--
	if len(q.buf) > 64 && q.n <= len(q.buf)/4 {
		q.resize(len(q.buf) / 2)
	}
	return bid
}

// queueReplication marks a block under-replicated. Duplicate enqueues are
// coalesced.
func (nn *Namenode) queueReplication(bid BlockID) {
	if _, ok := nn.replQueued[bid]; ok {
		return
	}
	if nn.Block(bid) == nil {
		return
	}
	nn.replQueued[bid] = struct{}{}
	nn.replQueue.push(bid)
}

// pumpReplication starts recovery transfers up to the stream limit. Each
// transfer copies the block from a live replica to a placement-chosen
// target; on completion the replica count is re-checked and the block is
// re-queued if still short (e.g. the source died mid-copy, or the factor is
// 10 and one stream only adds one copy at a time).
func (nn *Namenode) pumpReplication() {
	if nn.down || nn.safeMode {
		// Recovery work is deferred while degraded: the queue keeps accruing
		// and the safe-mode exit sweep rebuilds it from the reported state.
		return
	}
	for len(nn.streams) < nn.cfg.MaxReplicationStreams {
		// The active replication order (policy.go) picks which queued block
		// recovers next; the default "fifo" order pops the ring head.
		bid, ok := nn.replOrder.Next(nn)
		if !ok {
			break
		}
		delete(nn.replQueued, bid)
		b := nn.Block(bid)
		if b == nil {
			continue
		}
		want := nn.targetReplication(b)
		have := b.replicas.Len() + b.pending.Len()
		if have >= want {
			continue
		}
		src, ok := nn.anyReplica(b)
		if !ok {
			if b.pending.Len() == 0 {
				nn.loseBlock(b)
			}
			continue
		}
		targets := nn.chooseReplicationTargets(b, 1)
		if len(targets) == 0 {
			// No capacity anywhere right now; retry after a beat so new
			// nodes joining the pool can pick it up.
			nn.eng.After(nn.cfg.CheckInterval, func() {
				nn.queueReplication(bid)
				nn.pumpReplication()
			})
			continue
		}
		dst := targets[0]
		if !nn.net.Reachable(src, dst) {
			// A live partition severs the chosen source from the chosen
			// target. Retry after a beat: by then either the partition healed
			// or the dead scan retired whichever side is unreachable.
			nn.eng.After(nn.cfg.CheckInterval, func() {
				nn.queueReplication(bid)
				nn.pumpReplication()
			})
			continue
		}
		if !nn.disk.Reserve(dst, b.Size) {
			nn.queueReplication(bid)
			continue
		}
		b.pending.Add(dst)
		st := &replStream{bid: bid, src: src, dst: dst}
		nn.addStream(st)
		st.flow = nn.net.StartFlow(src, dst, b.Size, func() {
			nn.removeStream(st)
			b.pending.Remove(dst)
			if d := nn.Datanode(dst); d != nil && d.Alive && nn.Block(bid) != nil {
				nn.addReplica(b, dst)
				nn.stats.ReplicationsDone++
				nn.stats.BytesReplicated += b.Size
				if nn.Events.Active() {
					ev := event.At(event.ReplicationDone, nn.eng.Now())
					ev.Block = int64(bid)
					ev.Node = dst
					nn.Events.Emit(ev)
				}
			} else {
				nn.disk.Release(dst, b.Size)
			}
			if nn.Block(bid) != nil && b.replicas.Len()+b.pending.Len() < nn.targetReplication(b) {
				nn.queueReplication(bid)
			}
			nn.pumpReplication()
		})
	}
}

// cancelStreamsTouching aborts in-flight replication streams whose source or
// destination died: a copy cannot proceed from a dead source, and a copy to
// a dead target is wasted. Affected blocks are re-queued (or declared lost).
func (nn *Namenode) cancelStreamsTouching(id netmodel.NodeID) {
	var doomed []*replStream
	nn.streams = slices.DeleteFunc(nn.streams, func(st *replStream) bool {
		if st.src == id || st.dst == id {
			doomed = append(doomed, st)
			return true
		}
		return false
	})
	for _, st := range doomed {
		st.flow.Cancel()
		b := nn.Block(st.bid)
		if b == nil {
			nn.disk.Release(st.dst, 0)
			continue
		}
		b.pending.Remove(st.dst)
		nn.disk.Release(st.dst, b.Size)
		if b.replicas.Len() == 0 && b.pending.Len() == 0 {
			nn.loseBlock(b)
		} else if b.replicas.Len()+b.pending.Len() < nn.targetReplication(b) {
			nn.queueReplication(st.bid)
		}
	}
}

func (nn *Namenode) targetReplication(b *BlockInfo) int {
	if f, ok := nn.files[b.File]; ok {
		return f.Replication
	}
	return nn.cfg.Replication
}

// anyReplica draws a recovery source uniformly from the block's replicas on
// live datanodes, in ascending ID order so the seeded draw is reproducible.
func (nn *Namenode) anyReplica(b *BlockInfo) (src netmodel.NodeID, ok bool) {
	ids := make([]netmodel.NodeID, 0, b.replicas.Len())
	for _, id := range b.replicas {
		if d := nn.Datanode(id); d != nil && d.Alive {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0, false
	}
	return ids[nn.eng.Rand().Intn(len(ids))], true
}
