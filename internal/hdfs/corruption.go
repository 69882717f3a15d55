package hdfs

import (
	"hog/internal/event"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// This file models the faults beyond crash-stop (docs/FAULTS.md): silent
// block corruption with checksum detection on read, client read retry with
// replica failover and capped exponential backoff, gray-node flagging for
// placement avoidance, and partition-heal recovery that hands a dead-marked
// node's preserved replica inventory back to the namenode.

// Client read retry parameters: a read that finds no usable replica (or
// detects corruption) fails over and retries with capped exponential backoff,
// like a real DFS client's block-recovery loop. The jitter draws from the
// engine RNG only on these fault paths; fault-free reads never retry, so
// fault-free runs make zero draws here (determinism contract, docs/FAULTS.md).
const (
	readRetryBase   = 1 * sim.Second
	readRetryMax    = 15 * sim.Second
	maxReadAttempts = 6
)

// CorruptReplica silently flips bits in the replica of bid stored on node id:
// physical truth the namenode does not learn until a reader's checksum
// verification catches it. Reports whether a replica was actually corrupted
// (the node must physically hold one, live or preserved across a dead-marking).
func (nn *Namenode) CorruptReplica(bid BlockID, id netmodel.NodeID) bool {
	b := nn.Block(bid)
	d := nn.Datanode(id)
	if b == nil || d == nil {
		return false
	}
	if !d.blocks.Has(bid) && !d.holdsHeld(bid) {
		return false
	}
	if !b.corrupt.Add(id) {
		return false
	}
	nn.corruptCount++
	nn.stats.ReplicasCorrupted++
	if nn.Events.Active() {
		ev := event.At(event.ReplicaCorrupted, nn.eng.Now())
		ev.Node = id
		ev.Site = nn.SiteName(nn.SiteOf(id))
		ev.Block = int64(bid)
		nn.Events.Emit(ev)
	}
	return true
}

// CorruptReplicaCount returns the number of known-to-the-model (not to the
// namenode) corrupt replicas currently in existence.
func (nn *Namenode) CorruptReplicaCount() int { return nn.corruptCount }

// forgetCorrupt drops every corruption marker on a block being deleted.
func (nn *Namenode) forgetCorrupt(b *BlockInfo) {
	nn.corruptCount -= b.corrupt.Len()
	b.corrupt = nil
}

// VerifyRead is the checksum verification a consumer runs on bytes fetched
// from src: a clean replica returns true. A corrupt one is detected — never
// acknowledged as good data — invalidated out of the block map, its space
// reclaimed, and the block queued for re-replication; false tells the caller
// to fail over to another replica.
func (nn *Namenode) VerifyRead(bid BlockID, src netmodel.NodeID) bool {
	b := nn.Block(bid)
	if b == nil || !b.corrupt.Has(src) {
		return true
	}
	nn.stats.CorruptReadsDetected++
	if nn.Events.Active() {
		ev := event.At(event.CorruptReadDetected, nn.eng.Now())
		ev.Node = src
		ev.Block = int64(bid)
		nn.Events.Emit(ev)
	}
	nn.invalidateCorrupt(b, src)
	return false
}

// invalidateCorrupt removes a detected-corrupt replica from the block map and
// the node's physical inventory, reclaims its disk space, and queues the
// block for recovery — rarest-first orders see the diminished count at once.
func (nn *Namenode) invalidateCorrupt(b *BlockInfo, id netmodel.NodeID) {
	b.corrupt.Remove(id)
	nn.corruptCount--
	nn.stats.ReplicasInvalidated++
	if d := nn.Datanode(id); d != nil {
		d.blocks.Remove(b.ID)
	}
	nn.disk.Release(id, b.Size)
	nn.dropReplica(b, id)
	if nn.Events.Active() {
		ev := event.At(event.ReplicaInvalidated, nn.eng.Now())
		ev.Node = id
		ev.Block = int64(b.ID)
		nn.Events.Emit(ev)
	}
	if nn.Degraded() {
		// The safe-mode exit sweep re-derives loss and recovery work.
		return
	}
	if b.replicas.Len() == 0 && b.pending.Len() == 0 {
		nn.loseBlock(b)
		return
	}
	if b.replicas.Len()+b.pending.Len() < nn.targetReplication(b) {
		nn.queueReplication(b.ID)
		nn.pumpReplication()
	}
}

// recoverPipelineHop records a write-pipeline hop dropped because its node
// was partitioned away or went gray mid-write; the chain closes around it.
func (nn *Namenode) recoverPipelineHop(bid BlockID, tid netmodel.NodeID) {
	nn.stats.PipelineRecoveries++
	if nn.Events.Active() {
		ev := event.At(event.PipelineRecovered, nn.eng.Now())
		ev.Node = tid
		ev.Block = int64(bid)
		nn.Events.Emit(ev)
	}
}

// SetNodeGray flags (or unflags) a node as gray-degraded: it still
// heartbeats, but placement refuses it until the flag clears. Idempotent.
func (nn *Namenode) SetNodeGray(id netmodel.NodeID, gray bool) {
	d := nn.Datanode(id)
	if d == nil || d.gray == gray {
		return
	}
	d.gray = gray
	if gray {
		nn.grayCount++
		nn.placeFlags[id] |= placeGray
	} else {
		nn.grayCount--
		nn.placeFlags[id] &^= placeGray
	}
}

// GrayDatanodes returns the number of nodes currently flagged gray.
func (nn *Namenode) GrayDatanodes() int { return nn.grayCount }

// MarkPhysicallyLost records that a node's hardware is genuinely gone
// (preemption, kill, disk overflow): its preserved inventory, corruption
// markers, and gray flag die with it, and a later partition heal has nothing
// to recover. Safe in either order relative to the dead-timeout markDead.
func (nn *Namenode) MarkPhysicallyLost(id netmodel.NodeID) {
	d := nn.Datanode(id)
	if d == nil || d.physLost {
		return
	}
	d.physLost = true
	scrub := func(bid BlockID) {
		if b := nn.Block(bid); b != nil && b.corrupt.Remove(id) {
			nn.corruptCount--
		}
	}
	for _, bid := range d.blocks {
		scrub(bid)
	}
	for _, h := range d.held {
		scrub(h.id)
	}
	d.held = nil
	nn.SetNodeGray(id, false)
}

// RecoverDatanode brings back a node the namenode declared dead while its
// hardware kept running behind a network partition: the heal-side complement
// of markDead's held capture. The node re-registers with its preserved
// inventory — replicas the cluster re-replicated in the meantime come back as
// tolerated over-replication (set semantics, like a late block report), never
// double-counted. Returns the number of replicas restored to the block map.
func (nn *Namenode) RecoverDatanode(id netmodel.NodeID) int {
	if nn.down {
		return 0
	}
	d := nn.Datanode(id)
	if d == nil || d.Alive || d.physLost {
		return 0
	}
	d.Alive = true
	nn.placeFlags[id] |= placeAlive
	nn.placeable = insertByID(nn.placeable, id)
	nn.live.Add(&d.live, id, d, nn.eng.Now())
	held := d.held
	d.held = nil
	restored := 0
	for _, h := range held {
		b := nn.Block(h.id)
		if b == nil {
			// The file was deleted while the node was unreachable: its copy
			// is garbage, and no deletion path could reach the space it pins.
			nn.disk.Release(id, h.size)
			continue
		}
		nn.addReplica(b, id)
		restored++
	}
	nn.stats.NodesRecovered++
	nn.stats.ReplicasRecovered += restored
	if nn.Events.Active() {
		ev := event.At(event.NodeRecovered, nn.eng.Now())
		ev.Node = id
		ev.Site = nn.SiteName(nn.SiteOf(id))
		ev.Value = restored
		nn.Events.Emit(ev)
	}
	if nn.safeMode {
		nn.maybeExitSafeMode()
		return restored
	}
	// Mirror a late block report: top up anything still short (a recovered
	// corrupt replica does not help a block whose other copies also died).
	for _, h := range held {
		if b := nn.Block(h.id); b != nil && b.replicas.Len()+b.pending.Len() < nn.targetReplication(b) {
			nn.queueReplication(h.id)
		}
	}
	nn.pumpReplication()
	return restored
}

// ReadBlock transfers a block to the reader with the checksum verification a
// real DFS client performs: a corrupt replica is detected (never returned as
// good data), reported and invalidated, and the read fails over to another
// copy with capped exponential backoff. A read that finds no usable replica
// while a partition is live retries the same way — the replicas may be on the
// far side of a cut that heals. done(false) fires only when the retry budget
// is exhausted or the block is gone. Local reads are disk I/O.
func (nn *Namenode) ReadBlock(reader netmodel.NodeID, bid BlockID, done func(ok bool)) {
	nn.readAttempt(reader, bid, 0, done)
}

func (nn *Namenode) readAttempt(reader netmodel.NodeID, bid BlockID, attempt int, done func(ok bool)) {
	fail := func() {
		if done != nil {
			done(false)
		}
	}
	b := nn.Block(bid)
	if b == nil {
		fail()
		return
	}
	retry := func() {
		if attempt+1 >= maxReadAttempts {
			fail()
			return
		}
		nn.eng.After(nn.readBackoff(attempt), func() {
			nn.readAttempt(reader, bid, attempt+1, done)
		})
	}
	// A partition severs a replica from this reader; other readers (same
	// side of the cut) may still use it.
	src, local, ok := nn.ReadSource(reader, bid, func(id netmodel.NodeID) bool { return !nn.net.Reachable(id, reader) })
	if !ok {
		// Preserve pre-fault behaviour exactly when no fault is in play: a
		// block with no replicas fails fast (and draws no randomness) unless
		// a partition could be hiding them or a failover is already underway.
		if attempt == 0 && !nn.net.AnyPartition() {
			fail()
			return
		}
		retry()
		return
	}
	deliver := func() {
		if nn.Block(bid) == nil {
			fail()
			return
		}
		if !nn.VerifyRead(bid, src) {
			retry()
			return
		}
		if done != nil {
			done(true)
		}
	}
	if local {
		nn.net.StartDiskIO(reader, b.Size, deliver)
		return
	}
	nn.net.StartFlow(src, reader, b.Size, deliver)
}

// readBackoff is the capped exponential client retry delay, jittered from the
// engine RNG — a fault-path-only draw (see the constants above).
func (nn *Namenode) readBackoff(attempt int) sim.Time {
	d := readRetryBase
	for i := 0; i < attempt && d < readRetryMax; i++ {
		d *= 2
	}
	if d > readRetryMax {
		d = readRetryMax
	}
	return d + sim.Time(nn.eng.Rand().Int63n(int64(d)/2+1))
}
