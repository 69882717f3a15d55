package hdfs

import (
	"slices"

	"hog/internal/event"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// This file models namenode failure and recovery (docs/FAULTS.md). The
// namenode's soft state — the block→replica map, the recovery queue, the
// in-flight stream set — is exactly what a real namenode holds only in RAM;
// the namespace (files, block lists, sizes) is what it journals to disk.
// Crash drops the former and keeps the latter. Restart enters safe mode and
// rebuilds the replica map from datanode block reports (Reregister), leaving
// safe mode when a configurable fraction of known blocks has at least one
// reported replica (or on timeout). Replication, balancing, and writes are
// deferred while degraded; reads of reported blocks keep working.

// Crash drops the namenode's soft state: every in-flight replication stream
// is abandoned, the recovery queue is cleared, and the replica map empties.
// Physical state survives — datanodes keep their blocks and disk
// reservations — which is precisely what block reports reconcile later.
func (nn *Namenode) Crash() {
	if nn.down {
		return
	}
	nn.down = true
	// A crash while still rebuilding from an earlier crash abandons that
	// safe-mode pass; the next Restart starts a fresh one.
	nn.safeMode = false
	if nn.safeTimer != nil {
		nn.safeTimer.Cancel()
		nn.safeTimer = nil
	}
	nn.smTotal, nn.smReported = 0, 0
	nn.Stop()

	// Abandon in-flight replication streams. The copy's destination space is
	// returned: the partial copy is garbage without a namenode to commit it.
	streams := nn.streams
	nn.streams = nil
	for _, st := range streams {
		st.flow.Cancel()
		if b := nn.Block(st.bid); b != nil {
			b.pending.Remove(st.dst)
			nn.disk.Release(st.dst, b.Size)
		}
	}
	nn.replQueue = blockRing{}
	nn.replQueued = make(map[BlockID]struct{})

	// Empty the replica map in ascending block, then node, order so the
	// placement hook (the MapReduce scheduler index) sees a well-defined
	// removal sequence.
	for _, b := range nn.blocks {
		for b != nil && b.replicas.Len() > 0 {
			nn.dropReplica(b, b.replicas[0])
		}
	}
	if nn.Events.Active() {
		ev := event.At(event.MasterCrashed, nn.eng.Now())
		ev.Detail = "namenode"
		nn.Events.Emit(ev)
	}
}

// Restart brings a crashed namenode back in safe mode: every live datanode
// owes a block report, and normal service (replication, balancing, writes)
// resumes only once SafeModeThreshold of the known blocks have at least one
// reported replica — or after SafeModeTimeout, whichever comes first.
func (nn *Namenode) Restart() {
	if !nn.down {
		return
	}
	now := nn.eng.Now()
	nn.down = false
	nn.safeMode = true
	nn.safeModeSince = now
	nn.awaiting = 0
	for _, d := range nn.datanodes {
		// A dead datanode owes no report: markDead cleared its flag.
		if d != nil && d.Alive {
			d.awaitingReport = true
			nn.awaiting++
			// Grace-stamp so the dead scan, once it resumes, measures from
			// the restart rather than charging nodes for the outage.
			nn.live.Stamp(&d.live, now)
		}
	}
	nn.smTotal, nn.smReported = 0, 0
	for _, b := range nn.blocks {
		// A block still being written cannot be fully reported — it joins
		// the accounting when its write pipeline finishes.
		if b == nil || b.lost || b.writing {
			continue
		}
		nn.smTotal++
		if b.replicas.Len() > 0 {
			nn.smReported++
		}
	}
	if nn.Events.Active() {
		ev := event.At(event.MasterRecovered, now)
		ev.Detail = "namenode"
		nn.Events.Emit(ev)
		ev = event.At(event.SafeModeEntered, now)
		ev.Value = nn.smTotal
		nn.Events.Emit(ev)
	}
	nn.safeTimer = nn.eng.After(nn.cfg.SafeModeTimeout, func() {
		nn.safeTimer = nil
		nn.exitSafeMode()
	})
	nn.maybeExitSafeMode()
}

// Reregister is a datanode's block report to a restarted namenode: the full
// list of blocks it physically holds, from which the replica map is rebuilt.
// It also counts as a heartbeat. Late reports (after safe mode already
// exited) are still accepted and any replicas the exit sweep scheduled on
// top are tolerated as over-replication.
func (nn *Namenode) Reregister(id netmodel.NodeID) {
	if nn.down {
		return
	}
	d := nn.Datanode(id)
	if d == nil || !d.Alive {
		return
	}
	nn.live.Stamp(&d.live, nn.eng.Now())
	nn.clearAwaiting(d)
	// Stale entries leave the inventory mid-walk, so walk a copy.
	bids := slices.Clone(d.blocks)
	for _, bid := range bids {
		b := nn.Block(bid)
		if b == nil {
			// The file was deleted while this node was out of touch; the
			// degraded DeleteFile path reclaims space by physical scan, so
			// a stale entry here holds no reservation.
			d.blocks.Remove(bid)
			continue
		}
		nn.addReplica(b, id)
	}
	if nn.safeMode {
		nn.maybeExitSafeMode()
		return
	}
	// Late report: top up anything the exit sweep could not cover.
	for _, bid := range bids {
		if b := nn.Block(bid); b != nil && b.replicas.Len()+b.pending.Len() < nn.targetReplication(b) {
			nn.queueReplication(bid)
		}
	}
	nn.pumpReplication()
}

func (nn *Namenode) clearAwaiting(d *DatanodeInfo) {
	if d.awaitingReport {
		d.awaitingReport = false
		nn.awaiting--
	}
}

func (nn *Namenode) maybeExitSafeMode() {
	if !nn.safeMode {
		return
	}
	if nn.smTotal == 0 || float64(nn.smReported) >= nn.cfg.SafeModeThreshold*float64(nn.smTotal) {
		nn.exitSafeMode()
	}
}

// exitSafeMode resumes normal service: unreported blocks whose holders might
// still report are deferred, unreported blocks with no possible holder are
// declared lost, under-replicated blocks are queued, the dead scan restarts,
// and writes queued while degraded are performed.
func (nn *Namenode) exitSafeMode() {
	if !nn.safeMode {
		return
	}
	nn.safeMode = false
	if nn.safeTimer != nil {
		nn.safeTimer.Cancel()
		nn.safeTimer = nil
	}
	reported := nn.smReported
	// Live nodes that never reported get a fresh heartbeat stamp (they are
	// given the full dead timeout to show up) and their physical inventory
	// defers loss declarations for the blocks only they still hold.
	deferred := make(map[BlockID]struct{})
	now := nn.eng.Now()
	for _, d := range nn.datanodes {
		if d != nil && d.Alive && d.awaitingReport {
			nn.live.Stamp(&d.live, now)
			for _, bid := range d.blocks {
				deferred[bid] = struct{}{}
			}
		}
	}
	for _, b := range nn.blocks {
		// In-progress writes look unreplicated but are not: their pipeline
		// queues its own recovery when it finishes.
		if b == nil || b.lost || b.writing {
			continue
		}
		n := b.replicas.Len() + b.pending.Len()
		if n == 0 {
			if _, held := deferred[b.ID]; !held {
				nn.loseBlock(b)
			}
			continue
		}
		if n < nn.targetReplication(b) {
			nn.queueReplication(b.ID)
		}
	}
	nn.Start()
	if nn.Events.Active() {
		ev := event.At(event.SafeModeExited, now)
		ev.Value = reported
		nn.Events.Emit(ev)
	}
	writes := nn.pendingWrites
	nn.pendingWrites = nil
	for _, w := range writes {
		w()
	}
	nn.pumpReplication()
}

// Down reports whether the namenode is crashed.
func (nn *Namenode) Down() bool { return nn.down }

// InSafeMode reports whether the namenode is rebuilding from block reports.
func (nn *Namenode) InSafeMode() bool { return nn.safeMode }

// Degraded reports whether the namenode is crashed or in safe mode — the
// states in which clients should back off and retry rather than treat
// missing replicas as data loss.
func (nn *Namenode) Degraded() bool { return nn.down || nn.safeMode }

// SafeModeSince returns when the current (or last) safe-mode pass began.
func (nn *Namenode) SafeModeSince() sim.Time { return nn.safeModeSince }

// ForEachBlock visits every known block in ascending ID order — the
// deterministic iteration the audit sweep needs.
func (nn *Namenode) ForEachBlock(fn func(*BlockInfo)) {
	for _, b := range nn.blocks {
		if b != nil {
			fn(b)
		}
	}
}
