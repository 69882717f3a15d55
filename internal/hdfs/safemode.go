package hdfs

import (
	"sort"

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
	streams := make([]*replStream, 0, len(nn.streams))
	for st := range nn.streams {
		streams = append(streams, st)
	}
	sort.Slice(streams, func(i, j int) bool {
		if streams[i].bid != streams[j].bid {
			return streams[i].bid < streams[j].bid
		}
		if streams[i].dst != streams[j].dst {
			return streams[i].dst < streams[j].dst
		}
		return streams[i].src < streams[j].src
	})
	for _, st := range streams {
		st.flow.Cancel()
		delete(nn.streams, st)
		nn.replStreams--
		if b := nn.blocks[st.bid]; b != nil {
			delete(b.pending, st.dst)
			nn.disk.Release(st.dst, b.Size)
		}
	}
	nn.replQueue = blockRing{}
	nn.replQueued = make(map[BlockID]struct{})

	// Empty the replica map in deterministic order so the placement hook
	// (the MapReduce scheduler index) sees a well-defined removal sequence.
	bids := make([]BlockID, 0, len(nn.blocks))
	for bid := range nn.blocks {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	for _, bid := range bids {
		b := nn.blocks[bid]
		ids := make([]netmodel.NodeID, 0, len(b.replicas))
		for id := range b.replicas {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			nn.dropReplica(b, id)
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
	for _, d := range nn.dnOrder {
		d.awaitingReport = false
		if d.Alive {
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
		if b.lost || b.writing {
			continue
		}
		nn.smTotal++
		if len(b.replicas) > 0 {
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
	d := nn.datanodes[id]
	if d == nil || !d.Alive {
		return
	}
	nn.live.Stamp(&d.live, nn.eng.Now())
	nn.clearAwaiting(d)
	bids := make([]BlockID, 0, len(d.blocks))
	for bid := range d.blocks {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	for _, bid := range bids {
		b := nn.blocks[bid]
		if b == nil {
			// The file was deleted while this node was out of touch; the
			// degraded DeleteFile path reclaims space by physical scan, so
			// a stale entry here holds no reservation.
			delete(d.blocks, bid)
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
		if b := nn.blocks[bid]; b != nil && len(b.replicas)+len(b.pending) < nn.targetReplication(b) {
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
	for _, d := range nn.dnOrder {
		if d.Alive && d.awaitingReport {
			nn.live.Stamp(&d.live, now)
			for bid := range d.blocks {
				deferred[bid] = struct{}{}
			}
		}
	}
	bids := make([]BlockID, 0, len(nn.blocks))
	for bid := range nn.blocks {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	for _, bid := range bids {
		b := nn.blocks[bid]
		// In-progress writes look unreplicated but are not: their pipeline
		// queues its own recovery when it finishes.
		if b.lost || b.writing {
			continue
		}
		n := len(b.replicas) + len(b.pending)
		if n == 0 {
			if _, held := deferred[bid]; !held {
				nn.loseBlock(b)
			}
			continue
		}
		if n < nn.targetReplication(b) {
			nn.queueReplication(bid)
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
	bids := make([]BlockID, 0, len(nn.blocks))
	for bid := range nn.blocks {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	for _, bid := range bids {
		fn(nn.blocks[bid])
	}
}
