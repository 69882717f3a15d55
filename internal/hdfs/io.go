package hdfs

import (
	"fmt"

	"hog/internal/netmodel"
)

// CreateFile allocates the namespace entry and block list for a file of the
// given size. repl <= 0 uses the configured default. Blocks have no replicas
// until written (WriteFile) or seeded (SeedFile).
func (nn *Namenode) CreateFile(name string, size float64, repl int) *FileInfo {
	if _, ok := nn.files[name]; ok {
		panic(fmt.Sprintf("hdfs: file %q already exists", name))
	}
	if repl <= 0 {
		repl = nn.cfg.Replication
	}
	f := &FileInfo{Name: name, Size: size, Replication: repl}
	for remaining := size; remaining > 0; remaining -= nn.cfg.BlockSize {
		bs := nn.cfg.BlockSize
		if remaining < bs {
			bs = remaining
		}
		b := &BlockInfo{ID: BlockID(len(nn.blocks)), File: name, Size: bs}
		nn.blocks = append(nn.blocks, b)
		nn.stats.BlocksCreated++
		f.Blocks = append(f.Blocks, b.ID)
	}
	if nn.safeMode {
		// Blocks born during safe mode count toward the exit threshold's
		// denominator (they have no replicas yet, so not the numerator).
		nn.smTotal += len(f.Blocks)
	}
	nn.files[name] = f
	return f
}

// SeedFile creates a file and instantly places its replicas, charging disk
// space but consuming no simulated time. The paper stages input data before
// starting the workload clock ("Then, we start to upload input data and
// execute the evaluation workload"); SeedFile models the already-uploaded
// state.
func (nn *Namenode) SeedFile(name string, size float64, repl int) *FileInfo {
	f := nn.CreateFile(name, size, repl)
	for _, bid := range f.Blocks {
		b := nn.Block(bid)
		targets := nn.chooseTargets(-1, b.Size, f.Replication)
		for _, tid := range targets {
			if nn.disk.Reserve(tid, b.Size) {
				nn.addReplica(b, tid)
			}
		}
		if b.replicas.Len() < f.Replication {
			nn.queueReplication(bid)
		}
	}
	nn.pumpReplication()
	return f
}

// DeleteFile removes a file, releasing the disk space of all its replicas.
func (nn *Namenode) DeleteFile(name string) {
	f, ok := nn.files[name]
	if !ok {
		return
	}
	for _, bid := range f.Blocks {
		b := nn.Block(bid)
		if nn.down || nn.safeMode || nn.awaiting > 0 {
			// While degraded, the replica map understates reality: copies can
			// sit on datanodes the restarted namenode has not heard from yet
			// (or, while down, on every former holder). Reclaim the space by
			// physical inventory instead, so deletion never leaks disk and a
			// later block report cannot resurrect a deleted block.
			for _, d := range nn.datanodes {
				if d != nil && d.blocks.Remove(bid) {
					nn.disk.Release(d.ID, b.Size)
				}
			}
			for b.replicas.Len() > 0 {
				nn.dropReplica(b, b.replicas[0])
			}
			if nn.safeMode && !b.lost && !b.writing {
				nn.smTotal-- // dropReplica above settled smReported
			}
			delete(nn.replQueued, bid)
			nn.forgetCorrupt(b)
			nn.blocks[bid] = nil
			continue
		}
		// Drain the replica set from the front, so the placement hook fires
		// in ascending node order (as markDead does for its victims).
		for b.replicas.Len() > 0 {
			id := b.replicas[0]
			if d := nn.Datanode(id); d != nil {
				d.blocks.Remove(bid)
			}
			nn.disk.Release(id, b.Size)
			nn.dropReplica(b, id)
		}
		delete(nn.replQueued, bid)
		nn.forgetCorrupt(b)
		nn.blocks[bid] = nil
	}
	delete(nn.files, name)
}

func (nn *Namenode) addReplica(b *BlockInfo, id netmodel.NodeID) {
	d := nn.Datanode(id)
	if d == nil || !d.Alive {
		return
	}
	if nn.down {
		// The master is gone: the copy lands physically on the datanode, but
		// no namenode soft state records it. A post-restart block report
		// reconciles the two views.
		d.blocks.Add(b.ID)
		return
	}
	added := b.replicas.Add(id)
	if nn.safeMode && !b.writing && added && b.replicas.Len() == 1 {
		if b.lost {
			// A block written off before the crash resurfaces: it joins the
			// threshold's denominator along with its report.
			nn.smTotal++
		}
		nn.smReported++
	}
	b.lost = false
	d.blocks.Add(b.ID)
	if added && nn.OnPlacementChange != nil {
		nn.OnPlacementChange(b.ID, id, true)
	}
}

// finishWrite marks a block's client write pipeline complete. A pipeline
// started before a crash can finish while the restarted namenode is still
// rebuilding; the block then joins the safe-mode accounting it was excluded
// from while writing.
func (nn *Namenode) finishWrite(b *BlockInfo) {
	if !b.writing {
		return
	}
	b.writing = false
	if nn.safeMode && !b.lost {
		nn.smTotal++
		if b.replicas.Len() > 0 {
			nn.smReported++
		}
	}
}

// dropReplica removes the block->node replica record and fires the placement
// hook. Callers own the datanode-side bookkeeping (d.blocks) and the disk
// accounting, which differ per removal path.
func (nn *Namenode) dropReplica(b *BlockInfo, id netmodel.NodeID) {
	if !b.replicas.Remove(id) {
		return
	}
	if nn.safeMode && !b.writing && b.replicas.Len() == 0 {
		nn.smReported--
	}
	if nn.OnPlacementChange != nil {
		nn.OnPlacementChange(b.ID, id, false)
	}
}

// WriteFile writes a file of the given size from the node writer: each block
// is replicated through a write pipeline (writer -> t1 -> t2 -> ...), blocks
// written sequentially as HDFS clients do. done receives the number of block
// replicas that could not be materialised (0 means a fully replicated file).
// Under-replicated blocks are queued for background recovery.
//
// While the namenode is crashed or in safe mode the write is queued and
// performed when normal service resumes — safe mode serves reads of reported
// blocks but refuses namespace mutations, like Hadoop's.
func (nn *Namenode) WriteFile(writer netmodel.NodeID, name string, size float64, repl int, done func(skipped int)) {
	if nn.down || nn.safeMode {
		nn.pendingWrites = append(nn.pendingWrites, func() {
			nn.writeFileNow(writer, name, size, repl, done)
		})
		return
	}
	nn.writeFileNow(writer, name, size, repl, done)
}

func (nn *Namenode) writeFileNow(writer netmodel.NodeID, name string, size float64, repl int, done func(skipped int)) {
	f := nn.CreateFile(name, size, repl)
	// Blocks await their turn in the sequential pipeline; until a block's
	// write finishes, its zero-replica state is in-progress, not stranded.
	for _, bid := range f.Blocks {
		nn.blocks[bid].writing = true
	}
	skipped := 0
	var writeBlock func(i int)
	writeBlock = func(i int) {
		if i >= len(f.Blocks) {
			if done != nil {
				done(skipped)
			}
			return
		}
		b := nn.Block(f.Blocks[i])
		if b == nil {
			// The file was deleted mid-write (e.g. a losing speculative
			// attempt was torn down); abandon the rest quietly.
			return
		}
		targets := nn.chooseTargets(writer, b.Size, f.Replication)
		skipped += f.Replication - len(targets)
		if len(targets) == 0 {
			nn.finishWrite(b)
			nn.queueReplication(b.ID)
			writeBlock(i + 1)
			return
		}
		// Reserve space up front; a target that cannot hold the block is
		// dropped from the pipeline, and a target the previous hop cannot
		// reach (a partition landed between placement and pipeline setup) is
		// dropped the same way — Hadoop's pipeline recovery: close the chain
		// around the bad node and continue with the survivors.
		var pipeline []netmodel.NodeID
		prevHop := writer
		for _, tid := range targets {
			if !nn.net.Reachable(prevHop, tid) {
				skipped++
				nn.stats.WriteReplicasSkipped++
				nn.recoverPipelineHop(b.ID, tid)
				continue
			}
			if nn.disk.Reserve(tid, b.Size) {
				pipeline = append(pipeline, tid)
				prevHop = tid
			} else {
				skipped++
				nn.stats.WriteReplicasSkipped++
			}
		}
		if len(pipeline) == 0 {
			nn.finishWrite(b)
			nn.queueReplication(b.ID)
			writeBlock(i + 1)
			return
		}
		// The pipeline streams: writer->t1 overlaps t1->t2, so the block is
		// durable when the slowest hop finishes. Hops run as concurrent
		// flows; completion is the last hop's completion.
		remainingHops := 0
		hopDone := func(tid netmodel.NodeID) func() {
			return func() {
				if nn.Block(b.ID) == nil {
					// File deleted mid-write; give the space back.
					nn.disk.Release(tid, b.Size)
					return
				}
				d := nn.Datanode(tid)
				switch {
				case d != nil && d.Alive && !d.gray && nn.net.MasterReachable(tid):
					nn.addReplica(b, tid)
				case d != nil && d.Alive:
					// The hop went gray or was partitioned mid-write: its ack
					// cannot reach (or cannot be trusted by) the namenode, so
					// the replica is not committed — pipeline recovery drops
					// the hop and the block re-replicates in the background.
					nn.disk.Release(tid, b.Size)
					skipped++
					nn.stats.WriteReplicasSkipped++
					nn.recoverPipelineHop(b.ID, tid)
				default:
					nn.disk.Release(tid, b.Size)
					skipped++
					nn.stats.WriteReplicasSkipped++
				}
				remainingHops--
				if remainingHops == 0 {
					nn.finishWrite(b)
					if b.replicas.Len() < f.Replication {
						nn.queueReplication(b.ID)
						nn.pumpReplication()
					}
					writeBlock(i + 1)
				}
			}
		}
		// Batch the hop starts: only the writer-local disk hop joins the
		// network synchronously (network hops join after their propagation
		// latency, in their own events), so today this coalesces that one
		// join with the start bookkeeping — and keeps the pipeline start at
		// one rebalance if zero-latency hops are ever added.
		prev := writer
		nn.net.Batch(func() {
			for _, tid := range pipeline {
				remainingHops++
				if prev == tid {
					nn.net.StartDiskIO(tid, b.Size, hopDone(tid))
				} else {
					nn.net.StartFlow(prev, tid, b.Size, hopDone(tid))
				}
				prev = tid
			}
		})
	}
	writeBlock(0)
}

// ReadSource picks the best replica of a block for a reader: the reader's
// own disk, then a replica in the reader's site, then any replica (the map
// scheduler's locality levels reuse this order). ok is false when the block
// has no live replicas.
func (nn *Namenode) ReadSource(reader netmodel.NodeID, bid BlockID) (src netmodel.NodeID, local bool, ok bool) {
	b := nn.Block(bid)
	if b == nil || b.replicas.Len() == 0 {
		return 0, false, false
	}
	if b.replicas.Has(reader) {
		return reader, true, true
	}
	readerSite := ""
	if d := nn.Datanode(reader); d != nil {
		readerSite = d.Site
	}
	var sameSite, any []netmodel.NodeID
	for _, id := range b.replicas {
		d := nn.Datanode(id)
		if d == nil || !d.Alive {
			continue
		}
		if !nn.net.Reachable(id, reader) {
			// A partition severs the replica from this reader; other readers
			// (same side of the cut) may still use it.
			continue
		}
		any = append(any, id)
		if readerSite != "" && d.Site == readerSite {
			sameSite = append(sameSite, id)
		}
	}
	// The candidates are in ascending ID order, so the seeded pick is
	// deterministic.
	pick := func(ids []netmodel.NodeID) netmodel.NodeID {
		return ids[nn.eng.Rand().Intn(len(ids))]
	}
	if len(sameSite) > 0 {
		return pick(sameSite), false, true
	}
	if len(any) > 0 {
		return pick(any), false, true
	}
	return 0, false, false
}

// ReadBlock transfers a block to the reader with checksum verification,
// replica failover, and capped exponential backoff; see corruption.go.
