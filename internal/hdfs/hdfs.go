// Package hdfs reimplements the slice of the Hadoop Distributed File System
// that HOG modifies and depends on (paper §II.A, §III.B.1): a namenode block
// map with heartbeat-driven failure detection, replica placement policies
// (stock rack awareness generalised to HOG's site awareness), pipelined
// replicated writes, a re-replication monitor that restores the target
// replication factor after node loss, and a balancer.
//
// Time and data movement are simulated: block transfers are netmodel flows,
// local reads/writes are disk I/O, and heartbeats are driven by the daemons
// in internal/core. Protocol state machines (registration, dead-node
// detection, under-replication queues) are implemented faithfully enough
// that the paper's parameter changes — replication 3 → 10 and dead timeout
// 15 min → 30 s — are plain configuration here too.
package hdfs

import (
	"cmp"
	"fmt"
	"slices"

	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/liveness"
	"hog/internal/netmodel"
	"hog/internal/ordered"
	"hog/internal/sim"
	"hog/internal/topology"
)

// BlockID identifies an HDFS block.
type BlockID int64

// DefaultBlockSize is 64 MB (paper §II.A).
const DefaultBlockSize = 64e6

// Config holds namenode parameters.
type Config struct {
	// BlockSize in bytes; files are split into blocks of this size.
	BlockSize float64
	// Replication is the default replication factor for new files. HOG
	// raises this from Hadoop's 3 to 10 (§III.B.1).
	Replication int
	// DeadTimeout is how long without a heartbeat before a datanode is
	// declared dead. HOG: 30 s; stock Hadoop: 15 min (§III.B).
	DeadTimeout sim.Time
	// CheckInterval is how often the namenode scans for expired datanodes.
	CheckInterval sim.Time
	// MaxReplicationStreams bounds concurrent re-replication transfers so
	// recovery does not saturate the network (namenode throttling).
	MaxReplicationStreams int
	// SafeModeThreshold is the fraction of known blocks that must have at
	// least one reported replica before a restarted namenode leaves safe
	// mode (Hadoop's dfs.safemode.threshold.pct).
	SafeModeThreshold float64
	// SafeModeTimeout bounds how long a restarted namenode waits for block
	// reports before leaving safe mode anyway, treating still-unreported
	// blocks as suspect. Datanodes that never report are handled by the
	// ordinary dead-node path afterwards.
	SafeModeTimeout sim.Time
	// PlacementPolicy names the replica-placement policy (policy.go
	// registry); empty selects "grid", the paper's site-aware rule, and
	// "flat" is the same rule without site awareness.
	PlacementPolicy string
	// ReplicationOrder names the recovery-queue ordering; empty selects
	// "fifo", recovery in loss order.
	ReplicationOrder string
}

// DefaultConfig returns stock-Hadoop-like parameters.
func DefaultConfig() Config {
	return Config{
		BlockSize:             DefaultBlockSize,
		Replication:           3,
		DeadTimeout:           900 * sim.Second,
		CheckInterval:         5 * sim.Second,
		MaxReplicationStreams: 16,
		SafeModeThreshold:     0.999,
		SafeModeTimeout:       10 * sim.Minute,
	}
}

// HOGConfig returns the paper's HOG settings: replication 10, 30 s dead
// timeout, site-aware placement.
func HOGConfig() Config {
	c := DefaultConfig()
	c.Replication = 10
	c.DeadTimeout = 30 * sim.Second
	return c
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BlockSize <= 0 {
		c.BlockSize = d.BlockSize
	}
	if c.Replication <= 0 {
		c.Replication = d.Replication
	}
	if c.DeadTimeout <= 0 {
		c.DeadTimeout = d.DeadTimeout
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = d.CheckInterval
	}
	if c.MaxReplicationStreams <= 0 {
		c.MaxReplicationStreams = d.MaxReplicationStreams
	}
	if c.SafeModeThreshold <= 0 || c.SafeModeThreshold > 1 {
		c.SafeModeThreshold = d.SafeModeThreshold
	}
	if c.SafeModeTimeout <= 0 {
		c.SafeModeTimeout = d.SafeModeTimeout
	}
	return c
}

// DatanodeInfo is the namenode's view of one datanode.
type DatanodeInfo struct {
	ID       netmodel.NodeID
	Hostname string
	Site     string
	Alive    bool
	// gray marks a node under injected gray degradation (slow disk, flaky
	// heartbeats); placement refuses it while flagged.
	gray bool
	// awaitingReport is set when a restarted namenode is waiting for this
	// datanode's block report (see safemode.go).
	awaitingReport bool
	// physLost marks nodes whose hardware is genuinely gone (preemption,
	// kill, disk overflow): nothing is held or recoverable.
	physLost bool
	// live is the node's entry in the namenode's heartbeat ledger.
	live liveness.Record
	// blocks is the physical inventory: the blocks the node holds a replica
	// of. IDs are issued in ascending order, so writes mostly append, and
	// every walk (dead-marking, block reports, the balancer) visits them in
	// ID order.
	blocks ordered.Set[BlockID]
	// held preserves the physical inventory of a node the namenode declared
	// dead but whose hardware may still be running behind a network
	// partition, in ascending ID order: markDead captures blocks here
	// instead of discarding them, and RecoverDatanode hands them back when
	// the partition heals (corruption.go). Sizes ride along so space pinned
	// by a file deleted during the outage can be reclaimed at recovery.
	held []heldReplica
}

// heldReplica is one entry of a dead-marked datanode's preserved inventory.
type heldReplica struct {
	id   BlockID
	size float64
}

// holdsHeld reports whether bid is in the preserved inventory.
func (d *DatanodeInfo) holdsHeld(bid BlockID) bool {
	_, ok := slices.BinarySearchFunc(d.held, bid, func(h heldReplica, id BlockID) int { return cmp.Compare(h.id, id) })
	return ok
}

// Blocks returns the number of block replicas hosted on the datanode.
func (d *DatanodeInfo) Blocks() int { return d.blocks.Len() }

// HasBlock reports whether the datanode physically hosts a replica of the
// block, by binary search of its inventory.
func (d *DatanodeInfo) HasBlock(bid BlockID) bool { return d.blocks.Has(bid) }

// Inventory returns the IDs of the blocks the datanode physically hosts, in
// ascending order. The slice is the datanode's own, not a copy: it is
// read-only, and valid only until the datanode's next inventory change.
func (d *DatanodeInfo) Inventory() []BlockID { return d.blocks }

// Gray reports whether the node is flagged for gray degradation.
func (d *DatanodeInfo) Gray() bool { return d.gray }

// HeldBlocks returns the number of replicas preserved across a dead-marking
// for possible partition-heal recovery.
func (d *DatanodeInfo) HeldBlocks() int { return len(d.held) }

// PhysicallyLost reports whether the node's hardware is genuinely gone.
func (d *DatanodeInfo) PhysicallyLost() bool { return d.physLost }

// BlockInfo is the namenode's record of one block.
type BlockInfo struct {
	ID       BlockID
	File     string
	Size     float64
	replicas ordered.Set[netmodel.NodeID]
	pending  ordered.Set[netmodel.NodeID] // in-flight replication targets
	// corrupt records replicas whose on-disk bytes are bad (scenario-injected).
	// It is physical truth the namenode does not act on until a reader's
	// checksum verification catches it (corruption.go); markers survive
	// partition-induced replica drops and die only with the hardware, with
	// invalidation after detection, or with the file.
	corrupt ordered.Set[netmodel.NodeID]
	lost    bool
	// writing marks a block whose client write pipeline has not finished:
	// it legitimately has no replicas and no pending copies yet, so loss
	// declaration and safe-mode report accounting must leave it alone.
	writing bool
}

// Replicas returns the IDs of the block's replicas in ascending order. The
// slice is the block's own set, not a copy: it is read-only, and valid only
// until the block's next replica change (a write, recovery copy, balancer
// move, invalidation, dead-marking or deletion). Callers that may trigger
// one while walking it must copy it first.
func (b *BlockInfo) Replicas() []netmodel.NodeID { return b.replicas }

// NumReplicas returns the live replica count.
func (b *BlockInfo) NumReplicas() int { return b.replicas.Len() }

// NumPending returns the number of in-flight copies toward this block.
func (b *BlockInfo) NumPending() int { return b.pending.Len() }

// NumCorrupt returns the number of replicas marked physically corrupt.
func (b *BlockInfo) NumCorrupt() int { return b.corrupt.Len() }

// CorruptOn reports whether the replica on id is physically corrupt.
func (b *BlockInfo) CorruptOn(id netmodel.NodeID) bool { return b.corrupt.Has(id) }

// Lost reports whether all replicas (and pending copies) were lost.
func (b *BlockInfo) Lost() bool { return b.lost }

// WriteInProgress reports whether the block's client write pipeline is still
// running — the window in which zero replicas is normal, not an anomaly.
func (b *BlockInfo) WriteInProgress() bool { return b.writing }

// FileInfo records a file's blocks and its replication factor.
type FileInfo struct {
	Name        string
	Size        float64
	Replication int
	Blocks      []BlockID
}

// Stats counts namenode events.
type Stats struct {
	BlocksCreated        int
	BlocksLost           int
	DatanodesDead        int
	ReplicationsDone     int
	BytesReplicated      float64
	WriteReplicasSkipped int // pipeline targets that died or overflowed mid-write
	BalancerMoves        int
	// Corruption and recovery counters (corruption.go). CorruptAcked counts
	// reads that returned corrupt bytes to a caller as good data; checksum
	// verification makes that impossible, and the audit layer asserts it
	// stays zero.
	ReplicasCorrupted    int
	CorruptReadsDetected int
	ReplicasInvalidated  int
	CorruptAcked         int
	PipelineRecoveries   int
	NodesRecovered       int
	ReplicasRecovered    int
}

// Namenode is the HDFS master. It lives on the stable central server in HOG
// (paper §III.B), but even the central server can crash: Crash drops the
// namenode's soft state and Restart rebuilds it from datanode block reports
// behind a safe-mode gate (see safemode.go and docs/FAULTS.md).
type Namenode struct {
	eng  *sim.Engine
	net  *netmodel.Network
	disk *disk.Tracker
	cfg  Config

	// datanodes is indexed by NodeID, nil where none registered, so a walk
	// visits every datanode in ascending ID order — the deterministic order
	// the census, safe mode and the balancer need.
	datanodes []*DatanodeInfo
	// placeable is the IDs of the live datanodes in ascending order, the
	// list placement scans; Register and RecoverDatanode insert by binary
	// search. A death leaves its entry in place and the next
	// gatherCandidates scan drops it in passing (deleting eagerly would move
	// the tail of a ten-thousand-entry list per death), so between scans it
	// also holds the datanodes that died since the last one. The scan reads
	// no datanode record, only placeFlags: one byte per NodeID holding the
	// bits placement tests (see placeAlive). siteOf holds the dense index
	// of each datanode's awareness site.
	placeable  []int32
	placeFlags []uint8
	siteOf     []int32
	placeWork  PlaceWork
	// siteIx assigns each distinct awareness site a dense index; siteCands
	// and siteCounts are reusable scratch for the placement policy's
	// per-site greedy spread (see chooseTargets), candBuf for the candidate
	// scan.
	siteIx     map[string]int
	siteCands  [][]int32
	siteCounts []int
	siteHeads  []int
	candBuf    []int32
	// blocks is indexed by BlockID. IDs are issued densely from zero, so
	// the table only grows, its length is the next ID to issue, and a walk
	// visits blocks in ascending ID order; a deleted block leaves a nil
	// slot.
	blocks []*BlockInfo
	files  map[string]*FileInfo

	replQueue  blockRing
	replQueued map[BlockID]struct{}
	// streams is the in-flight re-replication transfers, ascending by
	// (block, destination, source): the order cancellation walks them in.
	streams []*replStream

	// place and replOrder are the active placement and recovery-order
	// policies (policy.go), resolved by name from the configuration.
	place     PlacementPolicy
	replOrder ReplicationOrder

	// corruptCount and grayCount summarise fault-injection state (corruption.go)
	// so the census can gate its fold-in on "any present" without scanning.
	corruptCount int
	grayCount    int

	// Master failure and recovery state (safemode.go). down is true between
	// Crash and Restart; safeMode is true from Restart until enough block
	// reports arrive. smTotal/smReported track the safe-mode exit threshold;
	// pendingWrites queues WriteFile calls issued while degraded.
	down          bool
	safeMode      bool
	safeModeSince sim.Time
	safeTimer     *sim.Timer
	smTotal       int
	smReported    int
	pendingWrites []func()
	// awaiting counts live datanodes that still owe a block report; while
	// non-zero, deletions must reclaim space by physical inventory because
	// the replica map understates who holds what.
	awaiting int

	// live is the heartbeat ledger over the alive datanodes; checkDead
	// scans only its quiet set.
	live liveness.Ledger[*DatanodeInfo]

	stats Stats

	// OnDatanodeDead is invoked after a datanode is declared dead and its
	// replicas are queued for recovery.
	OnDatanodeDead func(id netmodel.NodeID)
	// OnBlockLost is invoked when the last replica of a block disappears.
	OnBlockLost func(b *BlockInfo)
	// OnPlacementChange is invoked after a block replica appears on (added)
	// or disappears from (removed) a datanode — replication, writes,
	// balancer moves, node death, file deletion. The MapReduce scheduler
	// index subscribes to keep its per-node and per-site pending-task sets
	// in sync with block placement; NewJobTracker chains onto any
	// previously installed callback.
	OnPlacementChange func(bid BlockID, node netmodel.NodeID, added bool)

	// Events receives NodeDead, BlockLost, and ReplicationDone events when
	// observers are subscribed; nil is a valid, inactive bus.
	Events *event.Bus

	checker *sim.Ticker
}

// NewNamenode creates a namenode; Start must be called to begin dead-node
// scanning.
func NewNamenode(eng *sim.Engine, net *netmodel.Network, dt *disk.Tracker, cfg Config) *Namenode {
	nn := &Namenode{
		eng:        eng,
		net:        net,
		disk:       dt,
		cfg:        cfg.withDefaults(),
		siteIx:     make(map[string]int),
		files:      make(map[string]*FileInfo),
		replQueued: make(map[BlockID]struct{}),
	}
	// Placement asks for room for a block at a time: the tracker reports
	// when a node's free space crosses a block, and placeShort mirrors it.
	dt.WatchRoom(nn.cfg.BlockSize, nn.noteRoom)
	var err error
	if nn.place, err = NewPlacementPolicy(nn.cfg.PlacementPolicy); err != nil {
		panic(err)
	}
	if nn.replOrder, err = NewReplicationOrder(nn.cfg.ReplicationOrder); err != nil {
		panic(err)
	}
	return nn
}

// Config returns the namenode's effective configuration.
func (nn *Namenode) Config() Config { return nn.cfg }

// Stats returns a copy of the counters.
func (nn *Namenode) Stats() Stats { return nn.stats }

// Start begins periodic dead-datanode detection.
func (nn *Namenode) Start() {
	if nn.checker != nil {
		return
	}
	nn.checker = nn.eng.Every(nn.cfg.CheckInterval, nn.checkDead)
}

// Stop halts periodic scanning.
func (nn *Namenode) Stop() {
	if nn.checker != nil {
		nn.checker.Stop()
		nn.checker = nil
	}
}

// Register adds a datanode. The namenode derives the node's site by running
// the site-awareness mapping on its hostname, exactly once per new node
// (paper: the topology script "is executed each time a new node is
// discovered by the namenode").
func (nn *Namenode) Register(id netmodel.NodeID, hostname string) *DatanodeInfo {
	if nn.Datanode(id) != nil {
		panic(fmt.Sprintf("hdfs: datanode %d registered twice", id))
	}
	d := &DatanodeInfo{
		ID:       id,
		Hostname: hostname,
		Site:     topology.SiteFromHostname(hostname),
		Alive:    true,
	}
	nn.live.Add(&d.live, id, d, nn.eng.Now())
	ix, ok := nn.siteIx[d.Site]
	if !ok {
		ix = len(nn.siteIx)
		nn.siteIx[d.Site] = ix
		nn.siteCands = append(nn.siteCands, nil)
		nn.siteCounts = append(nn.siteCounts, 0)
		nn.siteHeads = append(nn.siteHeads, 0)
	}
	nn.datanodes = netmodel.Store(nn.datanodes, id, d)
	nn.siteOf = netmodel.Store(nn.siteOf, id, int32(ix))
	nn.placeFlags = netmodel.Store(nn.placeFlags, id, placeAlive|nn.shortBit(id))
	nn.placeable = insertByID(nn.placeable, id)
	return d
}

// Placement bits in Namenode.placeFlags, one byte per NodeID. A datanode
// whose byte is exactly placeAlive can take any block: the scan's common
// case is one comparison.
const (
	// placeAlive marks a registered datanode that is alive, written by
	// Register, markDead and RecoverDatanode.
	placeAlive uint8 = 1 << iota
	// placeGray marks a datanode flagged gray, which placement refuses,
	// written by SetNodeGray.
	placeGray
	// placeShort marks a datanode with less than a block of free space,
	// kept by the disk tracker's room reports (noteRoom).
	placeShort
	// placeHeld marks, for one gatherCandidates call only, the datanodes
	// holding a replica or in-flight copy of the block being recovered.
	placeHeld
)

// shortBit returns placeShort when datanode id lacks a block of free space.
func (nn *Namenode) shortBit(id netmodel.NodeID) uint8 {
	if nn.disk.Free(id) >= nn.cfg.BlockSize {
		return 0
	}
	return placeShort
}

// noteRoom is the disk tracker's room report: it mirrors whether a
// registered datanode has a block of free space into placeShort. Nodes
// not registered yet are skipped; Register reads their space itself.
func (nn *Namenode) noteRoom(id netmodel.NodeID, room bool) {
	if nn.Datanode(id) == nil {
		return
	}
	if room {
		nn.placeFlags[id] &^= placeShort
	} else {
		nn.placeFlags[id] |= placeShort
	}
}

// insertByID adds id to a list kept in ascending order unless it is
// already there. Nodes register with ascending IDs in practice, so the
// insertion is an append.
func insertByID(list []int32, id netmodel.NodeID) []int32 {
	i, found := slices.BinarySearch(list, int32(id))
	if found {
		return list
	}
	return slices.Insert(list, i, int32(id))
}

// HeartbeatDatanode records a datanode heartbeat. Callers hold the info, so
// the per-beat driver loop over ten thousand workers makes no map probe.
// Heartbeats to a crashed namenode are lost; the sender is expected to
// notice and retry (see the master backoff in internal/core).
func (nn *Namenode) HeartbeatDatanode(d *DatanodeInfo) {
	if !nn.down && d != nil && d.Alive {
		nn.live.Beat(&d.live, nn.eng.Now())
	}
}

// BeatTick records that every steady datanode heartbeat at the current
// instant (liveness.Ledger.Tick). Beats to a crashed namenode are lost.
func (nn *Namenode) BeatTick() {
	if !nn.down {
		nn.live.Tick(nn.eng.Now())
	}
}

// Settle moves a datanode that heartbeat at the current instant into the
// steady state (liveness.Ledger.Settle). Dead records need no settling; a
// crashed namenode settles nothing.
func (nn *Namenode) Settle(d *DatanodeInfo) bool {
	return !d.Alive || !nn.down && nn.live.Settle(&d.live, nn.eng.Now())
}

// Quiesce takes a datanode out of the steady state
// (liveness.Ledger.Quiesce).
func (nn *Namenode) Quiesce(d *DatanodeInfo) {
	nn.live.Quiesce(&d.live, d.ID, d)
}

// LastHeartbeat returns when the namenode last heard from the datanode.
func (nn *Namenode) LastHeartbeat(d *DatanodeInfo) sim.Time { return nn.live.Last(&d.live) }

// LivenessWork returns the dead scans' work counters.
func (nn *Namenode) LivenessWork() liveness.Work { return nn.live.Work() }

// Datanode returns the info for id, or nil if id never registered.
func (nn *Namenode) Datanode(id netmodel.NodeID) *DatanodeInfo {
	return netmodel.Lookup(nn.datanodes, id)
}

// AliveDatanodes returns live datanodes in ID order.
func (nn *Namenode) AliveDatanodes() []*DatanodeInfo {
	out := make([]*DatanodeInfo, 0, len(nn.placeable))
	for _, id := range nn.placeable {
		if d := nn.datanodes[id]; d.Alive {
			out = append(out, d)
		}
	}
	return out
}

// File returns the file record, or nil.
func (nn *Namenode) File(name string) *FileInfo { return nn.files[name] }

// Block returns the block record, or nil if id was never issued or its file
// was deleted.
func (nn *Namenode) Block(id BlockID) *BlockInfo {
	if uint64(id) < uint64(len(nn.blocks)) {
		return nn.blocks[id]
	}
	return nil
}

// UnderReplicated returns the current length of the recovery queue.
func (nn *Namenode) UnderReplicated() int { return len(nn.replQueued) }

func (nn *Namenode) checkDead() {
	// markDead queues replication work and draws from the engine RNG, so
	// the ledger hands victims over in ascending-ID order.
	for _, d := range nn.live.Expired(nn.eng.Now(), nn.cfg.DeadTimeout) {
		nn.markDead(d)
	}
}

// markDead declares a datanode dead: its replicas are dropped and every
// affected block is queued for re-replication (paper §II.A: "the Namenode
// will automatically replicate those blocks of this lost node onto some
// other datanodes").
func (nn *Namenode) markDead(d *DatanodeInfo) {
	if !d.Alive {
		return
	}
	nn.live.Drop(&d.live)
	d.Alive = false
	nn.placeFlags[d.ID] &^= placeAlive
	nn.clearAwaiting(d)
	nn.stats.DatanodesDead++
	if nn.Events.Active() {
		ev := event.At(event.NodeDead, nn.eng.Now())
		ev.Node = d.ID
		ev.Site = d.Site
		nn.Events.Emit(ev)
	}
	nn.cancelStreamsTouching(d.ID)
	// The hardware may still be running behind a network partition:
	// remember what it physically holds so a heal can hand the replicas back
	// (RecoverDatanode) instead of re-copying every block. Genuinely lost
	// nodes (preemption, kill, overflow) are flagged physLost by the owner of
	// the hardware before or shortly after this point.
	keep := !d.physLost
	var held []heldReplica
	if keep {
		held = make([]heldReplica, 0, d.blocks.Len())
	}
	// The inventory is ascending, so the recovery queue fills in block order.
	for _, bid := range d.blocks {
		b := nn.Block(bid)
		if keep {
			held = append(held, heldReplica{bid, b.Size})
		}
		nn.dropReplica(b, d.ID)
		if nn.down || nn.safeMode {
			// While degraded the replica map understates reality (unreported
			// datanodes may still hold copies), so neither loss declarations
			// nor recovery queueing are sound here; the safe-mode exit sweep
			// re-derives both from the rebuilt block map.
			continue
		}
		if b.replicas.Len() == 0 && b.pending.Len() == 0 {
			nn.loseBlock(b)
			continue
		}
		nn.queueReplication(bid)
	}
	d.held = held
	d.blocks = nil
	if nn.OnDatanodeDead != nil {
		nn.OnDatanodeDead(d.ID)
	}
	nn.pumpReplication()
}

// ForceDead immediately declares a datanode dead, bypassing the heartbeat
// timeout (used by tests).
func (nn *Namenode) ForceDead(id netmodel.NodeID) {
	if d := nn.Datanode(id); d != nil {
		nn.markDead(d)
	}
}

func (nn *Namenode) loseBlock(b *BlockInfo) {
	if b.lost {
		return
	}
	b.lost = true
	nn.stats.BlocksLost++
	if nn.Events.Active() {
		ev := event.At(event.BlockLost, nn.eng.Now())
		ev.Block = int64(b.ID)
		ev.Detail = b.File
		nn.Events.Emit(ev)
	}
	if nn.OnBlockLost != nil {
		nn.OnBlockLost(b)
	}
}
