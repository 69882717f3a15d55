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
	"fmt"
	"sort"

	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/liveness"
	"hog/internal/netmodel"
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
	live   liveness.Record
	blocks map[BlockID]struct{}
	// held preserves the physical inventory (block -> size) of a node the
	// namenode declared dead but whose hardware may still be running behind a
	// network partition: markDead captures blocks here instead of discarding
	// them, and RecoverDatanode hands them back when the partition heals
	// (corruption.go). Sizes ride along so space pinned by a file deleted
	// during the outage can be reclaimed at recovery.
	held map[BlockID]float64
	// siteIx is the dense index of Site in the namenode's site registry;
	// the placement hot path counts replicas per site through it instead of
	// hashing site name strings.
	siteIx int
	// placeMark is the namenode placeEpoch of the last placement call that
	// excluded this datanode.
	placeMark uint64
}

// hold records a replica physically on the datanode. The inventory map is
// allocated with the first replica: at grid scale most nodes never get one.
func (d *DatanodeInfo) hold(bid BlockID) {
	if d.blocks == nil {
		d.blocks = make(map[BlockID]struct{})
	}
	d.blocks[bid] = struct{}{}
}

// Blocks returns the number of block replicas hosted on the datanode.
func (d *DatanodeInfo) Blocks() int { return len(d.blocks) }

// HasBlock reports whether the datanode physically hosts a replica of the
// block (audit helpers; the namenode's own paths use the map directly).
func (d *DatanodeInfo) HasBlock(bid BlockID) bool {
	_, ok := d.blocks[bid]
	return ok
}

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
	replicas map[netmodel.NodeID]struct{}
	pending  map[netmodel.NodeID]struct{} // in-flight replication targets
	// corrupt records replicas whose on-disk bytes are bad (scenario-injected).
	// It is physical truth the namenode does not act on until a reader's
	// checksum verification catches it (corruption.go); markers survive
	// partition-induced replica drops and die only with the hardware, with
	// invalidation after detection, or with the file.
	corrupt map[netmodel.NodeID]struct{}
	lost    bool
	// writing marks a block whose client write pipeline has not finished:
	// it legitimately has no replicas and no pending copies yet, so loss
	// declaration and safe-mode report accounting must leave it alone.
	writing bool
}

// Replicas returns the IDs of live replicas in unspecified order.
func (b *BlockInfo) Replicas() []netmodel.NodeID {
	out := make([]netmodel.NodeID, 0, len(b.replicas))
	for id := range b.replicas {
		out = append(out, id)
	}
	return out
}

// NumReplicas returns the live replica count.
func (b *BlockInfo) NumReplicas() int { return len(b.replicas) }

// NumPending returns the number of in-flight copies toward this block.
func (b *BlockInfo) NumPending() int { return len(b.pending) }

// NumCorrupt returns the number of replicas marked physically corrupt.
func (b *BlockInfo) NumCorrupt() int { return len(b.corrupt) }

// CorruptOn reports whether the replica on id is physically corrupt.
func (b *BlockInfo) CorruptOn(id netmodel.NodeID) bool {
	_, ok := b.corrupt[id]
	return ok
}

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

	datanodes map[netmodel.NodeID]*DatanodeInfo
	// dnOrder holds every registered datanode in ascending ID order — the
	// deterministic base order the placement policy and the census need,
	// maintained incrementally instead of sorted per call.
	dnOrder []*DatanodeInfo
	// siteIx assigns each distinct awareness site a dense index; siteCands
	// and siteCounts are reusable scratch for the placement policy's
	// per-site greedy spread (see chooseTargets).
	siteIx     map[string]int
	siteCands  [][]int32
	siteCounts []int
	siteHeads  []int
	candBuf    []*DatanodeInfo
	// placeEpoch numbers gatherCandidates calls; a datanode whose
	// placeMark equals it is excluded from the current call.
	placeEpoch uint64
	blocks     map[BlockID]*BlockInfo
	files      map[string]*FileInfo
	nextBlock  BlockID

	replQueue   blockRing
	replQueued  map[BlockID]struct{}
	replStreams int
	streams     map[*replStream]struct{}

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
		datanodes:  make(map[netmodel.NodeID]*DatanodeInfo),
		siteIx:     make(map[string]int),
		blocks:     make(map[BlockID]*BlockInfo),
		files:      make(map[string]*FileInfo),
		replQueued: make(map[BlockID]struct{}),
		streams:    make(map[*replStream]struct{}),
	}
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
	if _, ok := nn.datanodes[id]; ok {
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
	d.siteIx = ix
	nn.datanodes[id] = d
	// Nodes register with ascending IDs in practice; the insertion walk is
	// a no-op then, and keeps dnOrder correct if they ever do not.
	nn.dnOrder = append(nn.dnOrder, d)
	for i := len(nn.dnOrder) - 1; i > 0 && nn.dnOrder[i-1].ID > id; i-- {
		nn.dnOrder[i], nn.dnOrder[i-1] = nn.dnOrder[i-1], nn.dnOrder[i]
	}
	return d
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

// Datanode returns the info for id, or nil.
func (nn *Namenode) Datanode(id netmodel.NodeID) *DatanodeInfo { return nn.datanodes[id] }

// AliveDatanodes returns live datanodes in ID order.
func (nn *Namenode) AliveDatanodes() []*DatanodeInfo {
	var out []*DatanodeInfo
	for _, d := range nn.dnOrder {
		if d.Alive {
			out = append(out, d)
		}
	}
	return out
}

// File returns the file record, or nil.
func (nn *Namenode) File(name string) *FileInfo { return nn.files[name] }

// Block returns the block record, or nil.
func (nn *Namenode) Block(id BlockID) *BlockInfo { return nn.blocks[id] }

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
	nn.clearAwaiting(d)
	nn.stats.DatanodesDead++
	if nn.Events.Active() {
		ev := event.At(event.NodeDead, nn.eng.Now())
		ev.Node = d.ID
		ev.Site = d.Site
		nn.Events.Emit(ev)
	}
	nn.cancelStreamsTouching(d.ID)
	// Sort for determinism: the recovery queue order must not depend on map
	// iteration.
	bids := make([]BlockID, 0, len(d.blocks))
	for bid := range d.blocks {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	for _, bid := range bids {
		b := nn.blocks[bid]
		nn.dropReplica(b, d.ID)
		if nn.down || nn.safeMode {
			// While degraded the replica map understates reality (unreported
			// datanodes may still hold copies), so neither loss declarations
			// nor recovery queueing are sound here; the safe-mode exit sweep
			// re-derives both from the rebuilt block map.
			continue
		}
		if len(b.replicas) == 0 && len(b.pending) == 0 {
			nn.loseBlock(b)
			continue
		}
		nn.queueReplication(bid)
	}
	if d.physLost {
		d.held = nil
	} else {
		// The hardware may still be running behind a network partition:
		// remember what it physically holds so a heal can hand the replicas
		// back (RecoverDatanode) instead of re-copying every block. Genuinely
		// lost nodes (preemption, kill, overflow) are flagged physLost by the
		// owner of the hardware before or shortly after this point.
		d.held = make(map[BlockID]float64, len(d.blocks))
		for bid := range d.blocks {
			if b := nn.blocks[bid]; b != nil {
				d.held[bid] = b.Size
			}
		}
	}
	d.blocks = nil
	if nn.OnDatanodeDead != nil {
		nn.OnDatanodeDead(d.ID)
	}
	nn.pumpReplication()
}

// ForceDead immediately declares a datanode dead, bypassing the heartbeat
// timeout (used by tests).
func (nn *Namenode) ForceDead(id netmodel.NodeID) {
	if d, ok := nn.datanodes[id]; ok {
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
