package mapred

import (
	"fmt"
	"slices"

	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/hdfs"
	"hog/internal/liveness"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// TaskTracker is the JobTracker's view of a worker's task daemon.
type TaskTracker struct {
	Node        netmodel.NodeID
	MapSlots    int
	ReduceSlots int
	Alive       bool
	// awaitingReregister is set while a recovered JobTracker waits for this
	// tracker to re-register (see recovery.go).
	awaitingReregister bool
	// live is the tracker's entry in the JobTracker's heartbeat ledger.
	live liveness.Record
	// Speed scales compute rates on this worker (1.0 = nominal). Table
	// III's cluster mixes dual-core Opteron-275 and older single-core
	// Opteron-64 nodes; the latter run slot-for-slot slower.
	Speed float64

	runningMaps    int
	runningReduces int
	// attempts holds the live attempts in launch order, which is seq
	// order: a launch takes the next seq and appends here at once.
	attempts []*attempt
}

// removeAttempt deletes a from the tracker's live attempts.
func (t *TaskTracker) removeAttempt(a *attempt) {
	if i := slices.Index(t.attempts, a); i >= 0 {
		t.attempts = slices.Delete(t.attempts, i, i+1)
	}
}

// FreeMapSlots returns currently unoccupied map slots.
func (t *TaskTracker) FreeMapSlots() int { return t.MapSlots - t.runningMaps }

// FreeReduceSlots returns currently unoccupied reduce slots.
func (t *TaskTracker) FreeReduceSlots() int { return t.ReduceSlots - t.runningReduces }

// RunningMaps returns occupied map slots (audit accessor).
func (t *TaskTracker) RunningMaps() int { return t.runningMaps }

// RunningReduces returns occupied reduce slots (audit accessor).
func (t *TaskTracker) RunningReduces() int { return t.runningReduces }

// LiveAttempts counts the tracker's live attempts by kind (audit accessor;
// must equal the slot counters).
func (t *TaskTracker) LiveAttempts() (maps, reduces int) {
	for _, a := range t.attempts {
		if a.mt != nil {
			maps++
		} else {
			reduces++
		}
	}
	return maps, reduces
}

// JobTracker is the MapReduce master. Like the namenode it lives on HOG's
// stable central server, but even the central server can crash: Crash drops
// all in-flight task state and Restart reconstructs job state while trackers
// re-register (see recovery.go and docs/FAULTS.md).
type JobTracker struct {
	eng  *sim.Engine
	net  *netmodel.Network
	nn   *hdfs.Namenode
	disk *disk.Tracker
	cfg  Config

	// trackers is indexed by node ID, nil where none registered, so a walk
	// visits every tracker in ascending node order: the deterministic order
	// for recovery, the census and the policies.
	trackers   []*TaskTracker
	jobs       []*Job
	nextID     JobID
	active     int // running or pending jobs
	attemptSeq int64
	// down is true between Crash and Restart; heartbeats are lost then and
	// the senders back off and retry (see the master backoff in internal/core).
	down bool
	// alive counts trackers with Alive set.
	alive int

	// live is the heartbeat ledger over the alive trackers; checkDead scans
	// only its quiet set.
	live liveness.Ledger[*TaskTracker]

	// sched and spec are the active scheduling and speculation policies
	// (policy.go), resolved by name from the configuration.
	sched SchedulerPolicy
	spec  SpeculationPolicy
	// poolRunning counts live attempts per fair-share pool and siteLoads,
	// indexed by the namenode's awareness-site index, tracks per-site slot
	// occupancy for the site-load speculation policy; both are maintained
	// on launch/detach regardless of the active policy, so switching
	// policies never changes the bookkeeping the equivalence tests
	// fingerprint.
	poolRunning map[string]int
	siteLoads   []siteLoad

	// activeList holds unfinished jobs in submission order; assignment
	// iterates it instead of re-skipping finished jobs.
	activeList []*Job
	// mapReady and reduceReady are the earliest-assignable bound per kind,
	// valid while readyStale is false (readyAt in schedindex.go).
	mapReady, reduceReady sim.Time
	readyStale            bool
	// work counts assignment's work (AssignWork).
	work AssignWork
	// blockMaps maps an input block to the active map tasks reading it, for
	// the namenode placement-change hook.
	blockMaps map[hdfs.BlockID][]*mapTask
	// oracle, when set, replaces the indexed assignment path for one slot
	// of the kind, ungated by the earliest-assignable bound. Only the
	// package tests set it, to the retained linear scan the indexed
	// scheduler is checked against.
	oracle func(t *TaskTracker, kind TaskKind) bool

	// DiskUsable reports whether a node's scratch directory is readable and
	// writable. Zombie datanodes (§IV.D.1) heartbeat while their working
	// directory is gone; assignments to them fail fast. nil means always
	// usable.
	DiskUsable func(n netmodel.NodeID) bool
	// DataServable reports whether a node can serve stored bytes (map
	// output, HDFS replicas) — false once the physical node is gone even if
	// the JobTracker has not yet noticed. nil means alive trackers serve.
	DataServable func(n netmodel.NodeID) bool
	// OnDiskOverflow fires when a task fails to reserve scratch space; HOG
	// wires this to killing the worker ("worker nodes out of disk error").
	OnDiskOverflow func(n netmodel.NodeID)
	// OnJobComplete fires when a job succeeds or fails.
	OnJobComplete func(*Job)

	// Events receives JobSubmitted, JobFinished, TaskLaunched, and
	// TaskFinished events when observers are subscribed; nil is a valid,
	// inactive bus.
	Events *event.Bus

	checker *sim.Ticker
}

// NewJobTracker creates a JobTracker; Start begins dead-tracker scanning.
// The tracker subscribes to the namenode's placement-change hook (chaining
// onto any existing subscriber) so the scheduler index follows replica
// add/remove and node death.
func NewJobTracker(eng *sim.Engine, net *netmodel.Network, nn *hdfs.Namenode, dt *disk.Tracker, cfg Config) *JobTracker {
	jt := &JobTracker{
		eng:         eng,
		net:         net,
		nn:          nn,
		disk:        dt,
		cfg:         cfg.withDefaults(),
		blockMaps:   make(map[hdfs.BlockID][]*mapTask),
		poolRunning: make(map[string]int),
		readyStale:  true,
	}
	var err error
	if jt.sched, err = NewSchedulerPolicy(jt.cfg.SchedulerPolicy); err != nil {
		panic(err)
	}
	if jt.spec, err = NewSpeculationPolicy(jt.cfg.SpeculationPolicy); err != nil {
		panic(err)
	}
	if nn != nil {
		prev := nn.OnPlacementChange
		nn.OnPlacementChange = func(bid hdfs.BlockID, node netmodel.NodeID, added bool) {
			if prev != nil {
				prev(bid, node, added)
			}
			jt.placementChanged(bid, node, added)
		}
	}
	return jt
}

// Config returns the effective configuration.
func (jt *JobTracker) Config() Config { return jt.cfg }

// Start begins periodic dead-tracker detection.
func (jt *JobTracker) Start() {
	if jt.checker == nil {
		jt.checker = jt.eng.Every(jt.cfg.CheckInterval, jt.checkDead)
	}
}

// Stop halts periodic scanning.
func (jt *JobTracker) Stop() {
	if jt.checker != nil {
		jt.checker.Stop()
		jt.checker = nil
	}
}

// RegisterTracker adds a worker's task daemon with the given slot counts.
// The node's datanode must be registered first: the tracker's site is the
// namenode's awareness site for the node (paper §III.B.1: both masters
// treat the site as the failure domain).
func (jt *JobTracker) RegisterTracker(node netmodel.NodeID, mapSlots, reduceSlots int) *TaskTracker {
	if jt.Tracker(node) != nil {
		panic(fmt.Sprintf("mapred: tracker %d registered twice", node))
	}
	site := jt.nn.SiteOf(node)
	if site < 0 {
		panic(fmt.Sprintf("mapred: tracker %d registered before its datanode", node))
	}
	t := &TaskTracker{
		Node:        node,
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
		Alive:       true,
		Speed:       1.0,
	}
	jt.trackers = netmodel.Store(jt.trackers, node, t)
	jt.alive++
	jt.live.Add(&t.live, node, t, jt.eng.Now())
	jt.siteLoads = grow(jt.siteLoads, site)
	jt.siteLoads[site].slots += mapSlots + reduceSlots
	return t
}

// siteLoad returns the occupancy counters of t's site.
func (jt *JobTracker) siteLoad(t *TaskTracker) *siteLoad {
	return &jt.siteLoads[jt.nn.SiteOf(t.Node)]
}

// Tracker returns the tracker for node, or nil if node never registered.
func (jt *JobTracker) Tracker(node netmodel.NodeID) *TaskTracker {
	return netmodel.Lookup(jt.trackers, node)
}

// AliveTrackerCount returns the number of trackers the JobTracker believes
// alive.
func (jt *JobTracker) AliveTrackerCount() int { return jt.alive }

// AliveTrackers returns live trackers in node order.
func (jt *JobTracker) AliveTrackers() []*TaskTracker {
	var out []*TaskTracker
	for _, t := range jt.trackers {
		if t != nil && t.Alive {
			out = append(out, t)
		}
	}
	return out
}

// HeartbeatTracker records a tracker heartbeat and, as in Hadoop, triggers
// task assignment for its free slots. Callers hold the tracker, so the
// per-beat driver loop over ten thousand workers makes no map probe.
func (jt *JobTracker) HeartbeatTracker(t *TaskTracker) {
	if jt.down || t == nil || !t.Alive {
		return
	}
	jt.live.Beat(&t.live, jt.eng.Now())
	jt.assign(t)
}

// BeatTick records that every steady tracker heartbeat at the current
// instant; see hdfs.Namenode.BeatTick.
func (jt *JobTracker) BeatTick() {
	if !jt.down {
		jt.live.Tick(jt.eng.Now())
	}
}

// Settle moves a tracker that heartbeat at the current instant into the
// steady state; see hdfs.Namenode.Settle.
func (jt *JobTracker) Settle(t *TaskTracker) bool {
	return !t.Alive || !jt.down && jt.live.Settle(&t.live, jt.eng.Now())
}

// Quiesce takes a tracker out of the steady state; see
// hdfs.Namenode.Quiesce.
func (jt *JobTracker) Quiesce(t *TaskTracker) {
	jt.live.Quiesce(&t.live, t.Node, t)
}

// LastHeartbeat returns when the JobTracker last heard from the tracker.
func (jt *JobTracker) LastHeartbeat(t *TaskTracker) sim.Time { return jt.live.Last(&t.live) }

// LivenessWork returns the dead scans' work counters.
func (jt *JobTracker) LivenessWork() liveness.Work { return jt.live.Work() }

// AssignWork counts task assignment's work. The counts are bookkeeping
// only: no result reports them.
type AssignWork struct {
	// MapWalks and ReduceWalks count the slot offers the earliest-assignable
	// bound let through to the job walk.
	MapWalks, ReduceWalks int64
	// MapProbes counts the jobs map assignment probed for a pending map,
	// and PlacementLookups the per-node and per-site placement-index
	// lookups those probes made.
	MapProbes, PlacementLookups int64
	// ReduceProbes counts the jobs reduce assignment probed.
	ReduceProbes int64
	// SpecWalks counts the running-task walks speculation made past its
	// straggler gate, both kinds.
	SpecWalks int64
}

// AssignWork returns the assignment work counters.
func (jt *JobTracker) AssignWork() AssignWork { return jt.work }

// Submit enqueues a job built from its input file's blocks (one map task per
// block, §II.A) and returns it. Scheduling is FIFO in submission order.
func (jt *JobTracker) Submit(cfg JobConfig) *Job {
	cfg = cfg.withDefaults()
	fi := jt.nn.File(cfg.InputFile)
	if fi == nil {
		panic(fmt.Sprintf("mapred: input file %q does not exist", cfg.InputFile))
	}
	j := &Job{
		ID:            jt.nextID,
		Config:        cfg,
		State:         JobPending,
		SubmitTime:    jt.eng.Now(),
		pool:          cfg.pool(),
		skipSince:     -1,
		specMapMin:    specMinInvalid,
		specReduceMin: specMinInvalid,
	}
	jt.nextID++
	for i, bid := range fi.Blocks {
		b := jt.nn.Block(bid)
		j.maps = append(j.maps, &mapTask{job: j, idx: i, block: bid, inputBytes: b.Size})
	}
	for i := 0; i < cfg.Reduces; i++ {
		j.reduces = append(j.reduces, &reduceTask{job: j, idx: i})
	}
	jt.jobs = append(jt.jobs, j)
	jt.active++
	jt.registerJobIndex(j)
	if jt.Events.Active() {
		ev := event.At(event.JobSubmitted, jt.eng.Now())
		ev.Job = int(j.ID)
		ev.Detail = cfg.Name
		jt.Events.Emit(ev)
	}
	// Kick the schedulers: idle trackers assign on their next heartbeat,
	// which is at most one interval away, so nothing else is needed here.
	return j
}

// Jobs returns all submitted jobs in submission order.
func (jt *JobTracker) Jobs() []*Job { return jt.jobs }

// ActiveJobs returns the number of unfinished jobs.
func (jt *JobTracker) ActiveJobs() int { return jt.active }

func (jt *JobTracker) checkDead() {
	// markDead consumes RNG, so the ledger hands victims over in ascending
	// node order.
	for _, t := range jt.live.Expired(jt.eng.Now(), jt.cfg.TrackerTimeout) {
		jt.markDead(t)
	}
}

// NodeCrashed records that a worker's processes died silently (clean
// preemption kills the whole process tree, §IV.D.1). Live attempts stop
// making progress immediately, but the JobTracker keeps believing they run —
// as ghosts — until the tracker's heartbeat timeout expires or a speculative
// copy finishes first. This is precisely the latency the paper's 30-second
// timeout attacks.
func (jt *JobTracker) NodeCrashed(node netmodel.NodeID) {
	t := jt.Tracker(node)
	if t == nil {
		return
	}
	// cancel removes each attempt from the list, so walk a copy.
	for _, a := range slices.Clone(t.attempts) {
		if a.mt != nil {
			a.mt.ghosts = append(a.mt.ghosts, ghost{node: node, started: a.started})
		} else {
			a.rt.ghosts = append(a.rt.ghosts, ghost{node: node, started: a.started})
		}
		a.cancel("node crashed")
	}
}

// NodeLostWorkdir records that the site deleted the job's working directory
// while the tasktracker survived (the zombie scenario): running tasks die
// and report failure immediately, so the JobTracker learns right away.
func (jt *JobTracker) NodeLostWorkdir(node netmodel.NodeID) {
	t := jt.Tracker(node)
	if t == nil {
		return
	}
	// fail removes each attempt from the list, so walk a copy.
	for _, a := range slices.Clone(t.attempts) {
		a.fail("working directory removed", true)
	}
}

// markDead declares a tracker lost: running attempts (and ghost beliefs)
// fail and re-queue, and completed map output that lived on the node is
// re-executed for any job that still needs it (Hadoop re-runs maps whose
// output became unreachable).
func (jt *JobTracker) markDead(t *TaskTracker) {
	if !t.Alive {
		return
	}
	jt.live.Drop(&t.live)
	t.Alive = false
	jt.alive--
	jt.siteLoad(t).slots -= t.MapSlots + t.ReduceSlots
	// Fail running attempts; fail removes each from the list, so walk a
	// copy.
	for _, a := range slices.Clone(t.attempts) {
		a.fail("tracker lost", false)
	}
	// Clear ghost beliefs: the timeout has expired, so these tasks return
	// to pending and reschedule.
	for _, j := range jt.jobs {
		if j.State != JobRunning && j.State != JobPending {
			continue
		}
		for _, m := range j.maps {
			if before := len(m.ghosts); before > 0 {
				m.ghosts = dropGhosts(m.ghosts, t.Node)
				if len(m.ghosts) != before {
					jt.noteMapTask(m)
				}
			}
		}
		for _, r := range j.reduces {
			if before := len(r.ghosts); before > 0 {
				r.ghosts = dropGhosts(r.ghosts, t.Node)
				if len(r.ghosts) != before {
					jt.noteReduceTask(r)
				}
			}
		}
	}
	// Re-execute completed maps whose output is gone — but only those some
	// reduce still needs; output every reducer has already pulled is not
	// worth recomputing.
	for _, j := range jt.jobs {
		if j.State != JobRunning && j.State != JobPending {
			continue
		}
		for _, m := range j.maps {
			if m.done && m.outputNode == t.Node && jt.outputStillNeeded(j, m) {
				jt.reExecuteMap(j, m)
			}
		}
	}
}

// outputStillNeeded reports whether any unfinished reduce has yet to fetch
// the map's partition.
func (jt *JobTracker) outputStillNeeded(j *Job, m *mapTask) bool {
	if len(j.reduces) == 0 {
		return false
	}
	for _, r := range j.reduces {
		if r.done {
			continue
		}
		fetched := false
		for _, ra := range r.attempts {
			if ra.live() && ra.fetch[m.idx] == fetchDone {
				fetched = true
				break
			}
		}
		if !fetched {
			return true
		}
	}
	return false
}

// ForceTrackerDead marks a tracker dead immediately (failure injection).
func (jt *JobTracker) ForceTrackerDead(node netmodel.NodeID) {
	if t := jt.Tracker(node); t != nil {
		jt.markDead(t)
	}
}

func (jt *JobTracker) reExecuteMap(j *Job, m *mapTask) {
	if !m.done {
		return
	}
	m.done = false
	m.outputNode = -1
	j.completedMaps--
	j.counters.MapsReExecuted++
	// The completed duration leaves the straggler aggregate with the task.
	j.doneMapDur -= m.duration
	j.doneMapN--
	jt.noteMapTask(m)
	// Reduces waiting on this map simply keep waiting; they re-fetch when
	// the re-execution completes.
}

// assign hands tasks to a tracker's free slots under FIFO with locality
// preference and speculative execution, mirroring Hadoop 0.20's
// JobInProgress.obtainNewMapTask/obtainNewReduceTask logic.
func (jt *JobTracker) assign(t *TaskTracker) {
	// A zombie's assignments would fail immediately; Hadoop still assigns
	// (it cannot know), so we do too — the attempt fails fast and wastes
	// the slot, reproducing §IV.D.1. (No diskBroken probe here: the
	// tracker heartbeats on every beat of every worker, and the answer
	// would not change the assignment anyway.)
	for t.FreeMapSlots() > 0 {
		if !jt.assignOne(t, KindMap) {
			break
		}
	}
	for t.FreeReduceSlots() > 0 {
		if !jt.assignOne(t, KindReduce) {
			break
		}
	}
}

// assignOne hands one task of the kind to the tracker through the indexed
// scheduler, or through the test-only oracle when one is installed. Before
// the kind's earliest-assignable bound the walk would find nothing and
// write nothing, so it is skipped.
func (jt *JobTracker) assignOne(t *TaskTracker, kind TaskKind) bool {
	switch {
	case jt.oracle != nil:
		return jt.oracle(t, kind)
	case jt.readyAt(kind) > jt.eng.Now():
		return false
	case kind == KindMap:
		jt.work.MapWalks++
		return jt.assignOneMap(t)
	default:
		jt.work.ReduceWalks++
		return jt.assignOneReduce(t)
	}
}

func (jt *JobTracker) localityOf(t *TaskTracker, m *mapTask) LocalityLevel {
	b := jt.nn.Block(m.block)
	if b == nil {
		return Remote
	}
	site := jt.nn.SiteOf(t.Node)
	lvl := Remote
	for _, r := range b.Replicas() {
		if r == t.Node {
			return NodeLocal
		}
		if d := jt.nn.Datanode(r); d != nil && d.Alive && jt.nn.SiteOf(r) == site {
			lvl = SiteLocal
		}
	}
	return lvl
}

func (jt *JobTracker) diskBroken(n netmodel.NodeID) bool {
	return jt.DiskUsable != nil && !jt.DiskUsable(n)
}

func (jt *JobTracker) servable(n netmodel.NodeID) bool {
	if jt.DataServable != nil {
		return jt.DataServable(n)
	}
	t := jt.Tracker(n)
	return t != nil && t.Alive
}

// AllDone reports whether every submitted job has finished.
func (jt *JobTracker) AllDone() bool { return jt.active == 0 }

func (jt *JobTracker) finishJob(j *Job, state JobState, reason string) {
	if j.State == JobSucceeded || j.State == JobFailed {
		return
	}
	j.State = state
	j.failReason = reason
	j.FinishTime = jt.eng.Now()
	jt.active--
	// Abort any stragglers still running (speculative copies, or all tasks
	// on failure).
	for _, m := range j.maps {
		m.cancelRunning("job finished")
	}
	for _, r := range j.reduces {
		r.cancelRunning("job finished")
	}
	// Intermediate map output is deleted only when the entire job is done
	// (§IV.D.2) — release it now.
	for _, res := range j.outputReservations {
		jt.disk.Release(res.node, res.bytes)
	}
	j.outputReservations = nil
	jt.unregisterJobIndex(j)
	if jt.Events.Active() {
		ev := event.At(event.JobFinished, jt.eng.Now())
		ev.Job = int(j.ID)
		ev.Detail = state.String()
		jt.Events.Emit(ev)
	}
	if jt.OnJobComplete != nil {
		jt.OnJobComplete(j)
	}
}
