// Package audit checks cross-layer invariants of a running simulation. It
// observes the event bus and, on demand, sweeps the masters' state; any
// breach becomes a recorded Violation instead of a silent divergence. The
// auditor is strictly read-only — it never mutates the simulation and draws
// no randomness, so attaching it cannot change a run's event sequence
// (the determinism contract in internal/sim).
//
// The invariants it enforces (docs/FAULTS.md):
//
//   - simulated time is monotone across the event stream;
//   - master crash/recovery and safe-mode entry/exit events pair up;
//   - a block the namenode counts as replicated is physically present on
//     every alive datanode it names;
//   - outside degraded operation, no non-lost block has zero replicas,
//     zero pending copies, and no physical copy anywhere alive;
//   - per job, pending+running+done+failed tasks is conserved at the task
//     count, and the done class agrees with the completion counters;
//   - per tracker, slot usage stays within [0, slots] and matches the live
//     attempt set;
//   - no job reports success with incomplete maps or reduces;
//   - a speculative launch (a task's second or later running copy) is
//     justified by the active speculation policy's straggler criterion at
//     launch time, or by the eager-redundancy budget;
//   - under the fair scheduler, no pool's running tasks exceed its
//     configured cap, and the incremental per-pool counters agree with a
//     recount from tracker state;
//   - partition-started/healed events pair per site, and gray
//     degraded/restored events pair per node;
//   - corrupt data is never acknowledged to a reader as good (the
//     CorruptAcked counter stays zero — checksum verification is total);
//   - a recovery copy never lands on a node flagged gray, and a corruption
//     marker never survives the replica's invalidation;
//   - a node-recovered event names a datanode the namenode again counts
//     alive.
package audit

import (
	"fmt"

	"hog/internal/event"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
	"hog/internal/ordered"
	"hog/internal/sim"
)

// Violation is one observed invariant breach.
type Violation struct {
	Time   sim.Time
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.Time, v.Rule, v.Detail)
}

// maxRecorded caps stored violations; past the cap only the count grows, so
// a systemically broken run cannot exhaust memory describing itself.
const maxRecorded = 100

// Auditor implements event.Observer. Subscribe it to a bus (or pass it to
// core.NewSystem) for the per-event checks, Attach the masters for the
// state-sweep checks, and call Sweep whenever a consistency snapshot is
// wanted — between waves, on a timer, or once at the end of a run.
type Auditor struct {
	nn *hdfs.Namenode
	jt *mapred.JobTracker

	lastTime sim.Time
	nnDown   bool
	jtDown   bool
	safeMode bool

	// Beyond-crash-stop pairing state: active partition installs per site
	// (site- and node-level cuts on one site may overlap; a heal clears
	// them all) and nodes currently under gray degradation.
	parted map[string]int
	gray   map[netmodel.NodeID]bool

	// invPos is sweepHDFS's position in each datanode's inventory, by
	// NodeID (see heldAt).
	invPos []int

	count      int
	violations []Violation
}

// New returns an Auditor with no masters attached; event-stream checks that
// need master state are skipped until Attach.
func New() *Auditor { return &Auditor{} }

// Attach points the auditor at the masters whose state Sweep examines.
// Either may be nil; the corresponding checks are skipped.
func (a *Auditor) Attach(nn *hdfs.Namenode, jt *mapred.JobTracker) {
	a.nn = nn
	a.jt = jt
}

// Violations returns the recorded breaches (at most maxRecorded; Count is
// the true total).
func (a *Auditor) Violations() []Violation { return a.violations }

// Count returns the total number of violations observed, recorded or not.
func (a *Auditor) Count() int { return a.count }

func (a *Auditor) violate(t sim.Time, rule, format string, args ...any) {
	a.count++
	if len(a.violations) < maxRecorded {
		a.violations = append(a.violations, Violation{Time: t, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
}

// HandleEvent implements event.Observer: stream-level invariants checked as
// facts arrive.
func (a *Auditor) HandleEvent(ev event.Event) {
	if ev.Time < a.lastTime {
		a.violate(ev.Time, "monotone-time", "event %s at %v after %v", ev.Type, ev.Time, a.lastTime)
	}
	a.lastTime = ev.Time

	switch ev.Type {
	case event.MasterCrashed:
		switch ev.Detail {
		case "namenode":
			if a.nnDown {
				a.violate(ev.Time, "master-pairing", "namenode crashed twice without recovery")
			}
			a.nnDown = true
		case "jobtracker":
			if a.jtDown {
				a.violate(ev.Time, "master-pairing", "jobtracker crashed twice without recovery")
			}
			a.jtDown = true
		default:
			a.violate(ev.Time, "master-pairing", "master-crashed with unknown detail %q", ev.Detail)
		}
	case event.MasterRecovered:
		switch ev.Detail {
		case "namenode":
			if !a.nnDown {
				a.violate(ev.Time, "master-pairing", "namenode recovered without a crash")
			}
			a.nnDown = false
		case "jobtracker":
			if !a.jtDown {
				a.violate(ev.Time, "master-pairing", "jobtracker recovered without a crash")
			}
			a.jtDown = false
		default:
			a.violate(ev.Time, "master-pairing", "master-recovered with unknown detail %q", ev.Detail)
		}
	case event.SafeModeEntered:
		if a.safeMode {
			a.violate(ev.Time, "safe-mode-pairing", "safe mode entered twice without exit")
		}
		a.safeMode = true
	case event.SafeModeExited:
		if !a.safeMode {
			a.violate(ev.Time, "safe-mode-pairing", "safe mode exited without entry")
		}
		a.safeMode = false
	case event.NodeDead:
		if a.nn != nil {
			if d := a.nn.Datanode(ev.Node); d != nil && d.Alive {
				a.violate(ev.Time, "node-dead", "node %d declared dead but datanode still alive", ev.Node)
			}
		}
	case event.BlockLost:
		if a.nn != nil {
			if b := a.nn.Block(hdfs.BlockID(ev.Block)); b != nil && !b.Lost() {
				a.violate(ev.Time, "block-lost", "block %d reported lost but not marked lost", ev.Block)
			}
		}
	case event.TrackerReregistered:
		if a.jt != nil {
			if t := a.jt.Tracker(ev.Node); t == nil || !t.Alive {
				a.violate(ev.Time, "tracker-reregister", "node %d re-registered but tracker not alive", ev.Node)
			}
		}
	case event.TaskLaunched:
		if a.jt != nil {
			kind := mapred.KindMap
			if ev.Kind == event.ReduceTask {
				kind = mapred.KindReduce
			}
			if spec, ok := a.jt.SpeculativeLaunchCheck(ev.Job, ev.Task, kind, ev.Node); spec && !ok {
				a.violate(ev.Time, "speculation-policy",
					"job %d %s task %d launched a speculative copy on node %d the %q policy does not justify",
					ev.Job, kind, ev.Task, ev.Node, a.jt.SpeculationPolicyName())
			}
		}
	case event.PartitionStarted:
		if a.parted == nil {
			a.parted = make(map[string]int)
		}
		a.parted[ev.Site]++
	case event.PartitionHealed:
		if a.parted[ev.Site] == 0 {
			a.violate(ev.Time, "partition-pairing", "site %q healed without an installed partition", ev.Site)
		}
		delete(a.parted, ev.Site)
	case event.NodeDegraded:
		if a.gray == nil {
			a.gray = make(map[netmodel.NodeID]bool)
		}
		if a.gray[ev.Node] {
			a.violate(ev.Time, "degrade-pairing", "node %d degraded twice without restore", ev.Node)
		}
		a.gray[ev.Node] = true
	case event.NodeRestored:
		if !a.gray[ev.Node] {
			a.violate(ev.Time, "degrade-pairing", "node %d restored without degradation", ev.Node)
		}
		delete(a.gray, ev.Node)
	case event.NodeRecovered:
		if a.nn != nil {
			if d := a.nn.Datanode(ev.Node); d == nil || !d.Alive {
				a.violate(ev.Time, "node-recovered", "node %d recovered but datanode not alive", ev.Node)
			}
		}
	case event.ReplicationDone:
		// Placement must exclude gray nodes; a recovery copy landing on one
		// means the placement policy saw (or ignored) the flag.
		if a.nn != nil {
			if d := a.nn.Datanode(ev.Node); d != nil && d.Gray() {
				a.violate(ev.Time, "gray-placement", "recovery copy of block %d landed on gray node %d", ev.Block, ev.Node)
			}
		}
	case event.ReplicaInvalidated:
		if a.nn != nil {
			if b := a.nn.Block(hdfs.BlockID(ev.Block)); b != nil && b.CorruptOn(ev.Node) {
				a.violate(ev.Time, "corrupt-invalidation", "block %d corruption marker on node %d survived invalidation", ev.Block, ev.Node)
			}
		}
	case event.JobFinished:
		if a.jt != nil && ev.Detail == "succeeded" {
			for _, j := range a.jt.Jobs() {
				if int(j.ID) != ev.Job {
					continue
				}
				if j.CompletedMaps() != j.NumMaps() || j.CompletedReduces() != j.NumReduces() {
					a.violate(ev.Time, "job-complete", "job %d succeeded with %d/%d maps, %d/%d reduces",
						ev.Job, j.CompletedMaps(), j.NumMaps(), j.CompletedReduces(), j.NumReduces())
				}
			}
		}
	}
}

// Sweep examines the attached masters' state at instant now. It is safe to
// call at any point, including mid-outage: checks that only hold during
// normal operation are suppressed while the relevant master is degraded.
func (a *Auditor) Sweep(now sim.Time) {
	if now < a.lastTime {
		a.violate(now, "monotone-time", "sweep at %v after last event %v", now, a.lastTime)
	}
	if a.nn != nil {
		a.sweepHDFS(now)
	}
	if a.jt != nil {
		a.sweepMapRed(now)
	}
}

func (a *Auditor) sweepHDFS(now sim.Time) {
	nn := a.nn
	degraded := nn.Degraded()
	// Checksum verification is total: a reader is never handed corrupt
	// bytes as good data, under any fault mix.
	if acked := nn.Stats().CorruptAcked; acked != 0 {
		a.violate(now, "corrupt-acked", "%d corrupt reads acknowledged as good data", acked)
	}
	clear(a.invPos)
	nn.ForEachBlock(func(b *hdfs.BlockInfo) {
		for _, id := range b.Replicas() {
			d := nn.Datanode(id)
			switch {
			case d == nil || !d.Alive:
				a.violate(now, "replica-liveness", "block %d replica on dead node %d", b.ID, id)
			case !a.heldAt(d, b.ID):
				a.violate(now, "replica-presence", "block %d counted on node %d but not physically held", b.ID, id)
			}
		}
		if !degraded && !b.Lost() && !b.WriteInProgress() && b.NumReplicas() == 0 && b.NumPending() == 0 {
			// A restarted namenode may briefly track zero replicas for a
			// block that survives physically on a node whose block report
			// is still owed; only a block with no physical copy anywhere
			// alive is an inconsistency.
			if !a.physicallyHeld(b.ID) {
				a.violate(now, "replicated-nowhere", "block %d neither lost nor held by any alive datanode", b.ID)
			}
		}
	})
}

// heldAt reports whether d's inventory holds bid. The sweep visits blocks
// in ascending ID order and inventories are ascending, so d's position in
// its inventory only moves forward: a sweep reads each inventory once
// instead of searching it once per replica.
func (a *Auditor) heldAt(d *hdfs.DatanodeInfo, bid hdfs.BlockID) bool {
	if int(d.ID) >= len(a.invPos) {
		a.invPos = append(a.invPos, make([]int, int(d.ID)+1-len(a.invPos))...)
	}
	inv, p := d.Inventory(), a.invPos[d.ID]
	for p < len(inv) && inv[p] < bid {
		p++
	}
	a.invPos[d.ID] = p
	return p < len(inv) && inv[p] == bid
}

// physicallyHeld reports whether any alive datanode hosts a copy of bid.
func (a *Auditor) physicallyHeld(bid hdfs.BlockID) bool {
	for _, d := range a.nn.AliveDatanodes() {
		if d.HasBlock(bid) {
			return true
		}
	}
	return false
}

func (a *Auditor) sweepMapRed(now sim.Time) {
	jt := a.jt
	jt.ForEachTracker(func(t *mapred.TaskTracker) {
		rm, rr := t.RunningMaps(), t.RunningReduces()
		if rm < 0 || rm > t.MapSlots || rr < 0 || rr > t.ReduceSlots {
			a.violate(now, "slot-accounting", "node %d slots out of range: %d/%d maps, %d/%d reduces",
				t.Node, rm, t.MapSlots, rr, t.ReduceSlots)
		}
		am, ar := t.LiveAttempts()
		if am != rm || ar != rr {
			a.violate(now, "slot-accounting", "node %d slot counters (%d,%d) disagree with live attempts (%d,%d)",
				t.Node, rm, rr, am, ar)
		}
	})
	for _, j := range jt.Jobs() {
		if j.State != mapred.JobPending && j.State != mapred.JobRunning {
			continue
		}
		mp, mr, md, mf := jt.MapStates(j)
		if mp+mr+md+mf != j.NumMaps() {
			a.violate(now, "task-conservation", "job %d maps %d+%d+%d+%d != %d",
				j.ID, mp, mr, md, mf, j.NumMaps())
		}
		if md != j.CompletedMaps() {
			a.violate(now, "task-conservation", "job %d done maps %d != completed counter %d",
				j.ID, md, j.CompletedMaps())
		}
		rp, rr, rd, rf := jt.ReduceStates(j)
		if rp+rr+rd+rf != j.NumReduces() {
			a.violate(now, "task-conservation", "job %d reduces %d+%d+%d+%d != %d",
				j.ID, rp, rr, rd, rf, j.NumReduces())
		}
		if rd != j.CompletedReduces() {
			a.violate(now, "task-conservation", "job %d done reduces %d != completed counter %d",
				j.ID, rd, j.CompletedReduces())
		}
	}
	a.sweepPools(now)
}

// sweepPools cross-checks the fair scheduler's substrate: the incremental
// per-pool running counters against an independent recount from the
// trackers' attempt sets, and — when the fair policy is active — each
// pool's running tasks against its configured cap. The counters are
// maintained unconditionally (they are cheap), so the conservation check
// runs under every scheduler policy.
func (a *Auditor) sweepPools(now sim.Time) {
	jt := a.jt
	recount := jt.RunningByPool()
	fair := jt.SchedulerPolicyName() == mapred.SchedulerFair
	for _, pool := range ordered.Keys(recount) {
		n := recount[pool]
		if got := jt.PoolRunning(pool); got != n {
			a.violate(now, "pool-conservation", "pool %q counter %d disagrees with recount %d", pool, got, n)
		}
		if cap := jt.PoolConfigFor(pool).MaxRunning; fair && cap > 0 && n > cap {
			a.violate(now, "pool-cap", "pool %q runs %d tasks over its cap %d", pool, n, cap)
		}
	}
	// Pools the recount never saw must not be credited with running tasks.
	for _, pool := range jt.PoolsWithRunning() {
		if _, seen := recount[pool]; !seen {
			a.violate(now, "pool-conservation", "pool %q counter %d but no live attempts", pool, jt.PoolRunning(pool))
		}
	}
}

// CheckSeededFilePlacement verifies HOG's placement invariants for one file:
// every block carries exactly the file's replication factor on distinct,
// alive, physically-holding datanodes, and any block with two or more
// replicas spans at least two sites (the paper's cross-site durability rule).
// It is the property the hdfs placement tests assert, shared with the chaos
// runner so both enforce the same contract.
func CheckSeededFilePlacement(nn *hdfs.Namenode, name string) error {
	f := nn.File(name)
	if f == nil {
		return fmt.Errorf("file %q not found", name)
	}
	for _, bid := range f.Blocks {
		b := nn.Block(bid)
		if b == nil {
			return fmt.Errorf("file %q block %d missing from block map", name, bid)
		}
		if b.NumReplicas() != f.Replication {
			return fmt.Errorf("file %q block %d has %d replicas, want %d", name, bid, b.NumReplicas(), f.Replication)
		}
		seen := make(map[netmodel.NodeID]bool, f.Replication)
		for _, id := range b.Replicas() {
			if seen[id] {
				return fmt.Errorf("file %q block %d has duplicate replica on node %d", name, bid, id)
			}
			seen[id] = true
			d := nn.Datanode(id)
			if d == nil || !d.Alive {
				return fmt.Errorf("file %q block %d replica on dead node %d", name, bid, id)
			}
			if !d.HasBlock(bid) {
				return fmt.Errorf("file %q block %d replica on node %d not physically held", name, bid, id)
			}
		}
		if f.Replication >= 2 && len(nn.SitesOf(b)) < 2 {
			return fmt.Errorf("file %q block %d with replication %d confined to one site", name, bid, f.Replication)
		}
	}
	return nil
}
