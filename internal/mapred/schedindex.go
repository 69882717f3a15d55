package mapred

import (
	"math"
	"slices"

	"hog/internal/hdfs"
	"hog/internal/netmodel"
	"hog/internal/ordered"
	"hog/internal/sim"
)

// This file implements task assignment. It answers every free slot from
// incrementally maintained indexes instead of rescanning every task of every
// job per free slot per heartbeat, O(jobs x tasks x trackers); that linear
// scan survives as a test oracle (scan_oracle_test.go). The index keeps, per
// job:
//
//   - ordered pending/running task sets (by task index),
//   - pending-map sets keyed by replica node and by replica site, derived
//     from namenode block placement and kept in sync through the
//     hdfs.Namenode.OnPlacementChange hook,
//
// plus a JobTracker-level active-job list (finished jobs drop out) and a
// block -> map-task reverse index for the placement hook. Queries walk the
// same task order the scan does, so assignment decisions are bit-identical;
// the randomized equivalence tests assert exactly that.
//
// The placement sets only ever hold pending maps, so a job whose pending set
// is empty is skipped without a placement lookup. Above the per-job walk
// sits the earliest-assignable bound (readyAt): per kind, a lower bound on
// the first instant any active job could hand any tracker a task. A beat
// before it skips the walk in O(1); the walk itself is unchanged, so the
// bound decides only whether it runs, never what it picks.

// taskClass is a task's scheduler-index classification.
type taskClass int8

const (
	// classNone: done, attempt budget exhausted, or the job has finished.
	classNone taskClass = iota
	// classPending: schedulable — no live attempt or ghost belief.
	classPending
	// classRunning: at least one live attempt or ghost (speculation pool).
	classRunning
)

// jobIndex is one job's scheduler index.
type jobIndex struct {
	pendingMaps    ordered.Set[int]
	runningMaps    ordered.Set[int]
	pendingReduces ordered.Set[int]
	runningReduces ordered.Set[int]

	// mapsByNode holds pending maps with an input replica on the node
	// (the scan's NodeLocal class); mapsBySite, indexed by the namenode's
	// awareness-site index and grown by the first add at a site, holds
	// pending maps with a live input replica anywhere in the site
	// (NodeLocal or SiteLocal).
	mapsByNode map[netmodel.NodeID]*ordered.Set[int]
	mapsBySite []ordered.Set[int]
}

func (x *jobIndex) nodeSet(n netmodel.NodeID) *ordered.Set[int] {
	s := x.mapsByNode[n]
	if s == nil {
		s = new(ordered.Set[int])
		x.mapsByNode[n] = s
	}
	return s
}

// grow returns tab extended with zero values to cover index i.
func grow[T any](tab []T, i int) []T {
	if n := i + 1; n > len(tab) {
		tab = append(tab, make([]T, n-len(tab))...)
	}
	return tab
}

// registerJobIndex builds j's scheduler index at submit time and enters the
// job into the active list and the block->map reverse index.
func (jt *JobTracker) registerJobIndex(j *Job) {
	j.idx = &jobIndex{
		mapsByNode: make(map[netmodel.NodeID]*ordered.Set[int]),
	}
	jt.activeList = append(jt.activeList, j)
	jt.readyStale = true
	for _, m := range j.maps {
		jt.blockMaps[m.block] = append(jt.blockMaps[m.block], m)
		jt.noteMapTask(m)
	}
	for _, r := range j.reduces {
		jt.noteReduceTask(r)
	}
}

// unregisterJobIndex removes a finished job from the active list and the
// block->map index so heartbeats and placement changes stop touching it.
func (jt *JobTracker) unregisterJobIndex(j *Job) {
	if i := slices.Index(jt.activeList, j); i >= 0 {
		jt.activeList = slices.Delete(jt.activeList, i, i+1)
	}
	jt.readyStale = true
	for _, m := range j.maps {
		list := jt.blockMaps[m.block]
		if i := slices.Index(list, m); i >= 0 {
			list = slices.Delete(list, i, i+1)
		}
		if len(list) == 0 {
			delete(jt.blockMaps, m.block)
		} else {
			jt.blockMaps[m.block] = list
		}
	}
}

// classOfMap mirrors the scan path's candidate filters exactly: pending
// candidates are !done && running()==0 && failures<Max; speculative
// candidates are !done && running()>0 && failures<Max.
func (jt *JobTracker) classOfMap(m *mapTask) taskClass {
	j := m.job
	if j.State == JobSucceeded || j.State == JobFailed {
		return classNone
	}
	if m.done || m.failures >= jt.cfg.MaxTaskAttempts {
		return classNone
	}
	if m.running() > 0 {
		return classRunning
	}
	return classPending
}

func (jt *JobTracker) classOfReduce(r *reduceTask) taskClass {
	j := r.job
	if j.State == JobSucceeded || j.State == JobFailed {
		return classNone
	}
	if r.done || r.failures >= jt.cfg.MaxTaskAttempts {
		return classNone
	}
	if r.running() > 0 {
		return classRunning
	}
	return classPending
}

// noteMapTask re-derives the task's classification and updates the index.
// Call it after any mutation that can change done/running/failures state.
func (jt *JobTracker) noteMapTask(m *mapTask) {
	m.job.specMapMin = specMinInvalid
	jt.readyStale = true
	c := jt.classOfMap(m)
	if c == m.idxClass {
		return
	}
	idx := m.job.idx
	switch m.idxClass {
	case classPending:
		idx.pendingMaps.Remove(m.idx)
		jt.placementSets(m, false)
	case classRunning:
		idx.runningMaps.Remove(m.idx)
	}
	switch c {
	case classPending:
		idx.pendingMaps.Add(m.idx)
		jt.placementSets(m, true)
	case classRunning:
		idx.runningMaps.Add(m.idx)
	}
	m.idxClass = c
}

func (jt *JobTracker) noteReduceTask(r *reduceTask) {
	r.job.specReduceMin = specMinInvalid
	jt.readyStale = true
	c := jt.classOfReduce(r)
	if c == r.idxClass {
		return
	}
	idx := r.job.idx
	switch r.idxClass {
	case classPending:
		idx.pendingReduces.Remove(r.idx)
	case classRunning:
		idx.runningReduces.Remove(r.idx)
	}
	switch c {
	case classPending:
		idx.pendingReduces.Add(r.idx)
	case classRunning:
		idx.runningReduces.Add(r.idx)
	}
	r.idxClass = c
}

// placementSets adds or removes a pending map from the per-node and
// per-site placement sets, driven by the block's current replicas. The site
// filter mirrors localityOf: only live datanodes contribute site locality,
// while the node set follows raw replica membership.
func (jt *JobTracker) placementSets(m *mapTask, add bool) {
	b := jt.nn.Block(m.block)
	if b == nil {
		return
	}
	idx := m.job.idx
	for _, r := range b.Replicas() {
		ns := idx.nodeSet(r)
		if add {
			ns.Add(m.idx)
		} else {
			ns.Remove(m.idx)
		}
		if d := jt.nn.Datanode(r); d != nil && d.Alive {
			s := jt.nn.SiteOf(r)
			if add {
				idx.mapsBySite = grow(idx.mapsBySite, s)
				idx.mapsBySite[s].Add(m.idx)
			} else if s < len(idx.mapsBySite) {
				idx.mapsBySite[s].Remove(m.idx)
			}
		}
	}
}

// placementChanged is the hdfs.Namenode.OnPlacementChange subscriber: a
// replica of bid appeared on or disappeared from node, so every pending map
// reading that block updates its per-node/per-site placement sets.
func (jt *JobTracker) placementChanged(bid hdfs.BlockID, node netmodel.NodeID, added bool) {
	maps := jt.blockMaps[bid]
	if len(maps) == 0 {
		return
	}
	d, s := jt.nn.Datanode(node), jt.nn.SiteOf(node)
	for _, m := range maps {
		if m.idxClass != classPending {
			continue
		}
		idx := m.job.idx
		if added {
			idx.nodeSet(node).Add(m.idx)
			if d != nil && d.Alive {
				idx.mapsBySite = grow(idx.mapsBySite, s)
				idx.mapsBySite[s].Add(m.idx)
			}
		} else {
			idx.nodeSet(node).Remove(m.idx)
			if d != nil && s < len(idx.mapsBySite) && !jt.blockLiveInSite(bid, s) {
				idx.mapsBySite[s].Remove(m.idx)
			}
		}
	}
}

// blockLiveInSite reports whether the block still has a replica on a live
// datanode in the site (another replica may keep the site entry alive).
func (jt *JobTracker) blockLiveInSite(bid hdfs.BlockID, site int) bool {
	b := jt.nn.Block(bid)
	if b == nil {
		return false
	}
	for _, r := range b.Replicas() {
		if d := jt.nn.Datanode(r); d != nil && d.Alive && jt.nn.SiteOf(r) == site {
			return true
		}
	}
	return false
}

// pickMap returns the map the scan path would pick for tracker t, at its
// locality level. Level preference first (node, site, remote), lowest task
// index within a level — the scan's exact order. The three queries are
// mutually consistent: an eligible pending map with a replica on t.Node is
// always found by the node query, so later queries cannot misclassify. A job
// with no pending map returns before the placement lookups: the placement
// sets hold only pending maps, so they are empty too.
func (jt *JobTracker) pickMap(j *Job, t *TaskTracker) (*mapTask, LocalityLevel) {
	jt.work.MapProbes++
	if len(j.idx.pendingMaps) == 0 {
		return nil, Remote
	}
	jt.work.PlacementLookups++
	if s := j.idx.mapsByNode[t.Node]; s != nil {
		for _, i := range *s {
			m := j.maps[i]
			if m.failedOn[t.Node] {
				continue
			}
			return m, NodeLocal
		}
	}
	jt.work.PlacementLookups++
	if s := jt.nn.SiteOf(t.Node); s < len(j.idx.mapsBySite) {
		for _, i := range j.idx.mapsBySite[s] {
			m := j.maps[i]
			if m.failedOn[t.Node] {
				continue
			}
			return m, SiteLocal
		}
	}
	for _, i := range j.idx.pendingMaps {
		m := j.maps[i]
		if m.failedOn[t.Node] {
			continue
		}
		return m, Remote
	}
	return nil, Remote
}

// assignOneMap hands the tracker one map: the first job in policy order
// with a pick (subject to delay scheduling) or a speculative candidate.
func (jt *JobTracker) assignOneMap(t *TaskTracker) bool {
	for _, j := range jt.sched.JobOrder(jt, t) {
		if j.blacklisted(t.Node) {
			continue
		}
		pick, lvl := jt.pickMap(j, t)
		if pick != nil && lvl != NodeLocal && jt.cfg.LocalityWait > 0 {
			if j.skipSince < 0 {
				j.skipSince = jt.eng.Now()
				continue
			}
			if jt.eng.Now()-j.skipSince < jt.cfg.LocalityWait {
				continue
			}
		}
		if pick != nil {
			if lvl == NodeLocal {
				j.skipSince = -1
			}
			jt.launchMap(j, pick, t, lvl, false)
			return true
		}
		if jt.cfg.LocalityWait > 0 && len(j.idx.pendingMaps) == 0 && j.skipSince >= 0 {
			// Backlog drained: re-arm the wait so maps that become pending
			// later (re-executions, ghost re-queues) get a fresh chance at a
			// local slot instead of inheriting the long-expired wait.
			j.skipSince = -1
			jt.readyStale = true
		}
		if m := jt.speculativeMap(j, t); m != nil {
			jt.launchMap(j, m, t, jt.localityOf(t, m), true)
			return true
		}
	}
	return false
}

// speculativeMap walks only the job's running maps (in task order) instead
// of every task; membership already encodes !done && failures<Max. The
// straggler gate short-circuits the walk entirely in the common case:
// IsStraggler is monotone in the attempt's start time, so if the job's
// oldest running start below the copy cap does not qualify, no map the walk
// could pick does.
func (jt *JobTracker) speculativeMap(j *Job, t *TaskTracker) *mapTask {
	if !jt.cfg.Speculative {
		return nil
	}
	if !jt.cfg.EagerRedundancy && !jt.spec.IsStraggler(jt, j, KindMap, t, jt.specMin(j, KindMap)) {
		return nil
	}
	jt.work.SpecWalks++
	for _, i := range j.idx.runningMaps {
		m := j.maps[i]
		if m.failedOn[t.Node] {
			continue
		}
		if m.running() >= jt.cfg.MaxTaskCopies {
			continue
		}
		if m.runningOn(t.Node) {
			continue
		}
		if jt.cfg.EagerRedundancy {
			return m
		}
		if jt.spec.IsStraggler(jt, j, KindMap, t, m.oldestRunningStart()) {
			return m
		}
	}
	return nil
}

// specMin returns the job's cached speculation gate minimum of the kind,
// recomputing it after an invalidation.
func (jt *JobTracker) specMin(j *Job, kind TaskKind) sim.Time {
	cached := &j.specMapMin
	if kind == KindReduce {
		cached = &j.specReduceMin
	}
	if *cached == specMinInvalid {
		*cached = jt.oldestRunningOfKind(j, kind)
	}
	return *cached
}

// oldestRunningOfKind recomputes a job's minimum running start for the
// speculation gate over the running tasks below the copy cap, the only ones
// speculation can pick; -1 when there are none. It runs once per
// invalidation, not per probe.
func (jt *JobTracker) oldestRunningOfKind(j *Job, kind TaskKind) sim.Time {
	oldest := sim.Time(-1)
	if kind == KindMap {
		for _, i := range j.idx.runningMaps {
			m := j.maps[i]
			if s := m.oldestRunningStart(); s >= 0 && (oldest < 0 || s < oldest) && m.running() < jt.cfg.MaxTaskCopies {
				oldest = s
			}
		}
	} else {
		for _, i := range j.idx.runningReduces {
			r := j.reduces[i]
			if s := r.oldestRunningStart(); s >= 0 && (oldest < 0 || s < oldest) && r.running() < jt.cfg.MaxTaskCopies {
				oldest = s
			}
		}
	}
	return oldest
}

// assignOneReduce hands the tracker one reduce: the first job in policy
// order past slowstart with a pending reduce or a speculative candidate.
func (jt *JobTracker) assignOneReduce(t *TaskTracker) bool {
	for _, j := range jt.sched.JobOrder(jt, t) {
		if j.blacklisted(t.Node) {
			continue
		}
		jt.work.ReduceProbes++
		if !jt.pastSlowstart(j) {
			continue
		}
		for _, i := range j.idx.pendingReduces {
			r := j.reduces[i]
			if r.failedOn[t.Node] {
				continue
			}
			jt.launchReduce(j, r, t, false)
			return true
		}
		if r := jt.speculativeReduce(j, t); r != nil {
			jt.launchReduce(j, r, t, true)
			return true
		}
	}
	return false
}

func (jt *JobTracker) speculativeReduce(j *Job, t *TaskTracker) *reduceTask {
	if !jt.cfg.Speculative {
		return nil
	}
	if !jt.cfg.EagerRedundancy && !jt.spec.IsStraggler(jt, j, KindReduce, t, jt.specMin(j, KindReduce)) {
		return nil
	}
	jt.work.SpecWalks++
	for _, i := range j.idx.runningReduces {
		r := j.reduces[i]
		if r.failedOn[t.Node] {
			continue
		}
		if r.running() >= jt.cfg.MaxTaskCopies {
			continue
		}
		if r.runningOn(t.Node) {
			continue
		}
		if jt.cfg.EagerRedundancy {
			return r
		}
		if jt.spec.IsStraggler(jt, j, KindReduce, t, r.oldestRunningStart()) {
			return r
		}
	}
	return nil
}

// never is the bound of a kind nothing can make assignable without a state
// change that marks the bound stale.
const never = sim.Time(math.MaxInt64)

// readyAt returns the kind's earliest-assignable bound: no beat before that
// instant can be handed a task of the kind, and none can change scheduler
// state by walking the jobs (the delay-scheduling re-arm is the one write a
// walk makes without launching; mapReady covers it). The bound is recomputed
// lazily on the first call after a change marks it stale: every write the
// walk reads funnels through noteMapTask or noteReduceTask (task state,
// completion aggregates, slowstart progress), registerJobIndex,
// unregisterJobIndex or the re-arm itself. A recompute costs one pass over
// the active jobs, O(1) each apart from the cached speculation minimum,
// which is no more than the job walk it stands in for.
func (jt *JobTracker) readyAt(kind TaskKind) sim.Time {
	if jt.readyStale {
		now := jt.eng.Now()
		jt.mapReady, jt.reduceReady = never, never
		for _, j := range jt.activeList {
			jt.mapReady = min(jt.mapReady, jt.mapReadyAt(j, now))
			jt.reduceReady = min(jt.reduceReady, jt.reduceReadyAt(j, now))
		}
		jt.readyStale = false
	}
	if kind == KindMap {
		return jt.mapReady
	}
	return jt.reduceReady
}

// NextAssignable returns the earliest instant at which any heartbeat could
// be handed a task of either kind (never while nothing can be). A beat
// before it assigns nothing and changes no scheduler state, so the
// heartbeat driver skips it.
func (jt *JobTracker) NextAssignable() sim.Time {
	return min(jt.readyAt(KindMap), jt.readyAt(KindReduce))
}

// mapReadyAt is j's term of the map bound. A pending map may be assignable
// now. So may a drained backlog under delay scheduling whose wait is still
// armed: the walk re-arms it (skipSince = -1), which later picks depend on.
// Otherwise only speculation can launch a map.
func (jt *JobTracker) mapReadyAt(j *Job, now sim.Time) sim.Time {
	if len(j.idx.pendingMaps) > 0 || jt.cfg.LocalityWait > 0 && j.skipSince >= 0 {
		return now
	}
	return jt.specReadyAt(j, KindMap, now)
}

// reduceReadyAt is j's term of the reduce bound: nothing before slowstart,
// which moves only when a map completes or re-executes (both noteMapTask).
func (jt *JobTracker) reduceReadyAt(j *Job, now sim.Time) sim.Time {
	if !jt.pastSlowstart(j) {
		return never
	}
	if len(j.idx.pendingReduces) > 0 {
		return now
	}
	return jt.specReadyAt(j, KindReduce, now)
}

// specReadyAt is the earliest instant a speculative copy of one of j's
// running tasks of the kind could launch: now under eager redundancy, the
// policy's earliest straggler instant for the oldest copy below the copy
// cap otherwise.
func (jt *JobTracker) specReadyAt(j *Job, kind TaskKind, now sim.Time) sim.Time {
	if !jt.cfg.Speculative {
		return never
	}
	oldest := jt.specMin(j, kind)
	switch {
	case oldest < 0:
		return never
	case jt.cfg.EagerRedundancy:
		return now
	}
	return jt.spec.EarliestStraggler(jt, j, kind, oldest)
}

// pastSlowstart reports whether enough of j's maps have completed for its
// reduces to launch (Hadoop's mapred.reduce.slowstart.completed.maps).
func (jt *JobTracker) pastSlowstart(j *Job) bool {
	if len(j.maps) == 0 {
		return true
	}
	need := int(jt.cfg.SlowstartFraction * float64(len(j.maps)))
	if need < 1 {
		need = 1
	}
	return j.completedMaps >= need
}
