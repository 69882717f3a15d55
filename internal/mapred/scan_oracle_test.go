package mapred

import (
	"fmt"

	"hog/internal/sim"
)

// The linear-scan scheduler: the assignment path the indexed scheduler
// (schedindex.go) replaced, kept only as a test oracle. It rescans every
// task of every job per free slot per heartbeat, O(jobs x tasks x trackers),
// and reads nothing from the index, so a run under it is an independent
// account of what FIFO with locality preference, delay scheduling and
// speculation must decide. The equivalence tests install it on one of two
// otherwise identical JobTrackers and compare every assignment decision.

// useScanOracle routes every assignment of jt through the linear scan. The
// index is still maintained, so switching paths mid-run is safe.
func useScanOracle(jt *JobTracker) {
	jt.oracle = func(t *TaskTracker, kind TaskKind) bool {
		if kind == KindMap {
			return jt.assignOneMapScan(t)
		}
		return jt.assignOneReduceScan(t)
	}
}

// checkPlacementIndex checks the invariant the indexed map pick relies on
// to skip a job with nothing pending: for every active job, every task in
// its per-node and per-site placement sets is in its pending-map set. A
// running or finished map left in a placement set would be picked again
// through the placement lookups.
func checkPlacementIndex(jt *JobTracker) error {
	for _, j := range jt.activeList {
		for node, s := range j.idx.mapsByNode {
			for _, i := range *s {
				if !j.idx.pendingMaps.Has(i) {
					return fmt.Errorf("job %d map %d is in the node %d placement set but not pending", j.ID, i, node)
				}
			}
		}
		for site, s := range j.idx.mapsBySite {
			for _, i := range *s {
				if !j.idx.pendingMaps.Has(i) {
					return fmt.Errorf("job %d map %d is in the site %s placement set but not pending", j.ID, i, site)
				}
			}
		}
	}
	return nil
}

// checkReadyBound checks the earliest-assignable bound against a read-only
// scan: whenever the bound says nothing of a kind is assignable now, no
// alive tracker with a free slot of that kind may have a candidate in any
// active job under the walk's own filters, the per-tracker IsStraggler
// included. A drained map backlog whose delay-scheduling wait is still
// armed counts as a candidate: the walk would re-arm it. It reports which
// kinds the bound closed.
func checkReadyBound(jt *JobTracker) (closed [2]bool, err error) {
	now := jt.eng.Now()
	trackers := jt.AliveTrackers()
	for _, kind := range []TaskKind{KindMap, KindReduce} {
		if jt.readyAt(kind) <= now {
			continue
		}
		closed[kind] = true
		for _, j := range jt.activeList {
			pending, running, armed := jt.scanCandidates(j, kind)
			if len(pending) == 0 && len(running) == 0 && !armed {
				continue
			}
			for _, t := range trackers {
				free := t.FreeMapSlots()
				if kind == KindReduce {
					free = t.FreeReduceSlots()
				}
				if free <= 0 || j.blacklisted(t.Node) {
					continue
				}
				if what := jt.candidateOn(j, kind, t, pending, running, armed); what != "" {
					return closed, fmt.Errorf("%s bound %v is past now %v, but job %d offers tracker %d %s",
						kind, jt.readyAt(kind), now, j.ID, t.Node, what)
				}
			}
		}
	}
	return closed, nil
}

// scanCandidates lists, by a scan of every task of the kind in job j, the
// pending tasks and the running ones below the copy cap, and reports a
// drained map backlog with an armed wait. Reduces before slowstart list
// nothing.
func (jt *JobTracker) scanCandidates(j *Job, kind TaskKind) (pending, running []int, armed bool) {
	add := func(i int, done bool, failures, n int) {
		switch {
		case done || failures >= jt.cfg.MaxTaskAttempts:
		case n == 0:
			pending = append(pending, i)
		case n < jt.cfg.MaxTaskCopies && jt.cfg.Speculative:
			running = append(running, i)
		}
	}
	if kind == KindMap {
		for i, m := range j.maps {
			add(i, m.done, m.failures, m.running())
		}
		return pending, running, len(pending) == 0 && jt.cfg.LocalityWait > 0 && j.skipSince >= 0
	}
	if !jt.pastSlowstart(j) {
		return nil, nil, false
	}
	for i, r := range j.reduces {
		add(i, r.done, r.failures, r.running())
	}
	return pending, running, false
}

// candidateOn describes what the walk would act on for tracker t among j's
// candidates, or returns "".
func (jt *JobTracker) candidateOn(j *Job, kind TaskKind, t *TaskTracker, pending, running []int, armed bool) string {
	failedOn := func(i int) bool {
		if kind == KindMap {
			return j.maps[i].failedOn[t.Node]
		}
		return j.reduces[i].failedOn[t.Node]
	}
	for _, i := range pending {
		if !failedOn(i) {
			return fmt.Sprintf("pending task %d", i)
		}
	}
	if armed {
		return "a drained backlog with an armed wait"
	}
	for _, i := range running {
		on, started := false, sim.Time(0)
		if kind == KindMap {
			on, started = j.maps[i].runningOn(t.Node), j.maps[i].oldestRunningStart()
		} else {
			on, started = j.reduces[i].runningOn(t.Node), j.reduces[i].oldestRunningStart()
		}
		if failedOn(i) || on {
			continue
		}
		if jt.cfg.EagerRedundancy || jt.spec.IsStraggler(jt, j, kind, t, started) {
			return fmt.Sprintf("speculative copy of task %d", i)
		}
	}
	return ""
}

func (jt *JobTracker) assignOneMapScan(t *TaskTracker) bool {
	for _, j := range jt.jobs {
		if j.State == JobFailed || j.State == JobSucceeded || j.blacklisted(t.Node) {
			continue
		}
		// Locality pass 1: node-local pending map.
		var nodeLocal, siteLocal, anyPending *mapTask
		hasPending := false
		for _, m := range j.maps {
			if m.done || m.running() > 0 || m.failures >= jt.cfg.MaxTaskAttempts {
				continue
			}
			hasPending = true
			if m.failedOn[t.Node] {
				continue
			}
			lvl := jt.localityOf(t, m)
			switch lvl {
			case NodeLocal:
				nodeLocal = m
			case SiteLocal:
				if siteLocal == nil {
					siteLocal = m
				}
			default:
				if anyPending == nil {
					anyPending = m
				}
			}
			if nodeLocal != nil {
				break
			}
		}
		pick := nodeLocal
		lvl := NodeLocal
		if pick == nil {
			pick, lvl = siteLocal, SiteLocal
		}
		if pick == nil {
			pick, lvl = anyPending, Remote
		}
		if pick != nil && lvl != NodeLocal && jt.cfg.LocalityWait > 0 {
			// Delay scheduling: skip this job's non-local work for a while
			// in the hope a data-local slot frees up.
			if j.skipSince < 0 {
				j.skipSince = jt.eng.Now()
				continue
			}
			if jt.eng.Now()-j.skipSince < jt.cfg.LocalityWait {
				continue
			}
			// Waited long enough; accept the non-local slot. The wait is NOT
			// reset here: one expired LocalityWait covers every queued
			// non-local map, so a backlog launches in the same heartbeat wave
			// instead of each map serially paying a fresh full wait. Only a
			// node-local launch ends the waiting state.
		}
		if pick != nil {
			if lvl == NodeLocal {
				j.skipSince = -1
			}
			jt.launchMap(j, pick, t, lvl, false)
			return true
		}
		if jt.cfg.LocalityWait > 0 && !hasPending {
			// Backlog drained: re-arm the wait so maps that become pending
			// later (re-executions, ghost re-queues) get a fresh chance at a
			// local slot instead of inheriting the long-expired wait.
			j.skipSince = -1
		}
		// No pending maps in this job: consider speculation before moving
		// to the next job (Hadoop speculates within the running job first).
		if m := jt.speculativeMapScan(j, t); m != nil {
			jt.launchMap(j, m, t, jt.localityOf(t, m), true)
			return true
		}
	}
	return false
}

func (jt *JobTracker) speculativeMapScan(j *Job, t *TaskTracker) *mapTask {
	if !jt.cfg.Speculative {
		return nil
	}
	for _, m := range j.maps {
		if m.done || m.failures >= jt.cfg.MaxTaskAttempts || m.failedOn[t.Node] {
			continue
		}
		r := m.running()
		if r == 0 || r >= jt.cfg.MaxTaskCopies {
			continue
		}
		if m.runningOn(t.Node) {
			continue // never two copies on one node
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

func (jt *JobTracker) assignOneReduceScan(t *TaskTracker) bool {
	for _, j := range jt.jobs {
		if j.State == JobFailed || j.State == JobSucceeded || j.blacklisted(t.Node) {
			continue
		}
		if len(j.maps) > 0 {
			need := int(jt.cfg.SlowstartFraction * float64(len(j.maps)))
			if need < 1 {
				need = 1
			}
			if j.completedMaps < need {
				continue
			}
		}
		for _, r := range j.reduces {
			if r.done || r.running() > 0 || r.failures >= jt.cfg.MaxTaskAttempts || r.failedOn[t.Node] {
				continue
			}
			jt.launchReduce(j, r, t, false)
			return true
		}
		if r := jt.speculativeReduceScan(j, t); r != nil {
			jt.launchReduce(j, r, t, true)
			return true
		}
	}
	return false
}

func (jt *JobTracker) speculativeReduceScan(j *Job, t *TaskTracker) *reduceTask {
	if !jt.cfg.Speculative {
		return nil
	}
	for _, r := range j.reduces {
		if r.done || r.failures >= jt.cfg.MaxTaskAttempts || r.failedOn[t.Node] {
			continue
		}
		n := r.running()
		if n == 0 || n >= jt.cfg.MaxTaskCopies {
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
