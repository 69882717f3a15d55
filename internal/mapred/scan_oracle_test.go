package mapred

import (
	"fmt"
	"slices"
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
		pending := func(i int) bool {
			_, ok := slices.BinarySearch(j.idx.pendingMaps.v, i)
			return ok
		}
		for node, s := range j.idx.mapsByNode {
			for _, i := range s.v {
				if !pending(i) {
					return fmt.Errorf("job %d map %d is in the node %d placement set but not pending", j.ID, i, node)
				}
			}
		}
		for site, s := range j.idx.mapsBySite {
			for _, i := range s.v {
				if !pending(i) {
					return fmt.Errorf("job %d map %d is in the site %s placement set but not pending", j.ID, i, site)
				}
			}
		}
	}
	return nil
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
		if m := jt.speculativeMap(j, t); m != nil {
			jt.launchMap(j, m, t, jt.localityOf(t, m), true)
			return true
		}
	}
	return false
}

func (jt *JobTracker) speculativeMap(j *Job, t *TaskTracker) *mapTask {
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
