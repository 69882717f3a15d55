package mapred

import "hog/internal/netmodel"

// LaunchMap launches an attempt of j's map task idx on node's tracker the
// way the scheduler launches one (a speculative copy when the task already
// runs), without asking the scheduler or speculation policy. The audit's
// speculation-policy and pool-cap rules must object unless those policies
// would launch it at this instant; no scheduler path reaches such a launch.
func (jt *JobTracker) LaunchMap(j *Job, idx int, node netmodel.NodeID) {
	t, m := jt.Tracker(node), j.maps[idx]
	jt.launchMap(j, m, t, jt.localityOf(t, m), m.running() > 0)
}

// BumpRunningMaps occupies one more map slot on node's tracker without an
// attempt, the breach the audit's slot-accounting rule looks for: every
// scheduler path moves the counter and the attempt list together.
func (jt *JobTracker) BumpRunningMaps(node netmodel.NodeID) { jt.Tracker(node).runningMaps++ }

// BumpPoolRunning credits pool with one more running task than its live
// attempts, the breach the audit's pool-conservation rule looks for: launch
// and detach move the counter and the attempt lists together.
func (jt *JobTracker) BumpPoolRunning(pool string) { jt.poolRunning[pool]++ }

// BumpCompleted counts one more completed task of kind in j than the
// tasks' done flags show, the breach the audit's task-conservation rule
// looks for: completing a task sets its flag and moves the counter
// together.
func (j *Job) BumpCompleted(kind TaskKind) {
	if kind == KindMap {
		j.completedMaps++
	} else {
		j.completedReduces++
	}
}
