package mapred

import "hog/internal/netmodel"

// LaunchSpeculativeMap launches a copy of j's map task idx on node's tracker
// the way the scheduler launches a speculative one, without asking the
// speculation policy. The audit's speculation-policy rule must object unless
// the policy justifies the copy at this instant; no scheduler path reaches
// an unjustified launch.
func (jt *JobTracker) LaunchSpeculativeMap(j *Job, idx int, node netmodel.NodeID) {
	t, m := jt.Tracker(node), j.maps[idx]
	jt.launchMap(j, m, t, jt.localityOf(t, m), true)
}

// BumpRunningMaps occupies one more map slot on node's tracker without an
// attempt, the breach the audit's slot-accounting rule looks for: every
// scheduler path moves the counter and the attempt list together.
func (jt *JobTracker) BumpRunningMaps(node netmodel.NodeID) { jt.Tracker(node).runningMaps++ }

// BumpPoolRunning credits pool with one more running task than its live
// attempts, the breach the audit's pool-conservation rule looks for: launch
// and detach move the counter and the attempt lists together.
func (jt *JobTracker) BumpPoolRunning(pool string) { jt.poolRunning[pool]++ }
