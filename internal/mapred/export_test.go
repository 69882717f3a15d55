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
