package mapred

import (
	"slices"

	"hog/internal/event"
	"hog/internal/netmodel"
)

// This file models JobTracker failure and recovery (docs/FAULTS.md). A
// JobTracker crash loses exactly the state a real one holds only in RAM:
// which attempts run where. The job queue itself (submitted jobs, completed
// tasks, their output locations) is treated as recoverable — Hadoop's job
// recovery replays it from the job log on restart. Trackers notice the dead
// master when their heartbeats go unanswered, back off with jitter (driven
// by internal/core), and re-register once it returns; the restarted master
// re-queues orphaned running work and re-executes completed maps whose
// output did not survive.

// Crash drops the JobTracker's in-flight task state: every running attempt
// is cancelled without charging its task's failure budget (the tasks did
// nothing wrong), partial reduce output is discarded, and ghost beliefs
// about silently-dead nodes are forgotten wholesale — a restarted master
// has no memory of who was running what.
func (jt *JobTracker) Crash() {
	if jt.down {
		return
	}
	jt.down = true
	jt.Stop()
	for _, t := range jt.trackers {
		if t == nil || len(t.attempts) == 0 {
			continue
		}
		// cancel removes each attempt from the list, so walk a copy.
		for _, a := range slices.Clone(t.attempts) {
			a.cancel("master crashed")
		}
	}
	for _, j := range jt.jobs {
		if j.State != JobRunning && j.State != JobPending {
			continue
		}
		for _, m := range j.maps {
			if len(m.ghosts) > 0 {
				m.ghosts = nil
				jt.noteMapTask(m)
			}
		}
		for _, r := range j.reduces {
			if len(r.ghosts) > 0 {
				r.ghosts = nil
				jt.noteReduceTask(r)
			}
		}
	}
	if jt.Events.Active() {
		ev := event.At(event.MasterCrashed, jt.eng.Now())
		ev.Detail = "jobtracker"
		jt.Events.Emit(ev)
	}
}

// Restart brings a crashed JobTracker back: job state is reconstructed —
// completed maps whose output still lives on a servable node are kept,
// completed maps whose output vanished during the outage re-execute, and
// everything that was running is already back in pending (Crash re-queued
// it). Live trackers owe a re-registration; until then they are grace-
// stamped so the resumed dead scan does not charge them for the outage.
func (jt *JobTracker) Restart() {
	if !jt.down {
		return
	}
	jt.down = false
	now := jt.eng.Now()
	for _, t := range jt.trackers {
		if t != nil && t.Alive {
			t.awaitingReregister = true
			jt.live.Stamp(&t.live, now)
		}
	}
	jt.Start()
	for _, j := range jt.jobs {
		if j.State != JobRunning && j.State != JobPending {
			continue
		}
		for _, m := range j.maps {
			if m.done && !jt.servable(m.outputNode) && jt.outputStillNeeded(j, m) {
				jt.reExecuteMap(j, m)
			}
		}
	}
	if jt.Events.Active() {
		ev := event.At(event.MasterRecovered, now)
		ev.Detail = "jobtracker"
		jt.Events.Emit(ev)
	}
}

// ReregisterTracker is a tracker's first successful contact with a restarted
// JobTracker; it counts as a heartbeat (and so triggers assignment).
func (jt *JobTracker) ReregisterTracker(t *TaskTracker) {
	if jt.down || t == nil || !t.Alive {
		return
	}
	if t.awaitingReregister {
		t.awaitingReregister = false
		if jt.Events.Active() {
			ev := event.At(event.TrackerReregistered, jt.eng.Now())
			ev.Node = t.Node
			ev.Site = jt.nn.SiteName(jt.nn.SiteOf(t.Node))
			jt.Events.Emit(ev)
		}
	}
	jt.live.Stamp(&t.live, jt.eng.Now())
	jt.assign(t)
}

// ReviveTracker brings back a tracker the JobTracker declared dead while its
// daemons kept running behind a network partition: the heal-side complement
// of markDead. Slots rejoin the site load, the tracker heartbeats again, and
// assignment resumes on it. markDead already failed its attempts and cleared
// its ghosts, so there is no task state to reconcile.
func (jt *JobTracker) ReviveTracker(node netmodel.NodeID) bool {
	t := jt.Tracker(node)
	if t == nil || t.Alive {
		return false
	}
	t.Alive = true
	jt.alive++
	jt.live.Add(&t.live, node, t, jt.eng.Now())
	jt.siteLoad(t).slots += t.MapSlots + t.ReduceSlots
	if !jt.down {
		jt.assign(t)
	}
	return true
}

// DropGhostsOn resolves zombie beliefs about a node that turned out to be
// alive behind a partition that healed before the tracker timeout: the
// ghosted tasks return to pending and reschedule immediately instead of
// waiting out the timeout.
func (jt *JobTracker) DropGhostsOn(node netmodel.NodeID) {
	for _, j := range jt.jobs {
		if j.State != JobRunning && j.State != JobPending {
			continue
		}
		for _, m := range j.maps {
			if before := len(m.ghosts); before > 0 {
				m.ghosts = dropGhosts(m.ghosts, node)
				if len(m.ghosts) != before {
					jt.noteMapTask(m)
				}
			}
		}
		for _, r := range j.reduces {
			if before := len(r.ghosts); before > 0 {
				r.ghosts = dropGhosts(r.ghosts, node)
				if len(r.ghosts) != before {
					jt.noteReduceTask(r)
				}
			}
		}
	}
}

// Down reports whether the JobTracker is crashed.
func (jt *JobTracker) Down() bool { return jt.down }

// ForEachTracker visits every registered tracker in ascending node order —
// the deterministic iteration the audit sweep needs.
func (jt *JobTracker) ForEachTracker(fn func(*TaskTracker)) {
	for _, t := range jt.trackers {
		if t != nil {
			fn(t)
		}
	}
}
