package mapred

import (
	"testing"

	"hog/internal/sim"
)

// TestDelaySchedulingImprovesLocality compares plain FIFO with delay
// scheduling on a cluster where input replicas are scarce (replication 1),
// so FIFO frequently settles for remote slots while delay scheduling waits
// for local ones.
func TestDelaySchedulingImprovesLocality(t *testing.T) {
	run := func(wait sim.Time) (local, remote int) {
		nn := hogNNCfg()
		nn.Replication = 1 // scarce locality
		jt := hogJTCfg()
		jt.LocalityWait = wait
		c := newCluster(51, 4, nn, jt)
		j := c.jt.Submit(smallJob(c, "delay", 12, 2))
		c.runUntilDone(t, 6*sim.Hour)
		if j.State != JobSucceeded {
			t.Fatalf("job state %v", j.State)
		}
		loc := j.Counters().Locality
		return loc[int(NodeLocal)], loc[int(SiteLocal)] + loc[int(Remote)]
	}
	fifoLocal, fifoNonLocal := run(0)
	delayLocal, delayNonLocal := run(30 * sim.Second)
	fifoRate := float64(fifoLocal) / float64(fifoLocal+fifoNonLocal)
	delayRate := float64(delayLocal) / float64(delayLocal+delayNonLocal)
	if delayRate < fifoRate {
		t.Fatalf("delay scheduling locality %.2f worse than FIFO %.2f", delayRate, fifoRate)
	}
	if delayRate == fifoRate && delayLocal == fifoLocal {
		t.Logf("locality unchanged (%.2f); acceptable on a lightly loaded cluster", delayRate)
	}
}

// TestDelaySchedulingEventuallyAcceptsRemote ensures the wait is bounded:
// with no local replicas at all (input on nodes without slots is impossible
// here, so instead use a tiny wait) the job must still finish.
func TestDelaySchedulingEventuallyAcceptsRemote(t *testing.T) {
	nn := hogNNCfg()
	nn.Replication = 1
	jt := hogJTCfg()
	jt.LocalityWait = 10 * sim.Second
	c := newCluster(52, 2, nn, jt)
	j := c.jt.Submit(smallJob(c, "bounded", 8, 1))
	c.runUntilDone(t, 4*sim.Hour)
	if j.State != JobSucceeded {
		t.Fatalf("job did not finish under delay scheduling: %v", j.State)
	}
}

// TestDelayWaitPaidOnce is the regression test for the delay-scheduling
// over-penalty bug: skipSince used to be reset after *accepting* a
// non-local slot, so every queued non-local map paid a fresh, serial
// LocalityWait. One expired wait must now cover the whole backlog —
// subsequent non-local offers launch immediately — and only a node-local
// launch ends the waiting state. This pins the A-DELAY sweep's behaviour:
// its response times no longer scale with maps x LocalityWait.
func TestDelayWaitPaidOnce(t *testing.T) {
	nn := hogNNCfg()
	nn.Replication = 1        // scarce locality: most trackers are non-local
	nn.DeadTimeout = sim.Hour // no background heartbeats: keep masters patient
	jt := hogJTCfg()
	jt.LocalityWait = 30 * sim.Second
	jt.TrackerTimeout = sim.Hour
	c := newQuietCluster(55, 4, nn, jt) // heartbeats driven by hand
	j := c.jt.Submit(smallJob(c, "paidonce", 10, 0))

	// trackersFor partitions trackers by whether they hold a replica of a
	// still-pending map (placement shifts as maps launch).
	trackersFor := func() (locals, remotes []*TaskTracker) {
		for _, id := range c.nodes {
			tr := c.jt.Tracker(id)
			local := false
			for _, m := range j.maps {
				if !m.done && m.running() == 0 && c.jt.localityOf(tr, m) == NodeLocal {
					local = true
					break
				}
			}
			if local {
				locals = append(locals, tr)
			} else {
				remotes = append(remotes, tr)
			}
		}
		return
	}
	_, remotes := trackersFor()
	if len(remotes) < 2 {
		t.Fatalf("placement too uniform for the scenario: only %d non-local trackers", len(remotes))
	}

	// First non-local offer starts the wait instead of launching.
	c.jt.HeartbeatTracker(remotes[0])
	if remotes[0].runningMaps != 0 {
		t.Fatal("non-local map launched before LocalityWait expired")
	}
	if j.skipSince != 0 {
		t.Fatalf("skipSince = %v, want 0 (waiting since the first declined offer)", j.skipSince)
	}

	// After the wait expires, the same tracker gets a map...
	c.eng.RunUntil(31 * sim.Second)
	c.jt.HeartbeatTracker(remotes[0])
	if remotes[0].runningMaps != 1 {
		t.Fatal("non-local map not launched after LocalityWait expired")
	}
	// ...and the waiting state persists: the expired wait covers the backlog.
	if j.skipSince != 0 {
		t.Fatalf("skipSince = %v after a non-local launch, want 0 (the bug reset it to -1)", j.skipSince)
	}
	// A second non-local tracker launches immediately, with no fresh wait.
	c.jt.HeartbeatTracker(remotes[1])
	if remotes[1].runningMaps != 1 {
		t.Fatal("second non-local map paid a fresh LocalityWait (serial over-penalty)")
	}
	// Only a node-local launch resets the waiting state.
	locals, _ := trackersFor()
	if len(locals) == 0 {
		t.Fatal("no tracker is node-local to a pending map")
	}
	c.jt.HeartbeatTracker(locals[0])
	if locals[0].runningMaps == 0 {
		t.Fatal("node-local tracker got no map")
	}
	if j.skipSince != -1 {
		t.Fatalf("skipSince = %v after a node-local launch, want -1", j.skipSince)
	}

	// After the node-local reset, the next non-local offer starts a fresh
	// wait rather than launching.
	_, rem := trackersFor()
	free := func(trs []*TaskTracker) *TaskTracker {
		for _, tr := range trs {
			if tr.FreeMapSlots() > 0 {
				return tr
			}
		}
		return nil
	}
	tr := free(rem)
	if tr == nil {
		t.Fatal("no free non-local tracker for the fresh-wait check")
	}
	c.jt.HeartbeatTracker(tr)
	if tr.runningMaps != 0 || j.skipSince != 31*sim.Second {
		t.Fatalf("fresh wait not started after node-local reset: running=%d skipSince=%v", tr.runningMaps, j.skipSince)
	}

	// Let the fresh wait expire, drain the backlog through non-local
	// launches only, and confirm the wait re-arms once nothing is pending:
	// maps that become pending later (re-executions) must pay a fresh
	// LocalityWait instead of inheriting the long-expired one.
	c.eng.RunUntil(62 * sim.Second)
	for safety := 0; ; safety++ {
		if safety > 40 {
			t.Fatal("could not drain the backlog via non-local launches")
		}
		pending := 0
		for _, m := range j.maps {
			if !m.done && m.running() == 0 {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		_, rem := trackersFor()
		tr := free(rem)
		if tr == nil {
			t.Fatal("no free non-local tracker left while draining")
		}
		before := tr.runningMaps
		c.jt.HeartbeatTracker(tr)
		if tr.runningMaps == before {
			t.Fatalf("expired wait declined a non-local launch while draining (skipSince=%v)", j.skipSince)
		}
	}
	if j.skipSince != 31*sim.Second {
		t.Fatalf("skipSince = %v changed during the remote-only drain", j.skipSince)
	}
	var all []*TaskTracker
	for _, id := range c.nodes {
		all = append(all, c.jt.Tracker(id))
	}
	idle := free(all)
	if idle == nil {
		t.Fatal("no idle tracker left for the re-arm probe")
	}
	// The armed wait holds the map bound open: the walk must run to re-arm.
	if at := c.jt.readyAt(KindMap); at > c.eng.Now() {
		t.Fatalf("map bound %v is past now %v with the wait still armed", at, c.eng.Now())
	}
	if _, err := checkReadyBound(c.jt); err != nil {
		t.Fatal(err)
	}
	c.jt.HeartbeatTracker(idle)
	if j.skipSince != -1 {
		t.Fatalf("skipSince = %v after the backlog drained, want -1 (wait must re-arm)", j.skipSince)
	}
}

// TestGhostHoldsSlotUntilTimeout verifies the 30s-vs-900s mechanism: a map
// running on a crashed node stays "running" (ghost) until the tracker
// timeout, after which it reschedules.
func TestGhostHoldsSlotUntilTimeout(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.TrackerTimeout = 120 * sim.Second
	jtCfg.Speculative = false                 // isolate the timeout path
	c := newCluster(53, 1, hogNNCfg(), jtCfg) // 5 nodes, 1 per site
	cfg := smallJob(c, "ghost", 5, 0)
	cfg.MapCostPerMB = 3 * sim.Second // long maps (~192s)
	j := c.jt.Submit(cfg)
	var crashAt sim.Time
	c.eng.After(30*sim.Second, func() {
		// Crash a node that is running a map.
		for _, m := range j.maps {
			for _, a := range m.attempts {
				if a.live() {
					crashAt = c.eng.Now()
					c.kill(a.node)
					return
				}
			}
		}
	})
	c.runUntilDone(t, 4*sim.Hour)
	if crashAt == 0 {
		t.Fatal("never crashed a node")
	}
	if j.State != JobSucceeded {
		t.Fatalf("job state %v", j.State)
	}
	// The job can only have finished after the ghost expired at
	// crashAt + TrackerTimeout (+ scan interval) and the map re-ran.
	if j.FinishTime < crashAt+120*sim.Second {
		t.Fatalf("job finished at %v, before ghost timeout (crash at %v)", j.FinishTime, crashAt)
	}
}

// TestSpeculationRescuesGhost verifies the other escape hatch: with
// speculation on, a stuck (ghost) task is duplicated before the timeout.
func TestSpeculationRescuesGhost(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.TrackerTimeout = 900 * sim.Second // traditional: rescue must come from speculation
	jtCfg.SpeculativeMinRuntime = 20 * sim.Second
	c := newCluster(54, 2, hogNNCfg(), jtCfg)
	cfg := smallJob(c, "rescue", 8, 0)
	cfg.MapCostPerMB = 500 * sim.Millisecond // ~32s maps
	j := c.jt.Submit(cfg)
	crashed := false
	c.eng.Every(5*sim.Second, func() {
		if crashed || j.CompletedMaps() < 4 {
			return
		}
		for _, m := range j.maps {
			for _, a := range m.attempts {
				if a.live() && c.state[a.node] == healthy {
					c.kill(a.node)
					crashed = true
					return
				}
			}
		}
	})
	c.runUntilDone(t, 2*sim.Hour)
	if !crashed {
		t.Skip("no crash opportunity with this seed")
	}
	if j.State != JobSucceeded {
		t.Fatalf("job state %v", j.State)
	}
	if j.FinishTime-j.SubmitTime >= 900*sim.Second {
		t.Fatalf("job took %v; speculation should have rescued it before the 900s timeout", j.FinishTime-j.SubmitTime)
	}
	if j.Counters().SpeculativeMaps == 0 {
		t.Fatal("no speculative map launched to rescue the ghost")
	}
}
