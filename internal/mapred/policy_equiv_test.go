package mapred

import (
	"fmt"
	"strings"
	"testing"

	"hog/internal/sim"
)

// TestDefaultPolicyEquivalence is the extraction contract for the mapred
// decision points: naming the default policies explicitly ("fifo",
// "threshold") must reproduce the empty-name run bit for bit — same
// attempts on the same nodes at the same instants — across churn profiles
// and seeds. Any divergence means the extraction moved behaviour instead of
// only moving code.
func TestDefaultPolicyEquivalence(t *testing.T) {
	explicit := func(c *Config) {
		c.SchedulerPolicy = SchedulerFIFO
		c.SpeculationPolicy = SpeculationThreshold
	}
	for _, profile := range []string{"calm", "eager", "kills", "zombies"} {
		for seed := int64(1); seed <= 3; seed++ {
			sameFingerprint(t, fmt.Sprintf("profile %s seed %d", profile, seed), "default", "named",
				runSchedChurn(t, seed, false, profile), runSchedChurnOn(t, smallChurn, seed, false, profile, explicit))
		}
	}
}

// TestNonDefaultPoliciesDeterministic: the alternative policies must be
// exactly reproducible too — policy plug-in points cannot introduce map
// iteration or other nondeterminism.
func TestNonDefaultPoliciesDeterministic(t *testing.T) {
	alt := func(c *Config) {
		c.SchedulerPolicy = SchedulerFair
		c.SpeculationPolicy = SpeculationSiteLoad
	}
	sameFingerprint(t, "identical runs", "first", "second",
		runSchedChurnOn(t, smallChurn, 42, false, "kills", alt), runSchedChurnOn(t, smallChurn, 42, false, "kills", alt))
}

// TestFairSchedulerPoolCap: a capped pool must never exceed MaxRunning
// concurrent tasks while uncapped pools drain the cluster, and the capped
// jobs must still finish.
func TestFairSchedulerPoolCap(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.SchedulerPolicy = SchedulerFair
	jtCfg.Pools = map[string]PoolConfig{
		"bin1": {Weight: 1, MaxRunning: 2},
	}
	c := newCluster(5, 4, hogNNCfg(), jtCfg) // 20 nodes
	for i := 0; i < 3; i++ {
		cfg := smallJob(c, fmt.Sprintf("cap%d", i), 6, 1)
		cfg.Bin = 1
		c.jt.Submit(cfg)
	}
	free := smallJob(c, "free", 8, 2)
	free.Bin = 2
	c.jt.Submit(free)
	worst := 0
	c.eng.Every(sim.Second, func() {
		if n := c.jt.PoolRunning("bin1"); n > worst {
			worst = n
		}
		if got, want := c.jt.PoolRunning("bin1"), countPool(c.jt, "bin1"); got != want {
			t.Fatalf("pool counter %d disagrees with recount %d at %v", got, want, c.eng.Now())
		}
	})
	c.runUntilDone(t, 4*sim.Hour)
	if worst > 2 {
		t.Fatalf("capped pool reached %d concurrent tasks, cap is 2", worst)
	}
	if worst == 0 {
		t.Fatal("capped pool never ran a task")
	}
}

// countPool recounts a pool's running tasks from tracker attempt sets.
func countPool(jt *JobTracker, pool string) int { return jt.RunningByPool()[pool] }

// TestFairSchedulerSharesAcrossPools: with one pool saturated first, the
// fair policy must start the second pool's job while the first pool still
// has running work — the defining difference from FIFO's head-of-line
// ordering.
func TestFairSchedulerSharesAcrossPools(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.SchedulerPolicy = SchedulerFair
	c := newCluster(9, 2, hogNNCfg(), jtCfg) // 10 nodes: contention
	for i := 0; i < 4; i++ {
		cfg := smallJob(c, fmt.Sprintf("bulk%d", i), 10, 1)
		cfg.Bin = 1
		c.jt.Submit(cfg)
	}
	late := smallJob(c, "late", 2, 0)
	late.Bin = 2
	var lateJob *Job
	c.eng.Schedule(10*sim.Second, func() { lateJob = c.jt.Submit(late) })
	c.runUntilDone(t, 4*sim.Hour)
	if lateJob == nil || lateJob.State != JobSucceeded {
		t.Fatal("light-pool job did not finish")
	}
	// Under fair sharing the light pool's lone job must not wait for the
	// bulk pool to drain: at least one bulk job finishes after it.
	bulkAfter := 0
	for _, j := range c.jt.Jobs() {
		if strings.HasPrefix(j.Config.Name, "bulk") && j.FinishTime > lateJob.FinishTime {
			bulkAfter++
		}
	}
	if bulkAfter == 0 {
		t.Fatal("light-pool job finished last; fair policy did not share slots across pools")
	}
}

// TestPolicyRegistry pins the registry surface: constructors resolve the
// empty name to the default, reject unknown names with the valid choices in
// the message, and the name listings are sorted and complete.
func TestPolicyRegistry(t *testing.T) {
	if p, err := NewSchedulerPolicy(""); err != nil || p.Name() != SchedulerFIFO {
		t.Fatalf("empty scheduler name: got %v, %v", p, err)
	}
	if p, err := NewSpeculationPolicy(""); err != nil || p.Name() != SpeculationThreshold {
		t.Fatalf("empty speculation name: got %v, %v", p, err)
	}
	if _, err := NewSchedulerPolicy("nope"); err == nil || !strings.Contains(err.Error(), SchedulerFair) {
		t.Fatalf("unknown scheduler name error %v should list valid names", err)
	}
	if _, err := NewSpeculationPolicy("nope"); err == nil || !strings.Contains(err.Error(), SpeculationSiteLoad) {
		t.Fatalf("unknown speculation name error %v should list valid names", err)
	}
	wantSched := []string{SchedulerFair, SchedulerFIFO}
	if got := SchedulerPolicyNames(); !equalStrings(got, wantSched) {
		t.Fatalf("scheduler names %v, want %v", got, wantSched)
	}
	wantSpec := []string{SpeculationSiteLoad, SpeculationThreshold}
	if got := SpeculationPolicyNames(); !equalStrings(got, wantSpec) {
		t.Fatalf("speculation names %v, want %v", got, wantSpec)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSiteLoadSpeculationTightensUnderLoad: the site-load criterion must be
// stricter (or equal) on a fully busy site than the plain threshold rule,
// and looser on an idle one — the defining property of the policy.
func TestSiteLoadSpeculationTightensUnderLoad(t *testing.T) {
	c := newCluster(3, 2, hogNNCfg(), hogJTCfg())
	j := c.jt.Submit(smallJob(c, "load", 6, 1))
	c.eng.RunWhile(func() bool { return j.completedMaps < 3 && c.eng.Now() < time4h })
	pol, err := NewSpeculationPolicy(SpeculationSiteLoad)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSpeculationPolicy(SpeculationThreshold)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.jt.Tracker(c.nodes[0])
	now := c.eng.Now()
	// A start time old enough that the plain threshold flags it: site-load
	// on a busy site must agree or be stricter, never looser.
	for _, started := range []sim.Time{now - 30*sim.Second, now - 2*sim.Minute, now - 10*sim.Minute} {
		if pol.IsStraggler(c.jt, j, KindMap, tr, started) && !base.IsStraggler(c.jt, j, KindMap, tr, started) {
			util := c.jt.siteUtilization(tr.Site)
			if util >= 0.5 {
				t.Fatalf("site-load flagged a straggler threshold would not, on a site at utilization %.2f", util)
			}
		}
	}
}

const time4h = 4 * sim.Hour
