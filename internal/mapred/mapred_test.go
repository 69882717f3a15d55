package mapred

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/hdfs"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/topology"
)

type nodeState int

const (
	healthy nodeState = iota
	zombie            // tasktracker heartbeats, datanode and data gone (§IV.D.1)
	dead
)

// cluster is a self-contained MapReduce test cluster, over 5 sites unless
// built by newClusterOn.
type cluster struct {
	eng   *sim.Engine
	net   *netmodel.Network
	dt    *disk.Tracker
	nn    *hdfs.Namenode
	jt    *JobTracker
	nodes []netmodel.NodeID
	state map[netmodel.NodeID]nodeState
	// afterBeat, when set, runs after every JobTracker heartbeat the
	// periodic driver delivers.
	afterBeat func()
}

var clusterDomains = []string{"fnal.gov", "wc1-fnal.gov", "ucsd.edu", "aglt2.org", "mit.edu"}

func newCluster(seed int64, nodesPerSite int, nnCfg hdfs.Config, jtCfg Config) *cluster {
	return newClusterOn(clusterDomains, seed, nodesPerSite, nnCfg, jtCfg)
}

// newClusterOn is newCluster with one site per domain.
func newClusterOn(domains []string, seed int64, nodesPerSite int, nnCfg hdfs.Config, jtCfg Config) *cluster {
	c := newQuietClusterOn(domains, seed, nodesPerSite, nnCfg, jtCfg)
	// One global heartbeat driver: healthy nodes report to both masters,
	// zombies only to the JobTracker.
	c.eng.Every(3*sim.Second, func() {
		for _, id := range c.nodes {
			switch c.state[id] {
			case healthy:
				c.nn.HeartbeatDatanode(c.nn.Datanode(id))
				c.jt.HeartbeatTracker(c.jt.Tracker(id))
			case zombie:
				c.jt.HeartbeatTracker(c.jt.Tracker(id))
			default:
				continue
			}
			if c.afterBeat != nil {
				c.afterBeat()
			}
		}
	})
	return c
}

// newQuietCluster builds the cluster without the periodic heartbeat driver,
// for tests that drive assignment heartbeats by hand.
func newQuietCluster(seed int64, nodesPerSite int, nnCfg hdfs.Config, jtCfg Config) *cluster {
	return newQuietClusterOn(clusterDomains, seed, nodesPerSite, nnCfg, jtCfg)
}

func newQuietClusterOn(domains []string, seed int64, nodesPerSite int, nnCfg hdfs.Config, jtCfg Config) *cluster {
	c := &cluster{
		eng:   sim.New(seed),
		state: make(map[netmodel.NodeID]nodeState),
	}
	c.net = netmodel.New(c.eng, netmodel.Config{})
	c.dt = disk.NewTracker()
	c.nn = hdfs.NewNamenode(c.eng, c.net, c.dt, nnCfg)
	c.jt = NewJobTracker(c.eng, c.net, c.nn, c.dt, jtCfg)
	c.jt.DiskUsable = func(n netmodel.NodeID) bool { return c.state[n] == healthy }
	c.jt.DataServable = func(n netmodel.NodeID) bool { return c.state[n] == healthy }
	for _, dom := range domains {
		sid := c.net.AddSite(dom, 300e6, 300e6)
		for i := 0; i < nodesPerSite; i++ {
			host := fmt.Sprintf("wn%d.%s", i, dom)
			id := c.net.AddNode(sid, host)
			c.dt.SetCapacity(id, 40e9)
			c.nn.Register(id, host)
			c.jt.RegisterTracker(id, host, topology.SiteFromHostname(host), 1, 1)
			c.nodes = append(c.nodes, id)
			c.state[id] = healthy
		}
	}
	c.nn.Start()
	c.jt.Start()
	return c
}

func (c *cluster) kill(id netmodel.NodeID) {
	c.state[id] = dead
	c.dt.Clear(id)
	c.jt.NodeCrashed(id)
}

func (c *cluster) makeZombie(id netmodel.NodeID) {
	c.state[id] = zombie
	c.dt.Clear(id)
	c.jt.NodeLostWorkdir(id)
}

// runUntilDone drives the simulation until all jobs finish or the bound hits.
func (c *cluster) runUntilDone(t *testing.T, bound sim.Time) {
	t.Helper()
	c.eng.RunWhile(func() bool { return !c.jt.AllDone() && c.eng.Now() < bound })
	if !c.jt.AllDone() {
		for _, j := range c.jt.Jobs() {
			t.Logf("%v: maps %d/%d reduces %d/%d", j, j.completedMaps, len(j.maps), j.completedReduces, len(j.reduces))
		}
		t.Fatalf("jobs not done by %v", bound)
	}
}

func smallJob(c *cluster, name string, blocks, reduces int) JobConfig {
	c.nn.SeedFile("/in/"+name, float64(blocks)*hdfs.DefaultBlockSize, 0)
	return JobConfig{Name: name, InputFile: "/in/" + name, Reduces: reduces}
}

func hogNNCfg() hdfs.Config {
	cfg := hdfs.HOGConfig()
	cfg.Replication = 3 // keep small tests fast
	return cfg
}

func hogJTCfg() Config {
	cfg := DefaultConfig()
	cfg.TrackerTimeout = 30 * sim.Second
	return cfg
}

func TestSingleJobCompletes(t *testing.T) {
	c := newCluster(1, 4, hogNNCfg(), hogJTCfg())
	j := c.jt.Submit(smallJob(c, "j1", 6, 2))
	c.runUntilDone(t, 4*sim.Hour)
	if j.State != JobSucceeded {
		t.Fatalf("job state = %v (%s)", j.State, j.FailReason())
	}
	if j.ResponseTime() <= 0 {
		t.Fatal("non-positive response time")
	}
	if j.StartTime < j.SubmitTime || j.FinishTime < j.StartTime {
		t.Fatal("timestamps out of order")
	}
	ctr := j.Counters()
	if ctr.MapAttemptsStarted < 6 || ctr.ReduceAttemptsStarted < 2 {
		t.Fatalf("attempts %d/%d, want >= 6/2", ctr.MapAttemptsStarted, ctr.ReduceAttemptsStarted)
	}
	// Outputs exist with the right replication.
	for i := 0; i < 2; i++ {
		found := false
		for a := int64(0); a < 50 && !found; a++ {
			if c.nn.File(fmt.Sprintf("out/j1/part-%05d-a%d", i, a)) != nil {
				found = true
			}
		}
		if !found {
			t.Fatalf("no output file for partition %d", i)
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	c := newCluster(2, 3, hogNNCfg(), hogJTCfg())
	j := c.jt.Submit(smallJob(c, "maponly", 5, 0))
	c.runUntilDone(t, sim.Hour)
	if j.State != JobSucceeded {
		t.Fatalf("map-only job state = %v", j.State)
	}
	if j.Counters().ReduceAttemptsStarted != 0 {
		t.Fatal("map-only job started reduces")
	}
}

func TestFIFOOrdering(t *testing.T) {
	c := newCluster(3, 2, hogNNCfg(), hogJTCfg())
	j1 := c.jt.Submit(smallJob(c, "first", 8, 2))
	j2 := c.jt.Submit(smallJob(c, "second", 8, 2))
	c.runUntilDone(t, 4*sim.Hour)
	if !(j1.FinishTime <= j2.FinishTime) {
		t.Fatalf("FIFO violated: first %v, second %v", j1.FinishTime, j2.FinishTime)
	}
}

func TestMapLocalityPreferred(t *testing.T) {
	c := newCluster(4, 4, hogNNCfg(), hogJTCfg())
	j := c.jt.Submit(smallJob(c, "local", 10, 1))
	c.runUntilDone(t, 4*sim.Hour)
	loc := j.Counters().Locality
	if loc[NodeLocal] == 0 {
		t.Fatalf("no node-local maps at all: %v", loc)
	}
	if loc[NodeLocal] < loc[Remote] {
		t.Fatalf("remote maps (%d) outnumber node-local (%d) on an idle cluster", loc[Remote], loc[NodeLocal])
	}
}

func TestNodeDeathRecovery(t *testing.T) {
	c := newCluster(5, 4, hogNNCfg(), hogJTCfg())
	j := c.jt.Submit(smallJob(c, "death", 12, 3))
	// Kill two nodes shortly after work starts.
	c.eng.After(40*sim.Second, func() {
		c.kill(c.nodes[0])
		c.kill(c.nodes[5])
	})
	c.runUntilDone(t, 6*sim.Hour)
	if j.State != JobSucceeded {
		t.Fatalf("job did not survive node deaths: %v (%s)", j.State, j.FailReason())
	}
	if tr := c.jt.Tracker(c.nodes[0]); tr.Alive {
		t.Fatal("dead tracker still alive after timeout")
	}
}

// TestTrackerLookupSparseIDs registers trackers at sparse IDs: a lookup of
// an ID never registered, in a gap or past the end of the table, returns nil
// without panicking, as do the calls that take a node ID, and the census and
// the tracker walks see registered trackers only.
func TestTrackerLookupSparseIDs(t *testing.T) {
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	dt := disk.NewTracker()
	nn := hdfs.NewNamenode(eng, net, dt, hdfs.DefaultConfig())
	jt := NewJobTracker(eng, net, nn, dt, DefaultConfig())
	jt.RegisterTracker(7, "wn7.ucsd.edu", "ucsd.edu", 1, 1)
	jt.RegisterTracker(3, "wn3.fnal.gov", "fnal.gov", 1, 1)
	for _, id := range []netmodel.NodeID{-1, 0, 5, 8, 1 << 20} {
		if tr := jt.Tracker(id); tr != nil {
			t.Fatalf("Tracker(%d) = %+v for an unregistered ID", id, tr)
		}
		jt.NodeCrashed(id)
		jt.NodeLostWorkdir(id)
		jt.ForceTrackerDead(id)
		if jt.ReviveTracker(id) {
			t.Fatalf("ReviveTracker(%d) revived an unregistered ID", id)
		}
	}
	var order []netmodel.NodeID
	jt.ForEachTracker(func(tr *TaskTracker) { order = append(order, tr.Node) })
	if len(order) != 2 || order[0] != 3 || order[1] != 7 {
		t.Fatalf("ForEachTracker visited %v, want [3 7]", order)
	}
	if c := jt.Census(); c.Trackers != 2 || c.AliveTrackers != 2 {
		t.Fatalf("census counts %d trackers, %d alive; want 2, 2", c.Trackers, c.AliveTrackers)
	}
}

func TestCompletedMapOutputLossReExecutes(t *testing.T) {
	c := newCluster(6, 4, hogNNCfg(), hogJTCfg())
	// Large-ish maps and slow reduces ensure maps complete well before
	// shuffle drains, so killing a map host loses completed output.
	cfg := smallJob(c, "reexec", 10, 2)
	cfg.ReduceCostPerMB = 2 * sim.Second
	j := c.jt.Submit(cfg)
	var killed bool
	c.eng.Every(5*sim.Second, func() {
		if killed || j.completedMaps == 0 {
			return
		}
		for _, m := range j.maps {
			if m.done && c.state[m.outputNode] == healthy {
				c.kill(m.outputNode)
				killed = true
				return
			}
		}
	})
	c.runUntilDone(t, 8*sim.Hour)
	if !killed {
		t.Fatal("never killed a map output host")
	}
	if j.State != JobSucceeded {
		t.Fatalf("job state = %v (%s)", j.State, j.FailReason())
	}
	if j.Counters().MapsReExecuted == 0 {
		t.Fatal("no maps re-executed after output loss")
	}
}

func TestZombieTrackerFailsFastAndBlacklisted(t *testing.T) {
	c := newCluster(7, 3, hogNNCfg(), hogJTCfg())
	j := c.jt.Submit(smallJob(c, "zombie", 10, 2))
	c.eng.After(10*sim.Second, func() { c.makeZombie(c.nodes[0]) })
	c.runUntilDone(t, 6*sim.Hour)
	if j.State != JobSucceeded {
		t.Fatalf("job state = %v (%s)", j.State, j.FailReason())
	}
	// The zombie kept heartbeating, so the JobTracker assigned it work that
	// failed fast.
	if j.Counters().MapAttemptsFailed == 0 && j.Counters().ReduceAttemptsFailed == 0 {
		t.Fatal("zombie absorbed no attempts — model not exercising §IV.D.1")
	}
	if tr := c.jt.Tracker(c.nodes[0]); !tr.Alive {
		t.Fatal("zombie tracker should still look alive to the JobTracker")
	}
}

func TestDiskOverflowKillsWorker(t *testing.T) {
	c := newCluster(8, 3, hogNNCfg(), hogJTCfg())
	// Shrink every disk so intermediate output can't fit comfortably.
	for _, id := range c.nodes {
		c.dt.SetCapacity(id, 450e6)
	}
	overflowed := map[netmodel.NodeID]bool{}
	c.jt.OnDiskOverflow = func(n netmodel.NodeID) {
		if !overflowed[n] {
			overflowed[n] = true
			c.kill(n) // HOG: the daemons shut themselves down
		}
	}
	// 3 jobs x 6 blocks with identity map selectivity overflows 450 MB
	// nodes (each holds ~2 input replicas already).
	var jobs []*Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, c.jt.Submit(smallJob(c, fmt.Sprintf("ovf%d", i), 6, 1)))
	}
	c.eng.RunWhile(func() bool { return !c.jt.AllDone() && c.eng.Now() < 6*sim.Hour })
	if len(overflowed) == 0 {
		t.Fatal("no disk overflow on deliberately tiny disks")
	}
	_ = jobs
}

func TestLostInputFailsJob(t *testing.T) {
	cfgNN := hogNNCfg()
	cfgNN.Replication = 2
	c := newCluster(9, 2, cfgNN, hogJTCfg())
	cfg := smallJob(c, "lost", 4, 1)
	// Destroy all replicas of the input before submitting.
	fi := c.nn.File("/in/lost")
	for _, bid := range fi.Blocks {
		for _, rep := range slices.Clone(c.nn.Block(bid).Replicas()) { // ForceDead edits the set
			c.kill(rep)
			c.nn.ForceDead(rep)
			c.jt.ForceTrackerDead(rep)
		}
	}
	j := c.jt.Submit(cfg)
	c.eng.RunWhile(func() bool { return !c.jt.AllDone() && c.eng.Now() < 2*sim.Hour })
	if j.State != JobFailed {
		t.Fatalf("job state = %v, want failed (input lost)", j.State)
	}
	if j.FailReason() == "" {
		t.Fatal("failed job has no reason")
	}
}

// TestTaskExhaustionFailsJob: when one task burns through MaxTaskAttempts
// with every other task already done, the job must transition to JobFailed —
// not leave the scheduler silently hanging with an unschedulable task.
func TestTaskExhaustionFailsJob(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.MaxTaskAttempts = 3
	jtCfg.Speculative = false
	c := newCluster(21, 1, hogNNCfg(), jtCfg) // 5 nodes, 1 map slot each
	j := c.jt.Submit(smallJob(c, "exhaust", 6, 0))
	zombified := false
	c.eng.Every(2*sim.Second, func() {
		// Once the first wave of maps is done, turn every node into a
		// zombie: the remaining task's attempts fail fast on each node it
		// is retried on until its budget is exhausted.
		if zombified || j.CompletedMaps() < 5 {
			return
		}
		zombified = true
		for _, id := range c.nodes {
			if c.state[id] == healthy {
				c.makeZombie(id)
			}
		}
	})
	c.eng.RunWhile(func() bool { return !c.jt.AllDone() && c.eng.Now() < 2*sim.Hour })
	if !zombified {
		t.Fatal("never reached the 5-maps-done trigger")
	}
	if !c.jt.AllDone() {
		t.Fatalf("scheduler hung: job still %v with %d/%d maps after task exhaustion",
			j.State, j.CompletedMaps(), j.NumMaps())
	}
	if j.State != JobFailed {
		t.Fatalf("job state = %v, want failed after a task exhausted %d attempts", j.State, jtCfg.MaxTaskAttempts)
	}
	if j.FailReason() == "" {
		t.Fatal("exhausted job has no failure reason")
	}
}

func TestEagerRedundancyRunsCopies(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.EagerRedundancy = true
	jtCfg.MaxTaskCopies = 2
	c := newCluster(10, 4, hogNNCfg(), jtCfg)
	j := c.jt.Submit(smallJob(c, "eager", 4, 1))
	c.runUntilDone(t, 2*sim.Hour)
	ctr := j.Counters()
	if ctr.SpeculativeMaps == 0 {
		t.Fatal("eager redundancy launched no extra copies")
	}
	if j.completedMaps != 4 {
		t.Fatalf("completedMaps = %d, want 4 (copies must not double-complete)", j.completedMaps)
	}
}

func TestStragglerCriterion(t *testing.T) {
	c := newCluster(11, 2, hogNNCfg(), hogJTCfg())
	j := c.jt.Submit(smallJob(c, "strag", 2, 1))
	// White-box: with two completed maps of 10 s average, a task running
	// since t-60 s is a straggler (60 > 1.33*10), but one started 5 s ago
	// is not, and nothing is a straggler below the minimum runtime. The
	// duration aggregates are kept in step by hand, as mapDone would.
	for _, m := range j.maps[:2] {
		m.done = true
		m.duration = 10 * sim.Second
		j.doneMapDur += m.duration
		j.doneMapN++
	}
	c.eng.RunUntil(100 * sim.Second)
	now := c.eng.Now()
	tr := c.jt.Tracker(c.nodes[0])
	if !c.jt.spec.IsStraggler(c.jt, j, KindMap, tr, now-60*sim.Second) {
		t.Fatal("60s-old task not flagged with 10s average")
	}
	if c.jt.spec.IsStraggler(c.jt, j, KindMap, tr, now-5*sim.Second) {
		t.Fatal("5s-old task flagged despite min runtime guard")
	}
	if c.jt.spec.IsStraggler(c.jt, j, KindMap, tr, -1) {
		t.Fatal("idle task flagged")
	}
}

func TestSpeculativeDisabled(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.Speculative = false
	c := newCluster(12, 3, hogNNCfg(), jtCfg)
	j := c.jt.Submit(smallJob(c, "nospec", 6, 2))
	c.runUntilDone(t, 2*sim.Hour)
	ctr := j.Counters()
	if ctr.SpeculativeMaps != 0 || ctr.SpeculativeReduces != 0 {
		t.Fatalf("speculation happened while disabled: %+v", ctr)
	}
}

func TestSubmitUnknownInputPanics(t *testing.T) {
	c := newCluster(13, 1, hogNNCfg(), hogJTCfg())
	defer func() {
		if recover() == nil {
			t.Error("Submit with unknown input did not panic")
		}
	}()
	c.jt.Submit(JobConfig{Name: "x", InputFile: "/nope", Reduces: 1})
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() sim.Time {
		c := newCluster(99, 3, hogNNCfg(), hogJTCfg())
		j1 := c.jt.Submit(smallJob(c, "d1", 5, 2))
		c.eng.After(20*sim.Second, func() { c.kill(c.nodes[2]) })
		c.runUntilDone(t, 4*sim.Hour)
		return j1.FinishTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic makespan: %v vs %v", a, b)
	}
}

func TestJobStateString(t *testing.T) {
	want := map[JobState]string{
		JobPending: "pending", JobRunning: "running",
		JobSucceeded: "succeeded", JobFailed: "failed", JobState(9): "unknown",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("JobState(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
	lvls := map[LocalityLevel]string{NodeLocal: "node-local", SiteLocal: "site-local", Remote: "remote", LocalityLevel(9): "unknown"}
	for l, w := range lvls {
		if l.String() != w {
			t.Errorf("LocalityLevel(%d) = %q, want %q", l, l.String(), w)
		}
	}
}

// Property: jobs with any small map/reduce shape complete successfully on a
// healthy cluster, and disk usage returns to the seeded baseline after all
// intermediate data is released.
func TestJobShapesProperty(t *testing.T) {
	f := func(mRaw, rRaw uint8) bool {
		maps := int(mRaw)%6 + 1
		reduces := int(rRaw)%4 + 1
		c := newCluster(int64(mRaw)*7+int64(rRaw)+1, 3, hogNNCfg(), hogJTCfg())
		baseline := totalUsed(c)
		cfg := smallJob(c, "p", maps, reduces)
		inputBytes := float64(maps) * hdfs.DefaultBlockSize * 3 // replication 3
		j := c.jt.Submit(cfg)
		c.eng.RunWhile(func() bool { return !c.jt.AllDone() && c.eng.Now() < 6*sim.Hour })
		if j.State != JobSucceeded {
			return false
		}
		// After completion: input + output remain, intermediate gone.
		var outBytes float64
		for i := 0; i < reduces; i++ {
			for a := int64(0); a < 100; a++ {
				if fi := c.nn.File(fmt.Sprintf("out/p/part-%05d-a%d", i, a)); fi != nil {
					outBytes += fi.Size * float64(fi.Replication)
				}
			}
		}
		used := totalUsed(c)
		_ = baseline
		slack := 1e6 // pipeline rounding
		return used <= inputBytes+outBytes+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func totalUsed(c *cluster) float64 {
	var sum float64
	for _, id := range c.nodes {
		sum += c.dt.Used(id)
	}
	return sum
}

// TestLostWorkdirFailsAttemptsInSeqOrder launches three maps of three
// one-map jobs on one tracker, out of job order, and removes the tracker's
// working directory. Each failure exhausts its task's one-attempt budget
// and fails its job, so the JobFinished events show the order the tracker's
// attempts were failed in: launch (seq) order, not job order.
func TestLostWorkdirFailsAttemptsInSeqOrder(t *testing.T) {
	jtCfg := hogJTCfg()
	jtCfg.MaxTaskAttempts = 1
	c := newQuietCluster(1, 1, hogNNCfg(), jtCfg)
	var finished []JobID
	c.jt.Events = &event.Bus{}
	c.jt.Events.Subscribe(event.ObserverFunc(func(ev event.Event) {
		if ev.Type == event.JobFinished {
			finished = append(finished, JobID(ev.Job))
		}
	}))
	var jobs []*Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, c.jt.Submit(smallJob(c, fmt.Sprintf("j%d", i), 1, 0)))
	}
	node := c.nodes[0]
	tr := c.jt.Tracker(node)
	var want []JobID
	for _, i := range []int{2, 0, 1} {
		j := jobs[i]
		c.jt.launchMap(j, j.maps[0], tr, c.jt.localityOf(tr, j.maps[0]), false)
		want = append(want, j.ID)
	}
	c.makeZombie(node)
	if !slices.Equal(finished, want) {
		t.Fatalf("jobs finished in order %v, want the attempts' launch order %v", finished, want)
	}
	for _, j := range jobs {
		if j.State != JobFailed {
			t.Fatalf("job %d is %v, want failed", j.ID, j.State)
		}
	}
}
