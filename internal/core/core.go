// Package core assembles HOG — Hadoop On the Grid — from its substrates: the
// glide-in pool (internal/grid), HDFS with site awareness (internal/hdfs),
// and MapReduce (internal/mapred) over the fluid network model
// (internal/netmodel). It owns the worker-node lifecycle the paper describes
// in §III: daemons start when a glide-in begins, report to the stable
// central masters, and disappear — cleanly or as zombies — when the site
// preempts the job. It also builds the dedicated comparison cluster of
// Table III.
package core

import (
	"fmt"

	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/metrics"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/workload"
)

// ZombieMode selects how preempted worker daemons behave (§IV.D.1).
type ZombieMode int

// Zombie handling modes.
const (
	// ZombieFixed is HOG's final behaviour: daemons run as direct children
	// of the wrapper script, so the site's kill of the process tree takes
	// them down immediately.
	ZombieFixed ZombieMode = iota
	// ZombieUnfixed reproduces the first HOG iteration: double-forked
	// daemons survive the kill. The site deletes the working directory, the
	// datanode fails, but the tasktracker keeps heartbeating and accepting
	// tasks that fail immediately.
	ZombieUnfixed
	// ZombieDiskCheck is the paper's first fix: double-forked daemons
	// periodically probe the working directory (every 3 minutes) and shut
	// themselves down when it is gone.
	ZombieDiskCheck
)

// String names the mode.
func (z ZombieMode) String() string {
	switch z {
	case ZombieFixed:
		return "fixed"
	case ZombieUnfixed:
		return "unfixed"
	case ZombieDiskCheck:
		return "disk-check"
	}
	return "unknown"
}

// JobCosts holds the loadgen-like cost model shared by all benchmark jobs.
type JobCosts struct {
	MapCostPerMB      sim.Time
	SortCostPerMB     sim.Time
	ReduceCostPerMB   sim.Time
	MapSelectivity    float64
	ReduceSelectivity float64
}

// DefaultJobCosts returns the calibrated cost model.
// Calibration target: the Table III cluster finishes the 88-job Facebook
// schedule in the paper's observed ~3000 s band, with the map phase
// dominating — the paper's equivalence point of ~100 single-slot HOG nodes
// against the cluster's 100 map slots requires map-side work to be the
// bottleneck resource.
func DefaultJobCosts() JobCosts {
	return JobCosts{
		MapCostPerMB:      1500 * sim.Millisecond,
		SortCostPerMB:     20 * sim.Millisecond,
		ReduceCostPerMB:   150 * sim.Millisecond,
		MapSelectivity:    1.0,
		ReduceSelectivity: 0.5,
	}
}

// StaticGroup describes one homogeneous group of permanent cluster nodes
// (used for the Table III dedicated cluster).
type StaticGroup struct {
	Count       int
	MapSlots    int
	ReduceSlots int
	DiskBytes   float64
	Domain      string
	// Speed derates compute on this group (1.0 = nominal); Table III's
	// older single-core Opteron-64 slaves run slot-for-slot slower than
	// the dual-core Opteron-275 group.
	Speed float64
}

// Config describes a complete system. Exactly one of Grid or Static drives
// the worker supply.
type Config struct {
	Seed int64

	// Grid configures an elastic glide-in worker pool.
	Grid *GridConfig
	// Static configures a fixed dedicated cluster.
	Static []StaticGroup

	Net netmodel.Config
	// HDFS and MapRed configure the masters, including the pluggable
	// policies they run, by registry name (HDFS.PlacementPolicy,
	// HDFS.ReplicationOrder, MapRed.SchedulerPolicy,
	// MapRed.SpeculationPolicy). Validate checks each name; the empty name
	// keeps that decision point's default.
	HDFS   hdfs.Config
	MapRed mapred.Config
	Costs  JobCosts

	// Zombie selects preemption daemon behaviour (grid systems only).
	Zombie ZombieMode
	// DiskCheckInterval is the zombie self-check period (ZombieDiskCheck).
	DiskCheckInterval sim.Time
	// SampleInterval for the reported-alive node series.
	SampleInterval sim.Time
	// RunBound aborts a workload run that exceeds this simulated time.
	RunBound sim.Time

	// MasterBackoffInitial is a worker's first retry delay after its
	// heartbeat to a crashed master goes unanswered; successive failed
	// retries double it (plus seeded jitter) up to MasterBackoffMax.
	// Defaults to the heartbeat interval.
	MasterBackoffInitial sim.Time
	// MasterBackoffMax caps the retry backoff. The default (15 s) is
	// deliberately below the masters' 30 s dead timeouts so a worker always
	// re-registers before a recovered master could declare it dead.
	MasterBackoffMax sim.Time
	// MasterRetryTotal caps the TOTAL time a worker keeps retrying an
	// unresponsive master before its daemons give up for good (a real
	// daemon's ipc.client.connect retry budget). Capping only the
	// per-attempt delay (MasterBackoffMax) would retry forever; this bounds
	// the whole campaign. Giving up emits MasterGiveUp and the worker never
	// reconnects. The default (30 min) is far above every scripted outage in
	// the benchmark suite, so it never fires unless a scenario asks for it.
	MasterRetryTotal sim.Time
}

// GridConfig holds the grid-specific parts of a Config.
type GridConfig struct {
	TargetNodes int
	Sites       []grid.SiteConfig
	Pool        grid.PoolConfig
	// ProvisionBound caps the wait for the pool to first reach its target.
	ProvisionBound sim.Time
}

// HOGConfig returns the paper's HOG configuration at the given pool size and
// churn profile: five OSG sites, 1+1 slots per node, replication 10,
// site-aware placement, 30 s dead timeouts for both masters.
func HOGConfig(targetNodes int, churn grid.ChurnProfile, seed int64) Config {
	mr := mapred.DefaultConfig()
	mr.TrackerTimeout = 30 * sim.Second
	// WAN RPC between trackers and the central JobTracker inflates task
	// startup (§III.B.2: "it is expected that the startup and data transfer
	// initiations will be increased").
	mr.TaskStartupOverhead = 2000 * sim.Millisecond
	return Config{
		Seed: seed,
		Grid: &GridConfig{
			TargetNodes:    targetNodes,
			Sites:          grid.OSGSites(churn),
			Pool:           grid.DefaultPoolConfig(),
			ProvisionBound: 4 * sim.Hour,
		},
		Net:               netmodel.DefaultConfig(),
		HDFS:              hdfs.HOGConfig(),
		MapRed:            mr,
		Costs:             DefaultJobCosts(),
		Zombie:            ZombieFixed,
		DiskCheckInterval: 3 * sim.Minute,
		SampleInterval:    10 * sim.Second,
		RunBound:          48 * sim.Hour,
	}
}

// LargeGridConfig returns the HOG configuration on the twelve-site
// LargeGridSites preset, for scale-out runs around 1000 nodes (the ROADMAP's
// beyond-the-paper scenarios). Everything except the site list matches
// HOGConfig; the provisioning bound is widened because filling a
// thousand-slot pool takes longer than filling 180 slots.
func LargeGridConfig(targetNodes int, churn grid.ChurnProfile, seed int64) Config {
	c := HOGConfig(targetNodes, churn, seed)
	c.Grid.Sites = grid.LargeGridSites(churn)
	c.Grid.ProvisionBound = 8 * sim.Hour
	return c
}

// MegaGridConfig returns the HOG configuration on the forty-site
// MegaGridSites preset, for runs around 10,000 nodes — the MEGA-GRID scale
// at which the timing-wheel engine's advantage over the binary heap is the
// headline number. Everything except the site list matches HOGConfig; the
// provisioning bound is widened further than LARGE-GRID's because filling
// ten thousand slots takes correspondingly longer.
func MegaGridConfig(targetNodes int, churn grid.ChurnProfile, seed int64) Config {
	c := HOGConfig(targetNodes, churn, seed)
	c.Grid.Sites = grid.MegaGridSites(churn)
	c.Grid.ProvisionBound = 12 * sim.Hour
	return c
}

// GigaGridConfig returns the HOG configuration on the ~104-site
// GigaGridSites preset, for runs around 100,000 nodes — the GIGA-GRID
// scale point (hogbench -exp giga). Everything except the site list
// matches HOGConfig; the provisioning bound is widened again because
// filling a hundred thousand slots takes correspondingly longer.
func GigaGridConfig(targetNodes int, churn grid.ChurnProfile, seed int64) Config {
	c := HOGConfig(targetNodes, churn, seed)
	c.Grid.Sites = grid.GigaGridSites(churn)
	c.Grid.ProvisionBound = 16 * sim.Hour
	return c
}

// DedicatedClusterConfig returns the Table III comparison cluster: one
// master (implicit, the stable server), 20 slave nodes with 4 map + 1 reduce
// slots and 10 with 2 map + 1 reduce slots, 1 Gbps Ethernet, one rack,
// stock Hadoop settings (replication 3).
func DedicatedClusterConfig(seed int64) Config {
	// Hardware-era calibration: the Table III boxes are 2006-generation
	// Opterons with commodity disks, whereas 2012 OSG worker nodes are
	// newer. The cluster gets slightly slower disks, and the older
	// single-core Opteron-64 group a per-slot compute derating — the two
	// free parameters of the Figure 4 calibration (hogbench -exp fig4).
	net := netmodel.DefaultConfig()
	net.DiskBps = 80e6
	return Config{
		Seed: seed,
		Static: []StaticGroup{
			{Count: 20, MapSlots: 4, ReduceSlots: 1, DiskBytes: 500e9, Domain: "cluster.local", Speed: 1.0},
			{Count: 10, MapSlots: 2, ReduceSlots: 1, DiskBytes: 500e9, Domain: "cluster.local", Speed: 0.85},
		},
		Net:            net,
		HDFS:           hdfs.DefaultConfig(),
		MapRed:         mapred.DefaultConfig(),
		Costs:          DefaultJobCosts(),
		SampleInterval: 10 * sim.Second,
		RunBound:       48 * sim.Hour,
	}
}

type workerHealth uint8

const (
	workerHealthy workerHealth = iota
	workerZombie
	workerDead
)

type worker struct {
	id netmodel.NodeID
	// dn and tr are the worker's master-side records, held directly so the
	// per-beat driver loop doesn't pay a map probe per worker per master.
	dn *hdfs.DatanodeInfo
	tr *mapred.TaskTracker

	health workerHealth
	// exc marks a worker outside the steady state (heartbeat.go): it sits on
	// the exception list, or is dead with its master records quiesced and no
	// longer needs visiting.
	exc bool

	// nn and jt are the worker's links to the namenode and the JobTracker.
	nn, jt masterLink

	// Gray-degradation state (faults.go). grayLoss is the probability each
	// heartbeat beat is dropped, drawn from the dedicated counting "gray"
	// stream — zero fault-free, so fault-free runs make zero draws there.
	// origSpeed remembers the tracker's nominal speed across a slow-disk
	// derating so RestoreNodes can undo it exactly.
	grayLoss  float64
	origSpeed float64
}

// System is a running HOG or dedicated-cluster instance.
type System struct {
	Eng  *sim.Engine
	Net  *netmodel.Network
	Disk *disk.Tracker
	Pool *grid.Pool // nil for static clusters
	NN   *hdfs.Namenode
	JT   *mapred.JobTracker

	cfg Config
	// workers holds every worker that ever joined, indexed by node ID with
	// no gaps: each joins as netmodel.AddNode issues its ID. workerList is
	// the subsequence the heartbeat tick walks: every worker that is not
	// dead, plus the dead ones the tick has not visited since they died.
	workers        []*worker
	workerList     []*worker
	bus            *event.Bus
	scenarios      []ScenarioSpec // as admitted by Apply
	scenariosArmed bool
	// timedKeys maps each target an admitted timed step acts on, at its
	// instant on the workload-start timeline, to that step, so a later
	// scenario or divergence scheduling a conflicting action on the same
	// target at the same instant is rejected.
	timedKeys map[conflictKey]StepSpec

	// Fault-injection bookkeeping (faults.go): which sites and nodes carry
	// an installed partition (name/ID -> cut mode), which nodes are under
	// gray degradation, and the dedicated counting RNG stream gray
	// heartbeat-loss draws come from (always constructed, drawn from only
	// under injected gray loss; see RNGStreams).
	partedSites map[string]string
	partedNodes map[netmodel.NodeID]string
	degraded    map[netmodel.NodeID]struct{}
	gray        *grayStream

	// Run-phase state for the snapshot subsystem: where the system is in its
	// lifecycle, and the schedule/anchor the in-flight run was started with
	// (valid once phase reaches PhaseStarted).
	phase    RunPhase
	runStart sim.Time
	runSched *workload.Schedule
	// diverged marks a system that had a divergence scenario armed after the
	// workload started (a what-if fork branch). Such a system can no longer
	// be snapshotted: its event history is not reproducible from config +
	// applied scenarios alone.
	diverged bool

	// Reported tracks the node count the masters believe alive; it can
	// exceed the target momentarily because departed nodes linger until
	// their heartbeat timeout (paper §IV.B).
	Reported *metrics.Series

	zombies int

	// Lazy heartbeat driver state (heartbeat.go).
	lazy      bool
	heartbeat func()
	exc       []*worker
	excNew    []*worker
	walking   bool
	work      Work
}

// New builds a system from cfg, panicking on an invalid configuration, for
// callers whose configs are fixed presets. NewSystem is the error-returning
// constructor; both run the same Validate.
func New(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// NewSystem builds a system from cfg, returning a descriptive error when the
// configuration is invalid. Observers passed here are subscribed before any
// subsystem is built, so they see the full event stream from the first
// static-node join onward. For grid systems the pool target is set but
// provisioning has not run yet; call AwaitNodes or RunWorkload.
func NewSystem(cfg Config, obs ...event.Observer) (*System, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 10 * sim.Second
	}
	if cfg.RunBound <= 0 {
		cfg.RunBound = 48 * sim.Hour
	}
	if cfg.DiskCheckInterval <= 0 {
		cfg.DiskCheckInterval = 3 * sim.Minute
	}
	if cfg.Costs == (JobCosts{}) {
		cfg.Costs = DefaultJobCosts()
	}
	if cfg.MasterBackoffMax <= 0 {
		cfg.MasterBackoffMax = 15 * sim.Second
	}
	if cfg.MasterRetryTotal <= 0 {
		cfg.MasterRetryTotal = 30 * sim.Minute
	}
	s := &System{
		Eng:      sim.New(cfg.Seed),
		cfg:      cfg,
		bus:      &event.Bus{},
		Reported: metrics.NewSeries("reported-nodes"),
		gray:     newGrayStream(cfg.Seed),
	}
	for _, o := range obs {
		s.bus.Subscribe(o)
	}
	s.Net = netmodel.New(s.Eng, cfg.Net)
	s.Disk = disk.NewTracker()
	s.NN = hdfs.NewNamenode(s.Eng, s.Net, s.Disk, cfg.HDFS)
	s.NN.Events = s.bus
	s.JT = mapred.NewJobTracker(s.Eng, s.Net, s.NN, s.Disk, cfg.MapRed)
	s.JT.Events = s.bus
	healthy := func(n netmodel.NodeID) bool {
		w := netmodel.Lookup(s.workers, n)
		return w != nil && w.health == workerHealthy
	}
	s.JT.DiskUsable, s.JT.DataServable = healthy, healthy
	s.JT.OnDiskOverflow = s.onDiskOverflow
	s.NN.Start()
	s.JT.Start()

	if cfg.Grid != nil {
		s.Pool = grid.NewPool(s.Eng, s.Net, cfg.Grid.Sites, cfg.Grid.Pool)
		s.Pool.Events = s.bus
		s.Pool.OnJoin = s.onJoin
		s.Pool.OnPreempt = s.onPreempt
	} else {
		s.buildStatic()
	}

	// Heartbeat driver (tick): healthy workers report to both masters,
	// zombies only to the JobTracker (their datanode died with the working
	// dir). Master-crash handling rides the same beats: a worker whose master
	// is down flips to backed-off retries (retry) and re-registers
	// on recovery. With no master faults this draws zero RNG.
	hb := s.JT.Config().HeartbeatInterval
	if s.cfg.MasterBackoffInitial <= 0 {
		s.cfg.MasterBackoffInitial = hb
	}
	// A steady record is at most one interval old when a dead scan reads
	// it, so it can never expire unless a timeout is shorter than the
	// interval; such a system keeps every worker exceptional instead.
	s.lazy = s.NN.Config().DeadTimeout >= hb && s.JT.Config().TrackerTimeout >= hb
	s.heartbeat = s.tick
	s.Eng.Every(hb, func() { s.heartbeat() })
	s.Eng.Every(cfg.SampleInterval, func() {
		s.Reported.Add(s.Eng.Now(), float64(s.JT.AliveTrackerCount()))
	})
	return s, nil
}

// Subscribe attaches an observer to the system's event bus. Observers added
// here see every event from this point on; to also capture construction-time
// events (static-node joins) pass the observer to NewSystem instead.
// Observers receive facts synchronously and must not mutate the simulation:
// the same seed yields the same event sequence with zero or any number of
// observers attached.
func (s *System) Subscribe(o event.Observer) { s.bus.Subscribe(o) }

// Zombies returns the number of currently zombie workers.
func (s *System) Zombies() int { return s.zombies }

// jitter spreads a retry delay over [d, 1.5d] so a restarted master is not
// hit by every worker on the same beat. Drawn from the engine RNG, but only
// ever on fault paths — fault-free runs consume no randomness here.
func (s *System) jitter(d sim.Time) sim.Time {
	return d + sim.Time(s.Eng.Rand().Int63n(int64(d)/2+1))
}

// masterLink is a worker's connection state to one master. lost is set
// when a heartbeat to a crashed master goes unanswered; the worker then
// retries at retryAt with exponential backoff and re-registers when the
// master is back. lostSince anchors the total retry-duration cap
// (Config.MasterRetryTotal); once it is exceeded the worker sets gaveUp and
// stops retrying for good.
type masterLink struct {
	lost, gaveUp                bool
	retryAt, backoff, lostSince sim.Time
}

// retry drives one worker's backed-off reconnection over link l to a master
// that is down or was lost, and reports whether the master is back: the
// caller then re-registers the worker with it. Retries are quantized to
// heartbeat beats: the worker acts on the first beat at or after its
// scheduled retry instant. A campaign that has been failing for
// MasterRetryTotal gives up for good: the daemon exits its retry loop
// (MasterGiveUp) and never reconnects, even if the master later returns —
// the dead scan reaps it like any silent node.
func (s *System) retry(w *worker, l *masterLink, now sim.Time, down bool, master string) bool {
	if !l.lost {
		// Heartbeat went unanswered: note the loss, back off.
		l.lost = true
		l.lostSince = now
		l.backoff = s.cfg.MasterBackoffInitial
		l.retryAt = now + s.jitter(l.backoff)
		return false
	}
	if l.gaveUp || now < l.retryAt {
		return false
	}
	if down {
		if now-l.lostSince >= s.cfg.MasterRetryTotal {
			l.gaveUp = true
			s.emitGiveUp(w, master)
			return false
		}
		// Retry failed: double the backoff, up to the cap.
		l.backoff = min(2*l.backoff, s.cfg.MasterBackoffMax)
		l.retryAt = now + s.jitter(l.backoff)
		return false
	}
	l.lost = false
	l.backoff = 0
	return true
}

// emitGiveUp reports a worker abandoning its master-reconnect campaign.
func (s *System) emitGiveUp(w *worker, master string) {
	if s.bus.Active() {
		ev := event.At(event.MasterGiveUp, s.Eng.Now())
		ev.Node = w.id
		ev.Detail = master
		s.bus.Emit(ev)
	}
}

func (s *System) buildStatic() {
	site := s.Net.AddSite("cluster.local", 10e9, 10e9)
	seq := 0
	for _, g := range s.cfg.Static {
		for i := 0; i < g.Count; i++ {
			seq++
			host := fmt.Sprintf("node%03d.%s", seq, g.Domain)
			id := s.Net.AddNode(site, host)
			s.Disk.SetCapacity(id, g.DiskBytes)
			dn := s.NN.Register(id)
			tr := s.JT.RegisterTracker(id, g.MapSlots, g.ReduceSlots)
			if g.Speed > 0 {
				tr.Speed = g.Speed
			}
			s.addWorker(&worker{id: id, health: workerHealthy, dn: dn, tr: tr})
			if s.bus.Active() {
				ev := event.At(event.NodeJoined, s.Eng.Now())
				ev.Node = id
				ev.Site = "cluster.local"
				s.bus.Emit(ev)
			}
		}
	}
}

// onJoin starts the Hadoop daemons on a fresh glide-in.
func (s *System) onJoin(n *grid.Node) {
	s.Disk.SetCapacity(n.ID, n.DiskCapacity)
	dn := s.NN.Register(n.ID)
	tr := s.JT.RegisterTracker(n.ID, n.MapSlots, n.ReduceSlots)
	s.addWorker(&worker{id: n.ID, health: workerHealthy, dn: dn, tr: tr})
}

// addWorker records a freshly started worker. It is exceptional until the
// driver sees its first heartbeat.
func (s *System) addWorker(w *worker) {
	s.workers = netmodel.Store(s.workers, w.id, w)
	s.workerList = append(s.workerList, w)
	s.unsettle(w)
}

// onPreempt applies the configured daemon behaviour when a site kills the
// glide-in and removes its working directory.
func (s *System) onPreempt(n *grid.Node) {
	w := netmodel.Lookup(s.workers, n.ID)
	if w == nil || w.health == workerDead {
		return
	}
	s.Disk.Clear(n.ID)
	// The site reclaimed the machine: its disk contents are genuinely gone,
	// so a later partition heal must not "recover" replicas from it.
	s.NN.MarkPhysicallyLost(n.ID)
	switch s.cfg.Zombie {
	case ZombieFixed:
		// Direct-child daemons die with the process tree: tasks stop
		// silently and the JobTracker only notices at the heartbeat
		// timeout.
		w.health = workerDead
		s.unsettle(w)
		s.JT.NodeCrashed(n.ID)
	case ZombieUnfixed:
		// Double-forked daemons survive, the working directory does not:
		// running tasks fail with reports and the tasktracker keeps
		// accepting doomed work.
		w.health = workerZombie
		s.unsettle(w)
		s.zombies++
		s.emitZombie(n)
		s.JT.NodeLostWorkdir(n.ID)
	case ZombieDiskCheck:
		w.health = workerZombie
		s.unsettle(w)
		s.zombies++
		s.emitZombie(n)
		s.JT.NodeLostWorkdir(n.ID)
		// The periodic working-directory probe notices within one interval
		// and shuts the daemons down.
		delay := sim.Time(s.Eng.Rand().Int63n(int64(s.cfg.DiskCheckInterval))) + sim.Second
		s.Eng.After(delay, func() {
			if w.health == workerZombie {
				w.health = workerDead
				s.zombies--
			}
		})
	}
}

// emitZombie reports that a preemption left daemons behind without their
// working directory (§IV.D.1).
func (s *System) emitZombie(n *grid.Node) {
	if s.bus.Active() {
		ev := event.At(event.ZombieDetected, s.Eng.Now())
		ev.Node = n.ID
		ev.Site = s.Net.SiteName(s.Net.SiteOf(n.ID))
		s.bus.Emit(ev)
	}
}

// onDiskOverflow shuts down a worker that ran out of scratch space
// (§IV.D.2): the failure is reported to the jobtracker and the daemons stop,
// so the pool requests a replacement.
func (s *System) onDiskOverflow(n netmodel.NodeID) {
	w := netmodel.Lookup(s.workers, n)
	if w == nil || w.health == workerDead {
		return
	}
	if w.health == workerZombie {
		s.zombies--
	}
	w.health = workerDead
	s.unsettle(w)
	// An overflowed scratch disk takes the node's data down with the
	// daemons — nothing survives for a partition heal to hand back.
	s.NN.MarkPhysicallyLost(n)
	s.JT.NodeCrashed(n)
	if s.Pool != nil {
		s.Pool.Kill(n)
	}
}

// AwaitNodes runs the simulation until the pool reaches its configured
// target (grid systems). It returns the reached node count.
func (s *System) AwaitNodes() int {
	if s.Pool == nil {
		return len(s.workers)
	}
	g := s.cfg.Grid
	s.Pool.SetTarget(g.TargetNodes)
	bound := s.Eng.Now() + g.ProvisionBound
	s.Eng.RunWhile(func() bool {
		return s.Pool.AliveCount() < g.TargetNodes && s.Eng.Now() < bound
	})
	return s.Pool.AliveCount()
}

// Result aggregates one workload execution.
type Result struct {
	// ResponseTime is the paper's headline metric: completion of the last
	// job minus submission of the first.
	ResponseTime sim.Time
	Start, End   sim.Time

	JobResponses []sim.Time
	JobBins      []int
	JobsFailed   int

	// Area is the Table IV statistic: node-seconds of reported availability
	// over the execution window.
	Area     float64
	Reported *metrics.Series

	Pool grid.Stats
	Net  netmodel.Stats
	NN   hdfs.Stats

	// MapLocality aggregates locality counters over all jobs.
	MapLocality [3]int
	// Counters aggregated over all jobs.
	Counters mapred.Counters

	// TaskSeconds sums completed map and reduce execution time over all
	// jobs — the useful-work numerator of the harness's slot-utilisation
	// metric (Area supplies the available node-seconds denominator).
	TaskSeconds float64
}

// Summary returns response-time order statistics over jobs.
func (r *Result) Summary() metrics.Summary { return metrics.Summarize(r.JobResponses) }

// RunPhase identifies where a system is in its workload lifecycle. The
// snapshot subsystem uses it to decide what a snapshot must capture and
// which systems can be captured at all.
type RunPhase int

// Lifecycle phases.
const (
	// PhaseBuilt: constructed, workload not started.
	PhaseBuilt RunPhase = iota
	// PhaseStarted: StartWorkload has run; the schedule is in flight.
	PhaseStarted
	// PhaseFinished: FinishWorkload has assembled the Result.
	PhaseFinished
)

// String names the phase.
func (p RunPhase) String() string {
	switch p {
	case PhaseBuilt:
		return "built"
	case PhaseStarted:
		return "started"
	case PhaseFinished:
		return "finished"
	}
	return "unknown"
}

// Phase returns the system's current lifecycle phase.
func (s *System) Phase() RunPhase { return s.phase }

// Diverged reports whether a divergence scenario was armed after the
// workload started (ApplyDivergence); such a system cannot be snapshotted.
func (s *System) Diverged() bool { return s.diverged }

// Config returns the system's normalized configuration — the input Config
// with defaults filled in, exactly as a snapshot must record it to rebuild
// an identical system.
func (s *System) Config() Config { return s.cfg }

// RunStart returns the workload anchor instant (valid once the phase is
// PhaseStarted): provisioning is complete and the first submission timer is
// scheduled relative to it.
func (s *System) RunStart() sim.Time { return s.runStart }

// RunSchedule returns the schedule the in-flight run was started with, or
// nil before StartWorkload.
func (s *System) RunSchedule() *workload.Schedule { return s.runSched }

// ScenarioSpecs returns the serializable form of every applied scenario, in
// application order. Callers must not modify them.
func (s *System) ScenarioSpecs() []ScenarioSpec { return s.scenarios }

// RNGStream describes one named simulator random stream: its seed and how
// many values it has drawn (the stream's position).
type RNGStream struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// RNGStreams enumerates every random stream that can influence the
// simulation. There are exactly two: the engine's seeded stream, which all
// model layers draw through (Eng.Rand()), and the "gray" stream gray
// heartbeat-loss decisions draw through (faults.go) — kept separate so
// injecting gray loss cannot shift the engine stream consumed by the
// fault-free model, and counted so snapshots can verify its position too.
// Fault-free runs draw zero values from the gray stream. Workload generation
// (internal/workload) and chaos-schedule generation (experiments) seed their
// own rand instances, but those run before the simulation and their output
// rides in snapshots as data — they are generators, not simulator streams.
// Snapshot equivalence tests assert the replayed draw counts match the
// recorded ones, which catches any code path growing a hidden rand source.
func (s *System) RNGStreams() []RNGStream {
	return []RNGStream{
		{Name: "engine", Seed: s.Eng.Seed(), Draws: s.Eng.RandDraws()},
		{Name: "gray", Seed: s.gray.src.SeedValue(), Draws: s.gray.src.Draws()},
	}
}

// StartWorkload provisions (if needed), stages the schedule's input files,
// and schedules the job submissions, leaving the run in flight. It is the
// first half of RunWorkload; drive the run forward with RunTo and assemble
// the Result with FinishWorkload. A workload can be started once.
func (s *System) StartWorkload(sched *workload.Schedule) error {
	if s.phase != PhaseBuilt {
		return fmt.Errorf("core: StartWorkload on a %v system", s.phase)
	}
	s.startWorkload(sched)
	return nil
}

func (s *System) startWorkload(sched *workload.Schedule) {
	s.AwaitNodes()
	s.armScenarios()
	for _, js := range sched.Jobs {
		s.NN.SeedFile("/in/"+js.Name, js.InputBytes, 0)
	}
	start := s.Eng.Now()
	for _, js := range sched.Jobs {
		js := js
		s.Eng.Schedule(start+js.Submit, func() {
			s.JT.Submit(mapred.JobConfig{
				Name:              js.Name,
				InputFile:         "/in/" + js.Name,
				Reduces:           js.Reduces,
				MapSelectivity:    s.cfg.Costs.MapSelectivity,
				ReduceSelectivity: s.cfg.Costs.ReduceSelectivity,
				MapCostPerMB:      s.cfg.Costs.MapCostPerMB,
				SortCostPerMB:     s.cfg.Costs.SortCostPerMB,
				ReduceCostPerMB:   s.cfg.Costs.ReduceCostPerMB,
				Bin:               js.Bin,
			})
		})
	}
	s.phase = PhaseStarted
	s.runStart = start
	s.runSched = sched
}

// runCond returns the workload-completion predicate: keep running until the
// submission window has passed and every job is done, or the run bound is
// hit. The predicate is a pure read and monotone in simulated time, so it
// can be re-created at any point of the run (RunTo, FinishWorkload) without
// changing which events fire.
func (s *System) runCond() func() bool {
	start := s.runStart
	span := s.runSched.Span()
	bound := start + s.cfg.RunBound
	submitted := false
	return func() bool {
		if !submitted {
			submitted = s.Eng.Now() > start+span
		}
		return !(submitted && s.JT.AllDone()) && s.Eng.Now() < bound
	}
}

// RunTo advances an in-flight run up to instant t: events at or before t
// fire exactly as an uninterrupted run would fire them, and the clock never
// advances past the last fired event (so a later RunTo or FinishWorkload
// continues seamlessly). Stops early if the workload completes first.
func (s *System) RunTo(t sim.Time) error {
	if s.phase != PhaseStarted {
		return fmt.Errorf("core: RunTo on a %v system", s.phase)
	}
	s.Eng.RunUntilWhile(t, s.runCond())
	return nil
}

// FinishWorkload runs an in-flight workload to completion and assembles the
// Result. StartWorkload + FinishWorkload is exactly RunWorkload; any number
// of RunTo calls may sit between them without changing the outcome.
func (s *System) FinishWorkload() *Result {
	if s.phase != PhaseStarted {
		panic(fmt.Sprintf("core: FinishWorkload on a %v system", s.phase))
	}
	s.Eng.RunWhile(s.runCond())
	s.phase = PhaseFinished
	start := s.runStart
	end := s.Eng.Now()

	res := &Result{
		ResponseTime: end - start,
		Start:        start,
		End:          end,
		Reported:     s.Reported,
		Area:         s.Reported.AreaBetween(start, end),
		Net:          s.Net.Stats(),
		NN:           s.NN.Stats(),
	}
	if s.Pool != nil {
		res.Pool = s.Pool.Stats()
	}
	for _, j := range s.JT.Jobs() {
		if j.State == mapred.JobFailed {
			res.JobsFailed++
		} else {
			res.JobResponses = append(res.JobResponses, j.ResponseTime())
			res.JobBins = append(res.JobBins, j.Config.Bin)
		}
		c := j.Counters()
		for l := 0; l < 3; l++ {
			res.MapLocality[l] += c.Locality[l]
		}
		res.Counters.MapAttemptsStarted += c.MapAttemptsStarted
		res.Counters.MapAttemptsFailed += c.MapAttemptsFailed
		res.Counters.ReduceAttemptsStarted += c.ReduceAttemptsStarted
		res.Counters.ReduceAttemptsFailed += c.ReduceAttemptsFailed
		res.Counters.SpeculativeMaps += c.SpeculativeMaps
		res.Counters.SpeculativeReduces += c.SpeculativeReduces
		res.Counters.MapsReExecuted += c.MapsReExecuted
		res.Counters.FetchFailures += c.FetchFailures
		res.TaskSeconds += j.CompletedWork().Seconds()
	}
	return res
}

// RunWorkload provisions (if needed), stages the schedule's input files,
// submits jobs on schedule, and runs to completion. It mirrors the paper's
// procedure: "we first configure a given number of nodes that HOG will
// achieve and wait until HOG reaches this number. Then, we start to upload
// input data and execute the evaluation workload."
func (s *System) RunWorkload(sched *workload.Schedule) *Result {
	s.startWorkload(sched)
	return s.FinishWorkload()
}
