// Package mapred reimplements Hadoop MapReduce 1.0 at the fidelity the paper
// depends on (§II.A, §III.B.2): a JobTracker on the stable central server,
// TaskTrackers with fixed map/reduce slots on worker nodes, heartbeat-driven
// task assignment under Apache Hadoop's FIFO policy with speculative
// execution (at most two copies of a task; the paper's future work makes the
// copy count configurable, which this package supports), locality-aware map
// placement (node-local, then site-local, then remote), a shuffle phase with
// parallel fetchers, reduce slow-start, and recovery from lost nodes: running
// attempts are rescheduled and completed map output lost with a node is
// re-executed.
//
// Task I/O and computation consume simulated time through the netmodel
// fabric; intermediate map output occupies real tracked disk space until the
// job finishes, reproducing the paper's §IV.D.2 disk-overflow failure mode.
package mapred

import (
	"fmt"
	"reflect"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

// JobID identifies a submitted job.
type JobID int

// JobState is a job's lifecycle state.
type JobState int

// Job lifecycle states.
const (
	JobPending JobState = iota
	JobRunning
	JobSucceeded
	JobFailed
)

// String returns the state name.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	}
	return "unknown"
}

// JobConfig describes one MapReduce job. The cost model mirrors loadgen: a
// data-movement job parameterised by selectivities and per-byte costs.
type JobConfig struct {
	// Name labels the job; output files are derived from it.
	Name string
	// InputFile is the HDFS input; the job gets one map task per block.
	InputFile string
	// Reduces is the number of reduce tasks.
	Reduces int
	// MapSelectivity is intermediate bytes per input byte (default 1.0,
	// loadgen's identity behaviour).
	MapSelectivity float64
	// ReduceSelectivity is output bytes per shuffled byte (default 0.5).
	ReduceSelectivity float64
	// MapCostPerMB, SortCostPerMB, ReduceCostPerMB are compute time per MB
	// of data processed in each phase.
	MapCostPerMB    sim.Time
	SortCostPerMB   sim.Time
	ReduceCostPerMB sim.Time
	// OutputReplication for the job's output files; 0 uses the HDFS default.
	OutputReplication int
	// Bin tags the job with its workload bin, which also names its
	// fair-share pool, "bin<N>" (the "fair" scheduler policy; see
	// Config.Pools), so multi-bin workloads are multi-tenant.
	Bin int
}

// pool returns the job's fair-share pool name.
func (c JobConfig) pool() string { return fmt.Sprintf("bin%d", c.Bin) }

func (c JobConfig) withDefaults() JobConfig {
	if c.MapSelectivity <= 0 {
		c.MapSelectivity = 1.0
	}
	if c.ReduceSelectivity <= 0 {
		c.ReduceSelectivity = 0.5
	}
	if c.MapCostPerMB <= 0 {
		c.MapCostPerMB = 250 * sim.Millisecond
	}
	if c.SortCostPerMB <= 0 {
		c.SortCostPerMB = 30 * sim.Millisecond
	}
	if c.ReduceCostPerMB <= 0 {
		c.ReduceCostPerMB = 150 * sim.Millisecond
	}
	return c
}

// Config holds JobTracker parameters.
type Config struct {
	// HeartbeatInterval is how often trackers report (drives assignment).
	HeartbeatInterval sim.Time
	// TrackerTimeout declares a silent tracker dead. HOG: 30 s (§III.B).
	TrackerTimeout sim.Time
	// CheckInterval is the dead-tracker scan period.
	CheckInterval sim.Time
	// SlowstartFraction of a job's maps must finish before its reduces
	// launch (Hadoop's mapred.reduce.slowstart.completed.maps).
	SlowstartFraction float64
	// ParallelCopies is the reduce-side shuffle fetch parallelism.
	ParallelCopies int
	// Speculative enables speculative execution of straggler tasks.
	Speculative bool
	// SpeculativeSlowdown is the lateness factor: a task is a straggler
	// when its elapsed time exceeds this multiple of the average completed
	// duration (the paper: "slower tasks (1/3 slower than average)").
	SpeculativeSlowdown float64
	// SpeculativeMinRuntime guards tiny tasks from speculation.
	SpeculativeMinRuntime sim.Time
	// MaxTaskCopies caps concurrent attempts per task: stock Hadoop 2; the
	// paper's future work raises it ("make all tasks have configurable
	// number of copies ... and take the fastest as the result").
	MaxTaskCopies int
	// EagerRedundancy launches up to MaxTaskCopies immediately when slots
	// are idle instead of waiting for the straggler criterion — the
	// future-work redundant-execution mode.
	EagerRedundancy bool
	// MaxTaskAttempts is the failure budget per task before the job fails.
	MaxTaskAttempts int
	// TaskStartupOverhead models JVM/task launch plus the WAN RPC overhead
	// the paper notes ("it is expected that the startup ... will be
	// increased").
	TaskStartupOverhead sim.Time
	// ConnectTimeout is what a client pays to discover that a peer the
	// masters still believe alive is in fact gone (TCP/IPC timeout). This
	// is the cost the paper's 30-second dead timeouts avoid: with the
	// traditional 15-minute timeout, clients keep tripping over corpses.
	ConnectTimeout sim.Time
	// LocalityWait enables delay scheduling (Zaharia et al., the paper's
	// workload source [3]): a job at the head of the FIFO queue declines
	// non-local map assignments for up to this long, letting later
	// heartbeats offer a local slot. Zero keeps plain FIFO, which is what
	// HOG runs ("we follow Apache Hadoop's FIFO job scheduling policy").
	LocalityWait sim.Time
	// SchedulerPolicy names the job-ordering policy (policy.go registry);
	// empty selects "fifo", the paper's choice.
	SchedulerPolicy string
	// SpeculationPolicy names the straggler criterion; empty selects
	// "threshold", the paper's slowdown rule.
	SpeculationPolicy string
	// Pools configures fair-share pools for the "fair" scheduler policy,
	// keyed "bin<N>" by the jobs' workload bin. Pools absent from the map
	// get weight 1 and no cap; the map may be nil.
	Pools map[string]PoolConfig
}

// IsZero reports whether the config is entirely unset — the zero-value probe
// builders use before substituting DefaultConfig. Reflection because the
// Pools map makes Config non-comparable with ==.
func (c Config) IsZero() bool { return reflect.DeepEqual(c, Config{}) }

// PoolConfig parameterises one fair-share pool.
type PoolConfig struct {
	// Weight is the pool's share (default 1): slots go to the pool with the
	// lowest running-tasks-per-weight first.
	Weight float64
	// MaxRunning caps the pool's concurrently running tasks; 0 is uncapped.
	MaxRunning int
}

// DefaultConfig returns stock-Hadoop-like values with HOG's 30 s timeout left
// to callers (see HOGConfig in internal/core).
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval:     3 * sim.Second,
		TrackerTimeout:        900 * sim.Second,
		CheckInterval:         5 * sim.Second,
		SlowstartFraction:     0.05,
		ParallelCopies:        5,
		Speculative:           true,
		SpeculativeSlowdown:   1.33,
		SpeculativeMinRuntime: 45 * sim.Second,
		MaxTaskCopies:         2,
		MaxTaskAttempts:       4,
		TaskStartupOverhead:   1500 * sim.Millisecond,
		ConnectTimeout:        30 * sim.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = d.HeartbeatInterval
	}
	if c.TrackerTimeout <= 0 {
		c.TrackerTimeout = d.TrackerTimeout
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = d.CheckInterval
	}
	if c.SlowstartFraction <= 0 {
		c.SlowstartFraction = d.SlowstartFraction
	}
	if c.ParallelCopies <= 0 {
		c.ParallelCopies = d.ParallelCopies
	}
	if c.SpeculativeSlowdown <= 0 {
		c.SpeculativeSlowdown = d.SpeculativeSlowdown
	}
	if c.SpeculativeMinRuntime <= 0 {
		c.SpeculativeMinRuntime = d.SpeculativeMinRuntime
	}
	if c.MaxTaskCopies <= 0 {
		c.MaxTaskCopies = d.MaxTaskCopies
	}
	if c.MaxTaskAttempts <= 0 {
		c.MaxTaskAttempts = d.MaxTaskAttempts
	}
	if c.TaskStartupOverhead <= 0 {
		c.TaskStartupOverhead = d.TaskStartupOverhead
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = d.ConnectTimeout
	}
	return c
}

// LocalityLevel classifies where a map ran relative to its input.
type LocalityLevel int

// Locality levels, best first.
const (
	NodeLocal LocalityLevel = iota
	SiteLocal
	Remote
)

// String returns the level name.
func (l LocalityLevel) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case SiteLocal:
		return "site-local"
	case Remote:
		return "remote"
	}
	return "unknown"
}

// Counters aggregates job execution statistics.
type Counters struct {
	MapAttemptsStarted    int
	MapAttemptsFailed     int
	ReduceAttemptsStarted int
	ReduceAttemptsFailed  int
	SpeculativeMaps       int
	SpeculativeReduces    int
	MapsReExecuted        int // completed maps re-run after output loss
	FetchFailures         int
	Locality              [3]int // indexed by LocalityLevel
}

// Job is a submitted MapReduce job.
type Job struct {
	ID     JobID
	Config JobConfig
	State  JobState

	SubmitTime sim.Time
	StartTime  sim.Time // first task launched
	FinishTime sim.Time

	maps    []*mapTask
	reduces []*reduceTask

	completedMaps    int
	completedReduces int
	counters         Counters
	failReason       string

	// outputReservations holds (node, bytes) of completed map outputs,
	// released when the job finishes.
	outputReservations []reservation

	// blacklist counts task failures per tracker. Trackers reaching 3
	// failures are excluded from this job (Hadoop's per-job tracker
	// blacklisting, which is what stops a zombie node from absorbing a
	// whole job's attempt budget) — but, as in Hadoop, a job may blacklist
	// at most a quarter of the cluster so a systemic failure still fails
	// the job instead of starving it.
	blacklist      map[netmodel.NodeID]int
	blacklistedSet map[netmodel.NodeID]bool

	// pool is the job's fair-share pool, cached at submit from its
	// workload bin.
	pool string

	// skipSince tracks how long the job has been declining non-local map
	// slots under delay scheduling; -1 when not waiting.
	skipSince sim.Time

	// idx is the incremental scheduler index, built at submit.
	idx *jobIndex

	// Completed-duration aggregates for the straggler criterion, maintained
	// on task completion/re-execution so isStraggler does not re-sum every
	// completed task on each speculation probe.
	doneMapDur    sim.Time
	doneMapN      int
	doneReduceDur sim.Time
	doneReduceN   int

	// specMapMin/specReduceMin cache the minimum oldestRunningStart over
	// the job's running tasks of each kind below the copy cap: if even the
	// oldest of them is not a straggler, no task speculation could pick is,
	// and the per-slot speculation probe skips its whole running-task walk;
	// the earliest-assignable bound reads them too. The cache is
	// invalidated (specMinInvalid) by noteMapTask/noteReduceTask, which
	// every attempt or ghost mutation already funnels through, and
	// recomputed lazily (specMin); -1 means no such task.
	specMapMin    sim.Time
	specReduceMin sim.Time
}

// specMinInvalid marks a stale specMapMin/specReduceMin cache.
const specMinInvalid = sim.Time(-2)

// CompletedWork returns the summed durations of the job's completed map and
// reduce executions — the task-seconds of useful work, used by the harness's
// slot-utilisation metric. Re-executed maps (lost to node death after
// completing) are not counted twice: their first execution is subtracted
// when invalidated.
func (j *Job) CompletedWork() sim.Time { return j.doneMapDur + j.doneReduceDur }

// blacklisted reports whether the job refuses assignments on the node. The
// empty-set guard keeps the common case — no blacklist at all — free of a
// map probe, which matters at one call per job per free slot per heartbeat.
func (j *Job) blacklisted(n netmodel.NodeID) bool {
	return len(j.blacklistedSet) > 0 && j.blacklistedSet[n]
}

type reservation struct {
	node  netmodel.NodeID
	bytes float64
}

// ResponseTime returns finish minus submit for finished jobs.
func (j *Job) ResponseTime() sim.Time { return j.FinishTime - j.SubmitTime }

// Counters returns a copy of the job's counters.
func (j *Job) Counters() Counters { return j.counters }

// NumMaps returns the number of map tasks.
func (j *Job) NumMaps() int { return len(j.maps) }

// NumReduces returns the number of reduce tasks.
func (j *Job) NumReduces() int { return len(j.reduces) }

// CompletedMaps returns the number of finished map tasks.
func (j *Job) CompletedMaps() int { return j.completedMaps }

// CompletedReduces returns the number of finished reduce tasks.
func (j *Job) CompletedReduces() int { return j.completedReduces }

// DoneTasks recounts a job's done map and reduce tasks from the tasks' own
// flags, for the audit's conservation rule against the completed counters.
func (j *Job) DoneTasks() (maps, reduces int) {
	for _, m := range j.maps {
		if m.done {
			maps++
		}
	}
	for _, r := range j.reduces {
		if r.done {
			reduces++
		}
	}
	return maps, reduces
}

// FailReason returns why the job failed, if it did.
func (j *Job) FailReason() string { return j.failReason }

func (j *Job) String() string {
	return fmt.Sprintf("job %d %q (%dm/%dr) %s", j.ID, j.Config.Name, len(j.maps), len(j.reduces), j.State)
}
