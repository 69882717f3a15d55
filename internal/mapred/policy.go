package mapred

import (
	"fmt"
	"math"
	"sort"

	"hog/internal/netmodel"
	"hog/internal/ordered"
	"hog/internal/sim"
)

// This file defines the pluggable scheduling and speculation policies. The
// maintained scheduler indexes (schedindex.go) are the shared substrate every
// policy queries: a policy decides job ordering or straggler criteria, never
// bookkeeping. Policies are selected by name through Config.SchedulerPolicy /
// Config.SpeculationPolicy (set through the hog.WithMapRed option; the
// POLICY experiment sweeps them); the defaults reproduce the
// pre-extraction behaviour bit for bit, which policy_equiv_test.go pins.

// TaskKind distinguishes map from reduce work in policy callbacks.
type TaskKind int8

// Task kinds.
const (
	KindMap TaskKind = iota
	KindReduce
)

// String returns the kind name.
func (k TaskKind) String() string {
	if k == KindMap {
		return "map"
	}
	return "reduce"
}

// SchedulerPolicy orders the active jobs a free slot is offered to. The
// per-slot pick within a job (locality classes, delay scheduling, task order)
// stays in the indexed substrate; a policy only chooses which jobs are
// considered and in what order. Implementations may reuse an internal scratch
// slice: the engine fires model callbacks serially, and the returned slice is
// only read until the next JobOrder call.
type SchedulerPolicy interface {
	// Name returns the registry name the policy was constructed under.
	Name() string
	// JobOrder returns the jobs to offer tracker t's free slot, in
	// preference order. It must not mutate the tracker or any job.
	JobOrder(jt *JobTracker, t *TaskTracker) []*Job
}

// SpeculationPolicy decides whether a task whose oldest copy started at
// `started` counts as a straggler worth a speculative duplicate on tracker t.
// Implementations must be monotone in started (an older start can only be
// more of a straggler at the same instant): the scheduler's cached per-job
// minimum start gate (specMapMin/specReduceMin) relies on it.
type SpeculationPolicy interface {
	// Name returns the registry name the policy was constructed under.
	Name() string
	// IsStraggler reports whether a copy started at `started` qualifies for
	// speculation on tracker t. started < 0 means no running copy.
	IsStraggler(jt *JobTracker, j *Job, kind TaskKind, t *TaskTracker, started sim.Time) bool
	// EarliestStraggler returns a lower bound, valid for every tracker, on
	// the first instant IsStraggler can pass for a copy started at
	// `started`, given the job's current completion aggregates; never when
	// it cannot pass until they change. The earliest-assignable bound
	// (readyAt) relies on it, so it may err early but never late.
	EarliestStraggler(jt *JobTracker, j *Job, kind TaskKind, started sim.Time) sim.Time
}

// Registry names of the built-in policies.
const (
	SchedulerFIFO        = "fifo"
	SchedulerFair        = "fair"
	SpeculationThreshold = "threshold"
	SpeculationSiteLoad  = "site-load"
)

var schedulerPolicies = map[string]func() SchedulerPolicy{
	SchedulerFIFO: func() SchedulerPolicy { return fifoScheduler{} },
	SchedulerFair: func() SchedulerPolicy { return &fairScheduler{} },
}

var speculationPolicies = map[string]func() SpeculationPolicy{
	SpeculationThreshold: func() SpeculationPolicy { return thresholdSpeculation{} },
	SpeculationSiteLoad:  func() SpeculationPolicy { return siteLoadSpeculation{} },
}

// NewSchedulerPolicy constructs the named scheduler policy; the empty name
// selects the default ("fifo", the paper's policy).
func NewSchedulerPolicy(name string) (SchedulerPolicy, error) {
	if name == "" {
		name = SchedulerFIFO
	}
	mk, ok := schedulerPolicies[name]
	if !ok {
		return nil, fmt.Errorf("mapred: unknown scheduler policy %q (have %v)", name, SchedulerPolicyNames())
	}
	return mk(), nil
}

// NewSpeculationPolicy constructs the named speculation policy; the empty
// name selects the default ("threshold", the paper's slowdown criterion).
func NewSpeculationPolicy(name string) (SpeculationPolicy, error) {
	if name == "" {
		name = SpeculationThreshold
	}
	mk, ok := speculationPolicies[name]
	if !ok {
		return nil, fmt.Errorf("mapred: unknown speculation policy %q (have %v)", name, SpeculationPolicyNames())
	}
	return mk(), nil
}

// SchedulerPolicyNames returns the registered scheduler policy names, sorted.
func SchedulerPolicyNames() []string { return ordered.Keys(schedulerPolicies) }

// SpeculationPolicyNames returns the registered speculation policy names,
// sorted.
func SpeculationPolicyNames() []string { return ordered.Keys(speculationPolicies) }

// fifoScheduler is Apache Hadoop's FIFO policy, the paper's choice: jobs in
// submission order. It returns the tracker's active list itself — the exact
// slice the pre-extraction scheduler iterated.
type fifoScheduler struct{}

func (fifoScheduler) Name() string { return SchedulerFIFO }

func (fifoScheduler) JobOrder(jt *JobTracker, _ *TaskTracker) []*Job { return jt.activeList }

// fairScheduler implements fair-share pool scheduling in the style of the
// Hadoop fair scheduler (Zaharia et al., EuroSys'10 — delay scheduling's
// home): each job belongs to its workload bin's pool ("bin<N>"), pools have
// weights and optional running-task caps (Config.Pools), and free slots go
// to the pool with the lowest running-tasks-per-weight usage first. Within a pool, submission order is
// kept (the sort is stable over the FIFO active list).
type fairScheduler struct {
	scratch []*Job
}

func (*fairScheduler) Name() string { return SchedulerFair }

func (f *fairScheduler) JobOrder(jt *JobTracker, _ *TaskTracker) []*Job {
	f.scratch = f.scratch[:0]
	for _, j := range jt.activeList {
		pc := jt.poolConfig(j.pool)
		if pc.MaxRunning > 0 && jt.poolRunning[j.pool] >= pc.MaxRunning {
			continue
		}
		f.scratch = append(f.scratch, j)
	}
	sort.SliceStable(f.scratch, func(a, b int) bool {
		ja, jb := f.scratch[a], f.scratch[b]
		if ja.pool == jb.pool {
			return false
		}
		ua, ub := jt.poolUsage(ja.pool), jt.poolUsage(jb.pool)
		if ua != ub {
			return ua < ub
		}
		return ja.pool < jb.pool
	})
	return f.scratch
}

// poolConfig returns the pool's configuration with defaults applied
// (weight 1, no cap): pools need no declaration to exist.
func (jt *JobTracker) poolConfig(pool string) PoolConfig {
	pc := jt.cfg.Pools[pool]
	if pc.Weight <= 0 {
		pc.Weight = 1
	}
	return pc
}

// poolUsage is the fair-share ordering key: running tasks per unit weight.
func (jt *JobTracker) poolUsage(pool string) float64 {
	return float64(jt.poolRunning[pool]) / jt.poolConfig(pool).Weight
}

// thresholdSpeculation is the paper's straggler criterion: a copy is a
// straggler when its elapsed time exceeds SpeculativeSlowdown times the
// average completed duration of its kind, guarded by SpeculativeMinRuntime.
type thresholdSpeculation struct{}

func (thresholdSpeculation) Name() string { return SpeculationThreshold }

func (thresholdSpeculation) IsStraggler(jt *JobTracker, j *Job, kind TaskKind, _ *TaskTracker, started sim.Time) bool {
	elapsed, avg, ok := jt.stragglerElapsedAvg(j, kind, started)
	if !ok {
		return false
	}
	return float64(elapsed) > jt.cfg.SpeculativeSlowdown*float64(avg)
}

func (thresholdSpeculation) EarliestStraggler(jt *JobTracker, j *Job, kind TaskKind, started sim.Time) sim.Time {
	return jt.stragglerFrom(j, kind, started, jt.cfg.SpeculativeSlowdown)
}

// siteLoadSpeculation scales the slowdown threshold by the candidate
// tracker's site load: an idle site (spare slots that opportunistic
// preemption may reclaim any moment) speculates eagerly at half the
// configured slowdown, while a fully busy site demands a task be twice as
// late before burning one of its contended slots on a duplicate. The
// effective threshold does not depend on started, so the policy stays
// monotone in started as the interface requires.
type siteLoadSpeculation struct{}

func (siteLoadSpeculation) Name() string { return SpeculationSiteLoad }

func (siteLoadSpeculation) IsStraggler(jt *JobTracker, j *Job, kind TaskKind, t *TaskTracker, started sim.Time) bool {
	elapsed, avg, ok := jt.stragglerElapsedAvg(j, kind, started)
	if !ok {
		return false
	}
	eff := jt.cfg.SpeculativeSlowdown * (0.5 + jt.siteUtilization(t))
	return float64(elapsed) > eff*float64(avg)
}

// EarliestStraggler uses the least effective slowdown any tracker can see:
// site utilisation is never negative, so an idle site's half slowdown.
func (siteLoadSpeculation) EarliestStraggler(jt *JobTracker, j *Job, kind TaskKind, started sim.Time) sim.Time {
	return jt.stragglerFrom(j, kind, started, 0.5*jt.cfg.SpeculativeSlowdown)
}

// siteUtilization returns the fraction of t's site's slots running tasks,
// from the incrementally maintained per-site counters.
func (jt *JobTracker) siteUtilization(t *TaskTracker) float64 {
	sl := jt.siteLoad(t)
	if sl.slots <= 0 {
		return 0
	}
	return float64(sl.running) / float64(sl.slots)
}

// siteLoad tracks one site's slot capacity and occupancy for the site-load
// speculation policy; maintained on register/death and launch/detach.
type siteLoad struct {
	slots   int
	running int
}

// stragglerElapsedAvg is the shared straggler substrate: elapsed time of the
// oldest copy and the average completed duration of the kind. ok is false
// when no copy runs, the minimum-runtime guard applies, or nothing of the
// kind has completed — every policy short-circuits to "not a straggler"
// then. The average comes from the job's maintained duration aggregates.
func (jt *JobTracker) stragglerElapsedAvg(j *Job, kind TaskKind, started sim.Time) (elapsed, avg sim.Time, ok bool) {
	if started < 0 {
		return 0, 0, false
	}
	elapsed = jt.eng.Now() - started
	if elapsed < jt.cfg.SpeculativeMinRuntime {
		return 0, 0, false
	}
	sum, n := j.doneMapDur, j.doneMapN
	if kind == KindReduce {
		sum, n = j.doneReduceDur, j.doneReduceN
	}
	if n == 0 {
		return 0, 0, false
	}
	return elapsed, sum / sim.Time(n), true
}

// stragglerFrom is the shared EarliestStraggler substrate: the first
// instant a copy started at `started` can pass stragglerElapsedAvg's guards
// with elapsed > slowdown x the kind's average completed duration, rounded
// down. The comparison is the policies' own float expression, and an
// integer elapsed time whose float exceeds x is above floor(x), so the
// rounding errs early. never while no copy runs, nothing of the kind has
// completed, or the threshold lies beyond any simulated horizon.
func (jt *JobTracker) stragglerFrom(j *Job, kind TaskKind, started sim.Time, slowdown float64) sim.Time {
	sum, n := j.doneMapDur, j.doneMapN
	if kind == KindReduce {
		sum, n = j.doneReduceDur, j.doneReduceN
	}
	if started < 0 || n == 0 {
		return never
	}
	x := slowdown * float64(sum/sim.Time(n))
	if !(x < float64(never-started)/2) { // NaN, or past any horizon
		return never
	}
	return started + max(jt.cfg.SpeculativeMinRuntime, sim.Time(math.Floor(x)))
}

// noteLaunched maintains the pool and site occupancy counters when an
// attempt launches; detach (task.go) undoes it exactly once per attempt.
func (jt *JobTracker) noteLaunched(j *Job, t *TaskTracker) {
	jt.poolRunning[j.pool]++
	jt.siteLoad(t).running++
}

// SchedulerPolicyName returns the active scheduler policy's registry name.
func (jt *JobTracker) SchedulerPolicyName() string { return jt.sched.Name() }

// SpeculationPolicyName returns the active speculation policy's registry name.
func (jt *JobTracker) SpeculationPolicyName() string { return jt.spec.Name() }

// Pool returns the pool the job is scheduled under.
func (j *Job) Pool() string { return j.pool }

// PoolRunning returns the incrementally maintained running-task count for a
// pool (audit accessor; RunningByPool recomputes the same quantity from
// tracker state so the two can be cross-checked).
func (jt *JobTracker) PoolRunning(pool string) int { return jt.poolRunning[pool] }

// PoolConfigFor returns the pool's effective configuration, defaults applied
// (audit accessor).
func (jt *JobTracker) PoolConfigFor(pool string) PoolConfig { return jt.poolConfig(pool) }

// PoolsWithRunning returns the pools whose incremental counters are nonzero,
// sorted (audit accessor).
func (jt *JobTracker) PoolsWithRunning() []string {
	var out []string
	for pool, n := range jt.poolRunning {
		if n != 0 {
			out = append(out, pool)
		}
	}
	sort.Strings(out)
	return out
}

// RunningByPool recomputes per-pool live-attempt counts from the trackers'
// attempt sets — an independent code path from the incremental poolRunning
// counters, for the audit sweep's conservation check. Ghost beliefs are not
// counted: they occupy no slot.
func (jt *JobTracker) RunningByPool() map[string]int {
	out := make(map[string]int)
	jt.ForEachTracker(func(t *TaskTracker) {
		for _, a := range t.attempts {
			out[a.job.pool]++
		}
	})
	return out
}

// SpeculativeLaunchCheck re-derives, at TaskLaunched emission time, whether
// the launch was speculative and whether the active speculation policy
// justifies it (audit accessor). The event fires after the new attempt is
// appended, so a task with two or more running copies was launched
// speculatively; its oldest running start is unchanged by the append (the
// new copy starts now), so re-evaluating the policy at the same instant
// reproduces the scheduler's decision. Eager redundancy justifies any
// speculative copy within budget.
func (jt *JobTracker) SpeculativeLaunchCheck(jobID, taskIdx int, kind TaskKind, node netmodel.NodeID) (speculative, justified bool) {
	var j *Job
	for _, cand := range jt.jobs {
		if int(cand.ID) == jobID {
			j = cand
			break
		}
	}
	t := jt.Tracker(node)
	if j == nil || t == nil {
		return false, true
	}
	var running int
	var oldest sim.Time
	if kind == KindMap {
		if taskIdx < 0 || taskIdx >= len(j.maps) {
			return false, true
		}
		m := j.maps[taskIdx]
		running, oldest = m.running(), m.oldestRunningStart()
	} else {
		if taskIdx < 0 || taskIdx >= len(j.reduces) {
			return false, true
		}
		r := j.reduces[taskIdx]
		running, oldest = r.running(), r.oldestRunningStart()
	}
	if running < 2 {
		return false, true
	}
	if jt.cfg.EagerRedundancy {
		return true, running <= jt.cfg.MaxTaskCopies
	}
	return true, jt.spec.IsStraggler(jt, j, kind, t, oldest)
}
