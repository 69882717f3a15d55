package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/sim"
	"hog/internal/workload"
)

// CHAOS2 extends CHAOS beyond crash-stop: seeded random schedules mixing
// network partitions (site- and node-level, symmetric and asymmetric), gray
// degradation (slow disks, flaky heartbeats), and silent block corruption —
// layered on an unstable churn profile — each run twice. It checks the same
// two properties as CHAOS under the richer fault vocabulary: every audit
// invariant (including the new partition/gray/corruption families) holds at
// every sweep, and reruns are bit-identical through detection, degradation,
// and recovery. Any violation or fingerprint mismatch is a failure.

// Chaos2ScheduleCount is the number of random fault schedules CHAOS2 samples.
const Chaos2ScheduleCount = 4

// chaos2Salt decorrelates CHAOS2's schedule stream from CHAOS's for the same
// experiment seed.
const chaos2Salt = 0x2c4a05

// Chaos2Scenario derives beyond-crash-stop fault schedule idx from the
// experiment seed. Like ChaosScenario it draws from its own rand.Rand at
// construction time — a pure function of (seed, idx, jobs) that never
// perturbs the simulation's streams — and keeps instants strictly
// increasing so the script is conflict-free by construction. jobs is the
// workload the run will submit (from the same deterministic generator);
// corruption steps use it to target input files whose blocks are still
// unread when the fault fires, so the checksum detection path actually
// runs instead of corrupting data nobody will touch again.
func Chaos2Scenario(seed int64, idx int, jobs []workload.JobSpec) *core.Scenario {
	rng := rand.New(rand.NewSource(seed<<8 + int64(idx) + chaos2Salt))
	sc := core.NewScenario(fmt.Sprintf("chaos2-%d", idx))
	at := sim.Time(60+rng.Intn(120)) * sim.Second
	step := func() sim.Time {
		at += sim.Time(30+rng.Intn(90)) * sim.Second
		return at
	}
	site := func() string { return chaosSiteNames[rng.Intn(len(chaosSiteNames))] }
	modes := []string{"both", "out", "in"}
	mode := func() string { return modes[rng.Intn(len(modes))] }
	// liveFile picks an input with unread blocks at instant t: prefer jobs
	// not yet submitted then (reads guaranteed to follow the corruption),
	// falling back to the widest job — its maps start over a long stretch of
	// the run, so late corruption still lands ahead of real reads. Scenario
	// instants and job submits share the same anchor (workload start).
	liveFile := func(t sim.Time) string {
		var pending []workload.JobSpec
		widest := jobs[0]
		for _, js := range jobs {
			if js.Submit > t {
				pending = append(pending, js)
			}
			if js.Maps > widest.Maps {
				widest = js
			}
		}
		pick := widest
		if len(pending) > 0 {
			pick = pending[rng.Intn(len(pending))]
		}
		return "/in/" + pick.Name
	}

	// Every schedule partitions one site (any cut direction), grays a few
	// nodes at another, and corrupts replicas of staged input files; all
	// three detection→recovery loops must close before the run ends, so the
	// partition heals and the gray nodes are restored a few minutes later.
	// Odd schedules add node-granular cuts at a third site; churn bursts
	// ride along throughout.
	partSite := site()
	graySite := site()
	sc.PartitionSiteAt(at, partSite, mode())
	sc.DegradeNodesAt(step(), graySite, 2+rng.Intn(3), 4, 0.15+0.25*rng.Float64())
	if len(jobs) > 0 {
		t := step()
		sc.CorruptReplicasAt(t, liveFile(t), 4+rng.Intn(5))
	}
	sc.ChurnBurst(step(), 0.05+0.15*rng.Float64())
	if idx%2 == 1 {
		nodeSite := site()
		sc.PartitionNodesAt(step(), nodeSite, 1+rng.Intn(2), mode())
		sc.HealPartitionAt(step(), nodeSite)
	}
	sc.HealPartitionAt(step(), partSite)
	if len(jobs) > 0 {
		t := step()
		sc.CorruptReplicasAt(t, liveFile(t), 3+rng.Intn(4))
	}
	sc.RestoreNodesAt(step(), graySite)
	return sc
}

// Chaos2ScheduleResult is one fault schedule's outcome across its two runs.
type Chaos2ScheduleResult struct {
	Schedule    int
	Response    sim.Time
	JobsFailed  int
	BlocksLost  int
	Partitions  int // partition-started events
	Healed      int // partition-healed events
	Degraded    int // node-degraded events
	Corrupted   int // replica-corrupted events
	Detected    int // corrupt-read-detected events
	Recovered   int // node-recovered events (datanodes back with inventory)
	GrayDraws   uint64
	PairedOK    bool   // partitions healed, degradations restored, masters paired
	Violations  int    // audit violations (both runs)
	FirstBreach string // first violation, for diagnostics
	Fingerprint uint64
	Mismatch    bool // reruns disagreed — determinism broken
}

// Chaos2Schedule runs fault schedule idx twice and folds the two runs into
// one result row; Mismatch is the determinism verdict (the comparison spans
// every event emitted, so detection latencies, recovery order, and read
// retries must all replay exactly).
func Chaos2Schedule(idx int, opts Options) Chaos2ScheduleResult {
	opts = opts.WithDefaults()
	a, f := runAuditedTwice(opts,
		func(jobs []workload.JobSpec) *core.Scenario { return Chaos2Scenario(opts.Seeds[0], idx, jobs) },
		func(sys *core.System, log *event.Log) bool {
			return sys.PartitionedSites() == 0 && sys.PartitionedNodes() == 0 &&
				sys.DegradedNodes() == 0 &&
				log.Count(event.NodeDegraded) == log.Count(event.NodeRestored) &&
				mastersPaired(log)
		})
	return Chaos2ScheduleResult{
		Schedule:    idx,
		Response:    a.res.ResponseTime,
		JobsFailed:  a.res.JobsFailed,
		BlocksLost:  a.res.NN.BlocksLost,
		Partitions:  a.log.Count(event.PartitionStarted),
		Healed:      a.log.Count(event.PartitionHealed),
		Degraded:    a.log.Count(event.NodeDegraded),
		Corrupted:   a.log.Count(event.ReplicaCorrupted),
		Detected:    a.log.Count(event.CorruptReadDetected),
		Recovered:   a.log.Count(event.NodeRecovered),
		GrayDraws:   a.sys.GrayDraws(),
		PairedOK:    f.paired,
		Violations:  f.violations,
		FirstBreach: f.firstBreach,
		Fingerprint: a.log.Fingerprint(),
		Mismatch:    f.mismatch,
	}
}

// Chaos2 runs every schedule.
func Chaos2(opts Options) []Chaos2ScheduleResult {
	out := make([]Chaos2ScheduleResult, 0, Chaos2ScheduleCount)
	for i := 0; i < Chaos2ScheduleCount; i++ {
		out = append(out, Chaos2Schedule(i, opts))
	}
	return out
}

// PrintChaos2 prints the beyond-crash-stop chaos sampling run.
func PrintChaos2(w io.Writer, opts Options) {
	rs := Chaos2(opts)
	fmt.Fprintln(w, "CHAOS2: partitions + gray failures + corruption (60 nodes, unstable churn)")
	fmt.Fprintln(w, "Sched  Response(s)  JobsFailed  Parts  Healed  Gray  Corrupt  Detect  Recov  Violations  Deterministic")
	bad := 0
	for _, r := range rs {
		det := "yes"
		if r.Mismatch {
			det = "NO"
		}
		fmt.Fprintf(w, "%5d  %11.0f  %10d  %5d  %6d  %4d  %7d  %6d  %5d  %10d  %13s\n",
			r.Schedule, r.Response.Seconds(), r.JobsFailed, r.Partitions, r.Healed,
			r.Degraded, r.Corrupted, r.Detected, r.Recovered, r.Violations, det)
		if r.Violations > 0 {
			bad += r.Violations
			fmt.Fprintf(w, "       first breach: %s\n", r.FirstBreach)
		}
		if r.Mismatch {
			bad++
		}
		if !r.PairedOK {
			bad++
			fmt.Fprintf(w, "       unhealed partition, unrestored degradation, or unpaired events\n")
		}
	}
	if bad == 0 {
		fmt.Fprintln(w, "all schedules clean: zero audit violations, every fault healed, reruns bit-identical")
	} else {
		fmt.Fprintf(w, "CHAOS2 FOUND %d PROBLEM(S)\n", bad)
	}
}
