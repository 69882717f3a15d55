package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"hog/internal/audit"
	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/workload"
)

// CHAOS samples seeded random fault schedules — master crashes, site
// outages, churn bursts, WAN degradation — against a 60-node unstable pool,
// runs each schedule twice, and checks two things no single scripted
// experiment covers: the cross-layer audit invariants hold at every sweep
// under arbitrary fault interleavings, and the run is bit-deterministic
// (identical event fingerprints across reruns) even through master
// recovery. Any violation or fingerprint mismatch is a failure.

// chaosSiteNames are the fault targets, the OSG sites of the HOG preset.
var chaosSiteNames = []string{"FNAL_FERMIGRID", "USCMS-FNAL-WC1", "UCSDT2", "AGLT2", "MIT_CMS"}

// ChaosScheduleCount is the number of random fault schedules CHAOS samples.
const ChaosScheduleCount = 4

// ChaosScenario derives fault schedule idx from the experiment seed. The
// script is drawn from its own rand.Rand at construction time — not from
// the engine RNG — so it is a pure function of (seed, idx) and injecting it
// never perturbs the simulation's own random stream. Instants are strictly
// increasing, keeping the script free of same-instant conflicts by
// construction (Apply rejects those).
func ChaosScenario(seed int64, idx int) *core.Scenario {
	rng := rand.New(rand.NewSource(seed<<8 + int64(idx)))
	sc := core.NewScenario(fmt.Sprintf("chaos-%d", idx))
	at := sim.Time(60+rng.Intn(120)) * sim.Second
	step := func() sim.Time {
		at += sim.Time(30+rng.Intn(90)) * sim.Second
		return at
	}
	site := func() string { return chaosSiteNames[rng.Intn(len(chaosSiteNames))] }
	// Every schedule loses a site and the namenode; odd schedules lose the
	// JobTracker too. Churn bursts and WAN degradation ride along, and both
	// masters restart before the dust settles.
	sc.SiteOutageAt(at, site(), 0.3+0.4*rng.Float64())
	sc.CrashNameNodeAt(step())
	if idx%2 == 1 {
		sc.CrashJobTrackerAt(step())
	}
	sc.ChurnBurst(step(), 0.1+0.2*rng.Float64())
	sc.DegradeNetwork(step(), site(), 0.2+0.3*rng.Float64())
	sc.RestartMastersAfter(step())
	return sc
}

// ChaosScheduleResult is one fault schedule's outcome across its two runs.
type ChaosScheduleResult struct {
	Schedule     int
	Response     sim.Time
	JobsFailed   int
	BlocksLost   int
	Reregistered int // trackers that re-registered after JobTracker recovery
	SafeModeOK   bool
	Violations   int    // audit violations (both runs)
	FirstBreach  string // first violation, for diagnostics
	Fingerprint  uint64
	Mismatch     bool // reruns disagreed — determinism broken
}

// chaosRun is one audited run of a chaos schedule.
type chaosRun struct {
	sys         *core.System
	log         *event.Log
	res         *core.Result
	violations  int
	firstBreach string
}

// chaosFold is the verdict over a schedule's two runs.
type chaosFold struct {
	paired      bool   // both runs ended with every fault paired with its repair
	violations  int    // audit violations over both runs
	firstBreach string // first violation of either run
	mismatch    bool   // event fingerprints or gray draws differ: determinism broken
}

// runAudited runs one chaos schedule on the 60-node unstable HOG pool, with
// the auditor attached, sweeping every 30 simulated seconds and once more
// after the workload. scenario builds the fault script from the workload
// the run will submit.
func runAudited(opts Options, scenario func([]workload.JobSpec) *core.Scenario) chaosRun {
	cfg := core.HOGConfig(60, grid.ChurnUnstable, opts.Seeds[0])
	log := event.NewLog()
	sys, err := core.NewSystem(cfg, log)
	if err != nil {
		panic(err)
	}
	aud := audit.New()
	aud.Attach(sys.NN, sys.JT)
	sys.Subscribe(aud)
	sys.Eng.Every(30*sim.Second, func() { aud.Sweep(sys.Eng.Now()) })
	schedule := sched(opts.Seeds[0], opts.Scale)
	if err := sys.Apply(scenario(schedule.Jobs)); err != nil {
		panic(err)
	}
	res := sys.RunWorkload(schedule)
	aud.Sweep(sys.Eng.Now())
	out := chaosRun{sys: sys, log: log, res: res, violations: aud.Count()}
	if v := aud.Violations(); len(v) > 0 {
		out.firstBreach = v[0].String()
	}
	return out
}

// runAuditedTwice runs a chaos schedule twice and returns the first run
// with the fold of both. paired judges from a finished system and its event
// log whether every injected fault met its repair.
func runAuditedTwice(opts Options, scenario func([]workload.JobSpec) *core.Scenario, paired func(*core.System, *event.Log) bool) (chaosRun, chaosFold) {
	a := runAudited(opts, scenario)
	b := runAudited(opts, scenario)
	f := chaosFold{
		paired:      paired(a.sys, a.log) && paired(b.sys, b.log),
		violations:  a.violations + b.violations,
		firstBreach: a.firstBreach,
		mismatch:    a.log.Fingerprint() != b.log.Fingerprint() || a.sys.GrayDraws() != b.sys.GrayDraws(),
	}
	if f.firstBreach == "" {
		f.firstBreach = b.firstBreach
	}
	return a, f
}

// mastersPaired reports whether every master crash met its recovery.
func mastersPaired(log *event.Log) bool {
	return log.Count(event.MasterCrashed) == log.Count(event.MasterRecovered)
}

// ChaosSchedule runs fault schedule idx twice and folds the two runs into
// one result row; Mismatch is the determinism verdict.
func ChaosSchedule(idx int, opts Options) ChaosScheduleResult {
	opts = opts.WithDefaults()
	a, f := runAuditedTwice(opts,
		func([]workload.JobSpec) *core.Scenario { return ChaosScenario(opts.Seeds[0], idx) },
		func(_ *core.System, log *event.Log) bool {
			return log.Count(event.SafeModeEntered) == log.Count(event.SafeModeExited) && mastersPaired(log)
		})
	return ChaosScheduleResult{
		Schedule:     idx,
		Response:     a.res.ResponseTime,
		JobsFailed:   a.res.JobsFailed,
		BlocksLost:   a.res.NN.BlocksLost,
		Reregistered: a.log.Count(event.TrackerReregistered),
		SafeModeOK:   f.paired,
		Violations:   f.violations,
		FirstBreach:  f.firstBreach,
		Fingerprint:  a.log.Fingerprint(),
		Mismatch:     f.mismatch,
	}
}

// indices returns 0..n-1, the case list of a sweep over numbered schedules.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// flag encodes a failure verdict as a 0/1 metric.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// chaosExperiment runs every schedule.
func chaosExperiment() Experiment {
	return declare("chaos", "CHAOS: randomized fault schedules with audit + determinism check",
		perCase(60, indices(ChaosScheduleCount), func(i int) string { return fmt.Sprintf("schedule=%d", i) }, ChaosSchedule),
		func(r ChaosScheduleResult) map[string]float64 {
			return map[string]float64{
				"response_s":   r.Response.Seconds(),
				"jobs_failed":  float64(r.JobsFailed),
				"blocks_lost":  float64(r.BlocksLost),
				"reregistered": float64(r.Reregistered),
				"violations":   float64(r.Violations),
				"fp_mismatch":  flag(r.Mismatch),
				"unpaired":     flag(!r.SafeModeOK),
			}
		},
		reportChaos)
}

// reportChaos prints the chaos sampling run.
func reportChaos(w io.Writer, rs []ChaosScheduleResult) {
	fmt.Fprintln(w, "CHAOS: randomized fault schedules (60 nodes, unstable churn, masters crash+recover)")
	fmt.Fprintln(w, "Sched  Response(s)  JobsFailed  BlocksLost  Reregs  Violations  Deterministic")
	bad := 0
	for _, r := range rs {
		det := "yes"
		if r.Mismatch {
			det = "NO"
		}
		fmt.Fprintf(w, "%5d  %11.0f  %10d  %10d  %6d  %10d  %13s\n",
			r.Schedule, r.Response.Seconds(), r.JobsFailed, r.BlocksLost,
			r.Reregistered, r.Violations, det)
		if r.Violations > 0 {
			bad += r.Violations
			fmt.Fprintf(w, "       first breach: %s\n", r.FirstBreach)
		}
		if r.Mismatch {
			bad++
		}
		if !r.SafeModeOK {
			bad++
			fmt.Fprintf(w, "       unpaired safe-mode or crash/recovery events\n")
		}
	}
	if bad == 0 {
		fmt.Fprintln(w, "all schedules clean: zero audit violations, reruns bit-identical")
	} else {
		fmt.Fprintf(w, "CHAOS FOUND %d PROBLEM(S)\n", bad)
	}
}
