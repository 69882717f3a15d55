package experiments

import (
	"fmt"
	"io"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/hod"
	"hog/internal/sim"
	"hog/internal/workload"
)

// SiteFailureCase is one A-SITE configuration: a replication factor and a
// placement policy.
type SiteFailureCase struct {
	Label     string
	Repl      int
	Placement string
}

// SiteFailureCases returns the paper's configuration (replication 10, site
// aware) and a naive one (replication 2, flat).
func SiteFailureCases() []SiteFailureCase {
	return []SiteFailureCase{
		{"HOG (repl 10, site-aware)", 10, hdfs.PlacementGrid},
		{"naive (repl 2, flat)", 2, hdfs.PlacementFlat},
	}
}

// SiteFailureResult is one configuration's outcome under a whole-site
// outage (A-SITE).
type SiteFailureResult struct {
	Label      string
	Repl       int
	BlocksLost int
	JobsFailed int
	Response   sim.Time
}

// SiteFailureSite is the site A-SITE takes down: the largest OSG site,
// addressed by name rather than by its index in the site list.
const SiteFailureSite = "FNAL_FERMIGRID"

// SiteFailureTrial kills the largest site mid-run under one configuration.
// The outage is a scripted scenario step: timed steps anchor to the workload
// start, so the outage hits 300 s after provisioning completes and the data
// is staged — a populated, data-bearing site, per the paper's §IV.B
// procedure.
func SiteFailureTrial(c SiteFailureCase, opts Options) SiteFailureResult {
	opts = opts.WithDefaults()
	cfg := core.HOGConfig(60, grid.ChurnNone, opts.Seeds[0])
	cfg.HDFS.Replication = c.Repl
	cfg.HDFS.PlacementPolicy = c.Placement
	sys := core.New(cfg)
	outage := core.NewScenario("whole-site outage").
		SiteOutageAt(300*sim.Second, SiteFailureSite, 1.0)
	if err := sys.Apply(outage); err != nil {
		panic(err)
	}
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	return SiteFailureResult{
		Label: c.Label, Repl: c.Repl,
		BlocksLost: res.NN.BlocksLost, JobsFailed: res.JobsFailed,
		Response: res.ResponseTime,
	}
}

// siteExperiment runs A-SITE under every configuration.
func siteExperiment() Experiment {
	return declare("site", "A-SITE: whole-site failure ablation",
		perCase(60, SiteFailureCases(), func(c SiteFailureCase) string { return c.Label }, SiteFailureTrial),
		func(r SiteFailureResult) map[string]float64 {
			return map[string]float64{
				"blocks_lost": float64(r.BlocksLost),
				"jobs_failed": float64(r.JobsFailed),
				"response_s":  r.Response.Seconds(),
			}
		},
		func(w io.Writer, rows []SiteFailureResult) {
			fmt.Fprintln(w, "A-SITE: whole-site failure (site awareness ablation)")
			fmt.Fprintln(w, "Config                       BlocksLost  JobsFailed  Response(s)")
			for _, r := range rows {
				fmt.Fprintf(w, "%-28s %10d  %10d  %11.0f\n", r.Label, r.BlocksLost, r.JobsFailed, r.Response.Seconds())
			}
		})
}

// ReplicationFactors returns the A-REPL sweep points.
func ReplicationFactors() []int { return []int{3, 5, 10, 15} }

// ReplicationResult is one replication factor's outcome (A-REPL).
type ReplicationResult struct {
	Repl            int
	JobsFailed      int
	BlocksLost      int
	Response        sim.Time
	BytesReplicated float64
	CrossSiteBytes  float64
}

// ReplicationTrial runs one replication factor under unstable churn,
// exposing the paper's trade-off: "Too many replicas would impose extra
// replication overhead ... Too few would cause frequent data failures."
func ReplicationTrial(repl int, opts Options) ReplicationResult {
	opts = opts.WithDefaults()
	cfg := core.HOGConfig(60, grid.ChurnUnstable, opts.Seeds[0])
	cfg.HDFS.Replication = repl
	sys := core.New(cfg)
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	return ReplicationResult{
		Repl: repl, JobsFailed: res.JobsFailed, BlocksLost: res.NN.BlocksLost,
		Response: res.ResponseTime, BytesReplicated: res.NN.BytesReplicated,
		CrossSiteBytes: res.Net.BytesCrossSite,
	}
}

// replExperiment varies the replication factor under unstable churn.
func replExperiment() Experiment {
	return declare("repl", "A-REPL: replication factor sweep",
		perCase(60, ReplicationFactors(), func(repl int) string { return fmt.Sprintf("repl=%d", repl) }, ReplicationTrial),
		func(r ReplicationResult) map[string]float64 {
			return map[string]float64{
				"jobs_failed":     float64(r.JobsFailed),
				"blocks_lost":     float64(r.BlocksLost),
				"response_s":      r.Response.Seconds(),
				"repl_traffic_gb": r.BytesReplicated / 1e9,
				"cross_site_gb":   r.CrossSiteBytes / 1e9,
			}
		},
		func(w io.Writer, rows []ReplicationResult) {
			fmt.Fprintln(w, "A-REPL: replication factor under unstable churn (60 nodes)")
			fmt.Fprintln(w, "Repl  JobsFailed  BlocksLost  Response(s)  ReplTraffic(GB)  CrossSite(GB)")
			for _, r := range rows {
				fmt.Fprintf(w, "%4d  %10d  %10d  %11.0f  %15.1f  %13.1f\n",
					r.Repl, r.JobsFailed, r.BlocksLost, r.Response.Seconds(),
					r.BytesReplicated/1e9, r.CrossSiteBytes/1e9)
			}
		})
}

// HeartbeatTimeouts returns the A-HB sweep points: HOG's 30 s dead timeout
// and the traditional 15 minutes.
func HeartbeatTimeouts() []sim.Time { return []sim.Time{30 * sim.Second, 900 * sim.Second} }

// HeartbeatResult is one dead-timeout setting's outcome (A-HB).
type HeartbeatResult struct {
	Timeout    sim.Time
	Response   sim.Time
	JobsFailed int
}

// HeartbeatTrial runs one dead-timeout setting under unstable churn.
func HeartbeatTrial(timeout sim.Time, opts Options) HeartbeatResult {
	opts = opts.WithDefaults()
	cfg := core.HOGConfig(60, grid.ChurnUnstable, opts.Seeds[0])
	cfg.HDFS.DeadTimeout = timeout
	cfg.MapRed.TrackerTimeout = timeout
	sys := core.New(cfg)
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	return HeartbeatResult{Timeout: timeout, Response: res.ResponseTime, JobsFailed: res.JobsFailed}
}

// heartbeatExperiment compares the dead-timeout settings under unstable
// churn.
func heartbeatExperiment() Experiment {
	return declare("heartbeat", "A-HB: dead timeout 30s vs 15min",
		perCase(60, HeartbeatTimeouts(),
			func(timeout sim.Time) string { return fmt.Sprintf("timeout=%.0fs", timeout.Seconds()) }, HeartbeatTrial),
		func(r HeartbeatResult) map[string]float64 {
			return map[string]float64{
				"timeout_s":   r.Timeout.Seconds(),
				"response_s":  r.Response.Seconds(),
				"jobs_failed": float64(r.JobsFailed),
			}
		},
		func(w io.Writer, rows []HeartbeatResult) {
			fmt.Fprintln(w, "A-HB: dead-node timeout under unstable churn (60 nodes)")
			fmt.Fprintln(w, "Timeout(s)  Response(s)  JobsFailed")
			for _, r := range rows {
				fmt.Fprintf(w, "%10.0f  %11.0f  %10d\n", r.Timeout.Seconds(), r.Response.Seconds(), r.JobsFailed)
			}
		})
}

// ZombieModes returns the three §IV.D.1 behaviours.
func ZombieModes() []core.ZombieMode {
	return []core.ZombieMode{core.ZombieUnfixed, core.ZombieDiskCheck, core.ZombieFixed}
}

// ZombieResult is one zombie-handling mode's outcome (A-ZOMBIE).
type ZombieResult struct {
	Mode           core.ZombieMode
	Response       sim.Time
	FailedAttempts int
	FetchFailures  int
	JobsFailed     int
}

// ZombieTrial runs one zombie-handling mode under unstable churn.
func ZombieTrial(mode core.ZombieMode, opts Options) ZombieResult {
	opts = opts.WithDefaults()
	cfg := core.HOGConfig(55, grid.ChurnUnstable, opts.Seeds[0])
	cfg.Zombie = mode
	sys := core.New(cfg)
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	return ZombieResult{
		Mode:           mode,
		Response:       res.ResponseTime,
		FailedAttempts: res.Counters.MapAttemptsFailed + res.Counters.ReduceAttemptsFailed,
		FetchFailures:  res.Counters.FetchFailures,
		JobsFailed:     res.JobsFailed,
	}
}

// zombieExperiment compares the three §IV.D.1 behaviours under unstable
// churn.
func zombieExperiment() Experiment {
	return declare("zombie", "A-ZOMBIE: abandoned datanode modes",
		perCase(55, ZombieModes(), func(mode core.ZombieMode) string { return "mode=" + mode.String() }, ZombieTrial),
		func(r ZombieResult) map[string]float64 {
			return map[string]float64{
				"response_s":      r.Response.Seconds(),
				"failed_attempts": float64(r.FailedAttempts),
				"fetch_failures":  float64(r.FetchFailures),
				"jobs_failed":     float64(r.JobsFailed),
			}
		},
		func(w io.Writer, rows []ZombieResult) {
			fmt.Fprintln(w, "A-ZOMBIE: abandoned datanodes (55 nodes, unstable churn)")
			fmt.Fprintln(w, "Mode        Response(s)  FailedAttempts  FetchFailures  JobsFailed")
			for _, r := range rows {
				fmt.Fprintf(w, "%-10s  %11.0f  %14d  %13d  %10d\n",
					r.Mode, r.Response.Seconds(), r.FailedAttempts, r.FetchFailures, r.JobsFailed)
			}
		})
}

// DiskFactors returns the A-DISK scratch sizes relative to the workload's
// replicated input footprint per node: ample (10x), tight (1.6x), and
// overflowing (1.15x — input fits, but lingering intermediate output does
// not).
func DiskFactors() []float64 { return []float64{10, 1.6, 1.15} }

// DiskOverflowResult is one scratch-size outcome (A-DISK).
type DiskOverflowResult struct {
	DiskGB    float64
	Overflows int
	Killed    int
	Response  sim.Time
}

// DiskOverflowTrial runs one scratch-size factor (§IV.D.2). Disk sizes are
// set relative to the workload's replicated input footprint per node, so
// the experiment is meaningful at any Scale.
func DiskOverflowTrial(factor float64, opts Options) DiskOverflowResult {
	opts = opts.WithDefaults()
	const nodes = 60
	s := sched(opts.Seeds[0], opts.Scale)
	var inputBytes float64
	for _, j := range s.Jobs {
		inputBytes += j.InputBytes
	}
	perNode := inputBytes * 10 / nodes // replication 10
	diskGB := perNode * factor / 1e9
	cfg := core.HOGConfig(nodes, grid.ChurnNone, opts.Seeds[0])
	cfg.Grid.Pool.DiskBytesPerNode = diskGB * 1e9
	// Slow the reduces so intermediate output lingers, as the paper's
	// WAN-bound reduces did.
	cfg.Costs.ReduceCostPerMB = 400 * sim.Millisecond
	sys := core.New(cfg)
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	return DiskOverflowResult{
		DiskGB:    diskGB,
		Overflows: sys.Disk.Overflows(),
		Killed:    res.Pool.Killed,
		Response:  res.ResponseTime,
	}
}

// diskExperiment shrinks worker scratch space until intermediate map
// output accumulation kills workers (§IV.D.2).
func diskExperiment() Experiment {
	return declare("disk", "A-DISK: intermediate-data disk overflow",
		perCase(60, DiskFactors(), func(factor float64) string { return fmt.Sprintf("disk=%.2fx", factor) }, DiskOverflowTrial),
		func(r DiskOverflowResult) map[string]float64 {
			return map[string]float64{
				"disk_gb":        r.DiskGB,
				"overflows":      float64(r.Overflows),
				"workers_killed": float64(r.Killed),
				"response_s":     r.Response.Seconds(),
			}
		},
		func(w io.Writer, rows []DiskOverflowResult) {
			fmt.Fprintln(w, "A-DISK: worker scratch size vs. disk overflow (60 nodes)")
			fmt.Fprintln(w, "Disk(GB)  Overflows  WorkersKilled  Response(s)")
			for _, r := range rows {
				fmt.Fprintf(w, "%8.0f  %9d  %13d  %11.0f\n", r.DiskGB, r.Overflows, r.Killed, r.Response.Seconds())
			}
		})
}

// NCopyCase is one redundant-copy configuration.
type NCopyCase struct {
	Copies      int
	Eager       bool
	Speculative bool
}

// NCopyCases returns the A-NCOPY configurations: no speculation, stock
// Hadoop speculation, and the paper's §VI future work (eager duplicates and
// triple execution).
func NCopyCases() []NCopyCase {
	return []NCopyCase{
		{1, false, false}, // no speculation at all
		{2, false, true},  // stock Hadoop speculation
		{2, true, true},   // future work: eager duplicates
		{3, true, true},   // future work: triple execution
	}
}

// NCopyResult is one redundant-copy setting's outcome (A-NCOPY).
type NCopyResult struct {
	Copies      int
	Eager       bool
	Response    sim.Time
	Speculative int
}

// RedundantCopiesTrial runs one copy configuration under unstable churn,
// with the fastest copy taken as the result.
func RedundantCopiesTrial(c NCopyCase, opts Options) NCopyResult {
	opts = opts.WithDefaults()
	cfg := core.HOGConfig(80, grid.ChurnUnstable, opts.Seeds[0])
	cfg.MapRed.Speculative = c.Speculative
	cfg.MapRed.MaxTaskCopies = c.Copies
	cfg.MapRed.EagerRedundancy = c.Eager
	sys := core.New(cfg)
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	return NCopyResult{
		Copies: c.Copies, Eager: c.Eager,
		Response:    res.ResponseTime,
		Speculative: res.Counters.SpeculativeMaps + res.Counters.SpeculativeReduces,
	}
}

// ncopyExperiment explores the paper's future work (§VI): configurable
// numbers of task copies versus stock speculation and no speculation.
func ncopyExperiment() Experiment {
	point := func(c NCopyCase) string {
		if c.Eager {
			return fmt.Sprintf("copies=%d+eager", c.Copies)
		}
		return fmt.Sprintf("copies=%d", c.Copies)
	}
	return declare("ncopy", "A-NCOPY: redundant task copies",
		perCase(80, NCopyCases(), point, RedundantCopiesTrial),
		func(r NCopyResult) map[string]float64 {
			return map[string]float64{
				"response_s":     r.Response.Seconds(),
				"extra_attempts": float64(r.Speculative),
			}
		},
		func(w io.Writer, rows []NCopyResult) {
			fmt.Fprintln(w, "A-NCOPY: redundant task copies under unstable churn (80 nodes)")
			fmt.Fprintln(w, "Copies  Eager  Response(s)  ExtraAttempts")
			for _, r := range rows {
				fmt.Fprintf(w, "%6d  %5v  %11.0f  %13d\n", r.Copies, r.Eager, r.Response.Seconds(), r.Speculative)
			}
		})
}

// DelayWaits returns the A-DELAY locality-wait sweep points.
func DelayWaits() []sim.Time { return []sim.Time{0, 15 * sim.Second, 45 * sim.Second} }

// DelayResult is one scheduler setting's outcome (A-DELAY).
type DelayResult struct {
	Wait         sim.Time
	Response     sim.Time
	NodeLocal    int
	NonLocal     int
	LocalityRate float64
}

// DelayTrial runs one locality-wait setting at a low replication factor
// where locality is scarce.
func DelayTrial(wait sim.Time, opts Options) DelayResult {
	opts = opts.WithDefaults()
	cfg := core.HOGConfig(60, grid.ChurnStable, opts.Seeds[0])
	cfg.HDFS.Replication = 2 // make locality contended
	cfg.MapRed.LocalityWait = wait
	sys := core.New(cfg)
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	local := res.MapLocality[0]
	nonLocal := res.MapLocality[1] + res.MapLocality[2]
	rate := 0.0
	if local+nonLocal > 0 {
		rate = float64(local) / float64(local+nonLocal)
	}
	return DelayResult{
		Wait: wait, Response: res.ResponseTime,
		NodeLocal: local, NonLocal: nonLocal, LocalityRate: rate,
	}
}

// delayExperiment compares HOG's plain FIFO against delay scheduling
// (Zaharia et al. [3], the paper's workload source).
func delayExperiment() Experiment {
	return declare("delay", "A-DELAY: FIFO vs delay scheduling",
		perCase(60, DelayWaits(), func(wait sim.Time) string { return fmt.Sprintf("wait=%.0fs", wait.Seconds()) }, DelayTrial),
		func(r DelayResult) map[string]float64 {
			return map[string]float64{
				"response_s":    r.Response.Seconds(),
				"node_local":    float64(r.NodeLocal),
				"non_local":     float64(r.NonLocal),
				"locality_rate": r.LocalityRate,
			}
		},
		func(w io.Writer, rows []DelayResult) {
			fmt.Fprintln(w, "A-DELAY: FIFO vs delay scheduling (60 nodes, replication 2)")
			fmt.Fprintln(w, "Wait(s)  Response(s)  NodeLocal  NonLocal  LocalityRate")
			for _, r := range rows {
				fmt.Fprintf(w, "%7.0f  %11.0f  %9d  %8d  %11.1f%%\n",
					r.Wait.Seconds(), r.Response.Seconds(), r.NodeLocal, r.NonLocal, 100*r.LocalityRate)
			}
		})
}

// HODSystems returns the two compared systems of A-HOD.
func HODSystems() []string { return []string{"HOD (per-job clusters)", "HOG (persistent pool)"} }

// HODResultRow compares HOD with HOG on the same schedule (A-HOD).
type HODResultRow struct {
	System         string
	Response       sim.Time
	Reconstruction sim.Time
	// TimedOut counts jobs truncated at HOD's per-job simulation cap; a
	// nonzero count means Response is a lower bound, not a completion time
	// (always 0 for HOG, whose run is not per-job capped).
	TimedOut int
}

// hodSchedule builds the A-HOD schedule: the workload's small-job bins
// (1-3, ~77% of Facebook jobs), where the paper's critique of HOD —
// per-request reconstruction overhead — dominates. For rare long jobs HOD's
// private clusters can win; that is not the regime either system targets.
func hodSchedule(opts Options) *workload.Schedule {
	scale := opts.Scale
	if scale > 0.5 {
		scale = 0.5
	}
	return workload.Generate(opts.Seeds[0], workload.Config{
		Bins:  workload.Table2()[:3],
		Scale: scale,
	})
}

// HODTrial runs the A-HOD schedule under one of the HODSystems labels: HOD
// (a fresh per-job cluster) or a persistent HOG pool of the same size.
// Unknown labels panic rather than silently running the wrong system.
func HODTrial(system string, opts Options) HODResultRow {
	opts = opts.WithDefaults()
	s := hodSchedule(opts)
	switch system {
	case HODSystems()[0]:
		cfg := hod.DefaultConfig(30, opts.Seeds[0])
		hodRes := hod.Run(s, cfg)
		return HODResultRow{system, hodRes.ResponseTime, hodRes.ReconstructionOverhead, hodRes.TimedOut}
	case HODSystems()[1]:
		sys := core.New(core.HOGConfig(30, grid.ChurnStable, opts.Seeds[0]))
		return HODResultRow{system, sys.RunWorkload(s).ResponseTime, 0, 0}
	default:
		panic(fmt.Sprintf("experiments: unknown HOD system %q", system))
	}
}

// hodExperiment runs a schedule under HOD (per-job clusters) and under a
// persistent HOG pool of the same size. Rows with timed-out jobs are
// marked: their response times are lower bounds, not completion times, and
// must not be read as a finished-workload comparison.
func hodExperiment() Experiment {
	return declare("hod", "A-HOD: Hadoop On Demand baseline",
		perCase(30, HODSystems(), func(system string) string { return system }, HODTrial),
		func(r HODResultRow) map[string]float64 {
			return map[string]float64{
				"response_s":       r.Response.Seconds(),
				"reconstruction_s": r.Reconstruction.Seconds(),
				"timed_out":        float64(r.TimedOut),
			}
		},
		func(w io.Writer, rows []HODResultRow) {
			fmt.Fprintln(w, "A-HOD: Hadoop On Demand vs. HOG (30 nodes)")
			fmt.Fprintln(w, "System                   Response(s)  Reconstruction(s)  TimedOut")
			for _, r := range rows {
				mark := ""
				if r.TimedOut > 0 {
					mark = "  (response is a lower bound)"
				}
				fmt.Fprintf(w, "%-24s %11.0f  %17.0f  %8d%s\n",
					r.System, r.Response.Seconds(), r.Reconstruction.Seconds(), r.TimedOut, mark)
			}
		})
}
