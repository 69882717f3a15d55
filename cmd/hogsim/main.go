// Command hogsim runs a single HOG (or dedicated-cluster) scenario with
// every knob on the command line and prints a result summary — the ad-hoc
// exploration companion to cmd/hogbench's fixed experiments.
//
// Examples:
//
//	hogsim -nodes 100 -churn stable -seed 1
//	hogsim -nodes 55 -churn unstable -zombie unfixed -plot
//	hogsim -cluster
//	hogsim -nodes 60 -repl 3 -site-aware=false -dead-timeout 900
//
// Beyond the classic one-shot mode, two subcommands expose the snapshot
// subsystem (docs/SNAPSHOT.md):
//
//	hogsim -nodes 100 -snapshot-at 600 -snapshot-out snap.hog
//	    run normally, but save a mid-run snapshot 600 s into the workload
//	hogsim restore -in snap.hog
//	    restore a snapshot and run it to completion; the report is
//	    byte-identical to the uninterrupted run's
//	hogsim serve -nodes 100 -warm 600 -addr localhost:8080
//	    hold a warm simulation in memory behind an HTTP API: download
//	    snapshots, fork what-if branches, stream the event bus (SSE)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/sim"
	"hog/internal/snapshot"
	"hog/internal/traceio"
	"hog/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "restore":
			os.Exit(restoreMain(os.Args[2:]))
		}
	}
	os.Exit(simMain(os.Args[1:]))
}

// churnProfiles maps the -churn flag values shared by simMain and serveMain.
var churnProfiles = map[string]grid.ChurnProfile{
	"none": grid.ChurnNone, "stable": grid.ChurnStable, "unstable": grid.ChurnUnstable,
}

func simMain(args []string) int {
	fs := flag.NewFlagSet("hogsim", flag.ExitOnError)
	var (
		nodes       = fs.Int("nodes", 100, "HOG pool target size")
		churnName   = fs.String("churn", "stable", "grid churn: none|stable|unstable")
		seed        = fs.Int64("seed", 1, "simulation and workload seed")
		scale       = fs.Float64("scale", 1.0, "workload scale (1.0 = 88 jobs)")
		cluster     = fs.Bool("cluster", false, "run the Table III dedicated cluster instead of HOG")
		repl        = fs.Int("repl", 0, "override HDFS replication factor")
		siteAware   = fs.Bool("site-aware", true, "site-aware placement; false selects the \"flat\" policy")
		deadTimeout = fs.Float64("dead-timeout", 0, "override dead timeout in seconds")
		zombieName  = fs.String("zombie", "fixed", "preempted daemon mode: fixed|unfixed|disk-check")
		copies      = fs.Int("copies", 0, "max task copies (future-work redundancy when > 2)")
		plot        = fs.Bool("plot", false, "print the node-availability plot")
		seriesCSV   = fs.String("series-csv", "", "write the node-availability series to this CSV file")
		schedCSV    = fs.String("sched", "", "replay a schedule CSV (from genworkload) instead of generating one")
		snapAt      = fs.Float64("snapshot-at", 0, "with -snapshot-out: save the snapshot this many seconds into the workload")
		snapOut     = fs.String("snapshot-out", "", "save a mid-run snapshot to this file (restore with: hogsim restore -in FILE)")
	)
	fs.Parse(args)

	var cfg core.Config
	if *cluster {
		cfg = core.DedicatedClusterConfig(*seed)
	} else {
		churn, ok := churnProfiles[*churnName]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown churn %q\n", *churnName)
			return 2
		}
		cfg = core.HOGConfig(*nodes, churn, *seed)
		zombie, ok := map[string]core.ZombieMode{
			"fixed": core.ZombieFixed, "unfixed": core.ZombieUnfixed, "disk-check": core.ZombieDiskCheck,
		}[*zombieName]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown zombie mode %q\n", *zombieName)
			return 2
		}
		cfg.Zombie = zombie
	}
	if *repl > 0 {
		cfg.HDFS.Replication = *repl
	}
	if !*siteAware {
		cfg.HDFS.PlacementPolicy = hdfs.PlacementFlat
	}
	if *deadTimeout > 0 {
		cfg.HDFS.DeadTimeout = sim.Seconds(*deadTimeout)
		cfg.MapRed.TrackerTimeout = sim.Seconds(*deadTimeout)
	}
	if *copies > 0 {
		cfg.MapRed.MaxTaskCopies = *copies
		cfg.MapRed.EagerRedundancy = *copies > 2
	}

	var sched *workload.Schedule
	if *schedCSV != "" {
		f, err := os.Open(*schedCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sched, err = workload.ReadCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		sched = workload.Generate(*seed, workload.Config{Scale: *scale})
	}
	sys := core.New(cfg)

	var res *core.Result
	if *snapOut != "" {
		// Mid-run snapshot: run to the cut instant, save, then finish the
		// run as if nothing happened — RunTo never disturbs the event order,
		// so the report below is byte-identical to the uninterrupted run's
		// (and to `hogsim restore -in` on the saved file).
		if err := sys.StartWorkload(sched); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := sys.RunTo(sys.RunStart() + sim.Seconds(*snapAt)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		data, err := snapshot.Save(sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(*snapOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "snapshot: %d bytes at t=%.0f s -> %s\n",
			len(data), sys.Eng.Now().Seconds(), *snapOut)
		res = sys.FinishWorkload()
	} else {
		res = sys.RunWorkload(sched)
	}

	printReport(os.Stdout, sched, res, cfg.Grid != nil)
	if *plot {
		fmt.Println()
		fmt.Print(res.Reported.ASCIIPlot(72, 10, res.Start, res.End))
	}
	if *seriesCSV != "" {
		f, err := os.Create(*seriesCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		err = traceio.WriteSeriesCSV(f, res.Reported)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("node series written to %s\n", *seriesCSV)
	}
	return 0
}

// restoreMain implements `hogsim restore -in FILE`: restore a snapshot and
// run it to completion. Because restore replays the recipe deterministically,
// the report is byte-identical to the uninterrupted run's — CI cmps the two.
func restoreMain(args []string) int {
	fs := flag.NewFlagSet("hogsim restore", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file to restore (required)")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "hogsim restore: -in FILE is required")
		return 2
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sys, err := snapshot.Restore(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if sys.Phase() != core.PhaseStarted {
		fmt.Fprintf(os.Stderr, "hogsim restore: snapshot holds a %v system with no workload in flight\n", sys.Phase())
		return 1
	}
	fmt.Fprintf(os.Stderr, "restored %s at t=%.0f s; running to completion\n", *in, sys.Eng.Now().Seconds())
	res := sys.FinishWorkload()
	printReport(os.Stdout, sys.RunSchedule(), res, sys.Config().Grid != nil)
	return 0
}

// printReport writes the classic hogsim summary. Everything here must be
// derivable from a restored snapshot alone (schedule, config, result), so
// `hogsim restore` output can be cmp'd against the uninterrupted run's.
func printReport(w io.Writer, sched *workload.Schedule, res *core.Result, pool bool) {
	fmt.Fprintf(w, "workload: %d jobs over %.0fs (seed %d)\n",
		len(sched.Jobs), sched.Span().Seconds(), sched.Seed)
	fmt.Fprintf(w, "response time: %.0f s\n", res.ResponseTime.Seconds())
	fmt.Fprintf(w, "jobs: %d ok, %d failed\n", len(res.JobResponses), res.JobsFailed)
	fmt.Fprintf(w, "job responses: %v\n", res.Summary())
	fmt.Fprintf(w, "map locality: %d node-local / %d site-local / %d remote\n",
		res.MapLocality[0], res.MapLocality[1], res.MapLocality[2])
	fmt.Fprintf(w, "attempts: %d map (%d failed, %d spec), %d reduce (%d failed, %d spec), %d maps re-executed\n",
		res.Counters.MapAttemptsStarted, res.Counters.MapAttemptsFailed, res.Counters.SpeculativeMaps,
		res.Counters.ReduceAttemptsStarted, res.Counters.ReduceAttemptsFailed, res.Counters.SpeculativeReduces,
		res.Counters.MapsReExecuted)
	fmt.Fprintf(w, "hdfs: %d blocks created, %d lost, %d re-replications (%.1f GB)\n",
		res.NN.BlocksCreated, res.NN.BlocksLost, res.NN.ReplicationsDone, res.NN.BytesReplicated/1e9)
	fmt.Fprintf(w, "network: %.1f GB moved, %.1f GB cross-site\n",
		res.Net.BytesTotal/1e9, res.Net.BytesCrossSite/1e9)
	if pool {
		fmt.Fprintf(w, "pool: %d provisioned, %d preempted (%d batch), %d killed, area %.0f node-s\n",
			res.Pool.Provisioned, res.Pool.Preempted, res.Pool.BatchPreempted, res.Pool.Killed, res.Area)
	}
	// Per-bin breakdown: the paper bins jobs "to make it possible to compare
	// jobs in the same bin within and across experiments" (§IV.A).
	if len(res.JobResponses) > 0 {
		fmt.Fprintln(w, "per-bin response times:")
		fmt.Fprintln(w, "  bin  jobs  mean(s)  worst(s)")
		for _, bs := range workload.SummarizeByBin(res.JobBins, res.JobResponses) {
			fmt.Fprintf(w, "  %3d  %4d  %7.0f  %8.0f\n",
				bs.Bin, bs.Jobs, bs.MeanResp.Seconds(), bs.WorstResp.Seconds())
		}
	}
}
