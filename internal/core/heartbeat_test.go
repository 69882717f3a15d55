package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/sim"
)

// heartbeatRun is everything a run exposes that lazy heartbeats must leave
// untouched.
type heartbeatRun struct {
	events uint64
	rng    []RNGStream
	nn     hdfs.Census
	jt     mapred.Census
	res    *Result
	// beats digests every master record's LastHeartbeat, sampled through
	// the run.
	beats uint64
	work  Work
}

// oracleScenario is the run-phase fault schedule of the equivalence test:
// site and node partitions with heal (both cut modes and the inbound-only
// one), gray degradation and restore, both masters crashed mid-run and
// restarted, and a preemption storm.
func oracleScenario(site, other string) *Scenario {
	return NewScenario("heartbeat oracle").
		PartitionSiteAt(60*sim.Second, site, "both").
		PartitionNodesAt(90*sim.Second, other, 3, "out").
		DegradeNodesAt(120*sim.Second, other, 4, 2, 0.5).
		HealPartitionAt(240*sim.Second, site).
		HealPartitionAt(270*sim.Second, other).
		RestoreNodesAt(330*sim.Second, other).
		CrashJobTrackerAt(400*sim.Second).
		CrashNameNodeAt(420*sim.Second).
		RestartMastersAfter(480*sim.Second).
		ChurnBurst(540*sim.Second, 0.1).
		PartitionSiteAt(600*sim.Second, other, "in").
		HealPartitionAt(660*sim.Second, other)
}

// fireAt schedules st's action at absolute instant t outside any scenario,
// so it can strike during warm-up.
func fireAt(sys *System, t sim.Time, st StepSpec) {
	sys.Eng.Schedule(t, func() { verbs[st.Verb].run(sys, st) })
}

// runHeartbeats runs cfg with the lazy driver or the eager oracle. Warm-up
// faults are injected directly, since scenario steps are anchored at the
// workload start: a namenode outage long enough for workers to give up on
// it, a JobTracker crash and restart between two ticks, a partition and a
// gray degradation with their heals.
func runHeartbeats(t *testing.T, cfg Config, eager bool) heartbeatRun {
	t.Helper()
	sys := New(cfg)
	if eager {
		UseEagerHeartbeats(sys)
	}
	log := event.NewLog()
	sys.Subscribe(log)
	sites := cfg.Grid.Sites
	site, other := sites[0].Name, sites[1].Name
	fireAt(sys, 200*sim.Second, StepSpec{Verb: "crash-namenode"})
	fireAt(sys, 500*sim.Second, StepSpec{Verb: "restart-masters"})
	fireAt(sys, 700*sim.Second+sim.Second/2, StepSpec{Verb: "crash-jobtracker"})
	fireAt(sys, 701*sim.Second+sim.Second/3, StepSpec{Verb: "restart-masters"})
	fireAt(sys, 800*sim.Second, StepSpec{Verb: "partition-site", Site: site, Mode: "out"})
	fireAt(sys, 810*sim.Second, StepSpec{Verb: "degrade-nodes", Site: other, Count: 5, Factor: 1, Loss: 0.7})
	fireAt(sys, 900*sim.Second, StepSpec{Verb: "heal-partition", Site: site})
	fireAt(sys, 960*sim.Second, StepSpec{Verb: "restore-nodes", Site: other})
	if err := sys.Apply(oracleScenario(site, other)); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	sys.Eng.Every(7*sim.Second, func() {
		alive := 0
		for _, w := range sys.workerList {
			put(int64(w.id))
			put(int64(sys.NN.LastHeartbeat(w.dn)))
			put(int64(sys.JT.LastHeartbeat(w.tr)))
			if w.tr.Alive {
				alive++
			}
		}
		if got := sys.JT.AliveTrackerCount(); got != alive {
			t.Fatalf("at %v the alive-tracker counter says %d, a walk counts %d", sys.Eng.Now(), got, alive)
		}
	})
	res := sys.RunWorkload(tinySchedule(cfg.Seed))
	return heartbeatRun{
		events: log.Fingerprint(),
		rng:    sys.RNGStreams(),
		nn:     sys.NN.Census(),
		jt:     sys.JT.Census(),
		res:    res,
		beats:  h.Sum64(),
		work:   sys.Work(),
	}
}

func compareHeartbeatRuns(t *testing.T, lazy, eager heartbeatRun) {
	t.Helper()
	if lazy.events != eager.events {
		t.Errorf("event fingerprint: lazy %x, eager %x", lazy.events, eager.events)
	}
	if !reflect.DeepEqual(lazy.rng, eager.rng) {
		t.Errorf("RNG streams: lazy %+v, eager %+v", lazy.rng, eager.rng)
	}
	if lazy.nn != eager.nn {
		t.Errorf("namenode census: lazy %+v, eager %+v", lazy.nn, eager.nn)
	}
	if lazy.jt != eager.jt {
		t.Errorf("JobTracker census: lazy %+v, eager %+v", lazy.jt, eager.jt)
	}
	if !reflect.DeepEqual(lazy.res, eager.res) {
		t.Errorf("results differ: lazy %+v, eager %+v", *lazy.res, *eager.res)
	}
	if lazy.beats != eager.beats {
		t.Errorf("sampled LastHeartbeat digest: lazy %x, eager %x", lazy.beats, eager.beats)
	}
}

// TestLazyHeartbeatsMatchEagerOracle runs ~200 unstable-churn nodes under
// every zombie mode with faults in warm-up and mid-run, and requires the lazy
// driver to reproduce the eager loop's events, draws, master state, results
// and every sampled LastHeartbeat.
func TestLazyHeartbeatsMatchEagerOracle(t *testing.T) {
	modes := []ZombieMode{ZombieFixed, ZombieUnfixed, ZombieDiskCheck}
	for i, seed := range []int64{1, 2, 3} {
		seed, mode := seed, modes[i]
		t.Run(fmt.Sprintf("seed%d/%v", seed, mode), func(t *testing.T) {
			t.Parallel()
			cfg := HOGConfig(200, grid.ChurnUnstable, seed)
			cfg.Zombie = mode
			cfg.MasterRetryTotal = 2 * sim.Minute
			lazy, eager := runHeartbeats(t, cfg, false), runHeartbeats(t, cfg, true)
			compareHeartbeatRuns(t, lazy, eager)
			if lazy.work.IdleTicks == 0 {
				t.Error("no tick took the idle path")
			}
			if lazy.work.Ticks == lazy.work.IdleTicks {
				t.Error("no tick took the full walk")
			}
		})
	}
	t.Run("disk-overflow", func(t *testing.T) {
		// Scratch space runs out mid-assignment, killing workers from
		// inside a tick's own walk.
		t.Parallel()
		cfg := HOGConfig(60, grid.ChurnStable, 22)
		cfg.Grid.Pool.DiskBytesPerNode = 3e9
		cfg.Costs.ReduceCostPerMB = 500 * sim.Millisecond
		lazy, eager := runHeartbeats(t, cfg, false), runHeartbeats(t, cfg, true)
		compareHeartbeatRuns(t, lazy, eager)
		if lazy.res.Pool.Killed == 0 {
			t.Fatal("no worker was killed by a disk overflow")
		}
	})
	t.Run("giveup", func(t *testing.T) {
		t.Parallel()
		cfg := HOGConfig(200, grid.ChurnUnstable, 4)
		cfg.MasterRetryTotal = 2 * sim.Minute
		sys := New(cfg)
		log := event.NewLog(event.MasterGiveUp)
		sys.Subscribe(log)
		fireAt(sys, 200*sim.Second, StepSpec{Verb: "crash-namenode"})
		fireAt(sys, 500*sim.Second, StepSpec{Verb: "restart-masters"})
		sys.AwaitNodes()
		if log.Count(event.MasterGiveUp) == 0 {
			t.Fatal("the warm-up outage made no worker give up on the namenode")
		}
	})
}

// TestLazyHeartbeatsTimeoutBounds covers the timeouts at and below the
// heartbeat interval: equal to it, a steady record still cannot expire, so
// the lazy path runs; below it, every worker stays exceptional and the scans
// walk every record, as the eager loop did.
func TestLazyHeartbeatsTimeoutBounds(t *testing.T) {
	for _, timeout := range []sim.Time{3 * sim.Second, 2 * sim.Second} {
		timeout := timeout
		t.Run(timeout.String(), func(t *testing.T) {
			cfg := HOGConfig(60, grid.ChurnUnstable, 5)
			cfg.HDFS.DeadTimeout = timeout
			cfg.MapRed.TrackerTimeout = timeout
			lazy, eager := runHeartbeats(t, cfg, false), runHeartbeats(t, cfg, true)
			compareHeartbeatRuns(t, lazy, eager)
		})
	}
}

// TestHeartbeatWorkLargeGrid pins the asymptotics on a LARGE-GRID warm-up:
// the quiet sets are exactly the exceptional workers' records, a dead scan
// visits no more than its quiet set, an idle tick visits no more than the
// exception list, and both are a small fraction of the eager oracle's
// every-record scans and every-worker ticks.
func TestHeartbeatWorkLargeGrid(t *testing.T) {
	cfg := LargeGridConfig(1000, grid.ChurnStable, 2)
	warm := func(sys *System, step func()) {
		sys.Pool.SetTarget(cfg.Grid.TargetNodes)
		for sys.Pool.AliveCount() < cfg.Grid.TargetNodes && sys.Eng.Now() < cfg.Grid.ProvisionBound {
			step()
		}
	}
	sys := New(cfg)
	scanEvery := sys.NN.Config().CheckInterval
	hb := sys.JT.Config().HeartbeatInterval
	if sys.JT.Config().CheckInterval != scanEvery {
		t.Fatal("test assumes both masters scan on the same period")
	}
	checked := 0
	warm(sys, func() {
		// Step to just before the next scan or tick instant, read what it
		// will walk, then fire it.
		now := sys.Eng.Now()
		next := min((now/scanEvery+1)*scanEvery, (now/hb+1)*hb)
		sys.Eng.RunUntil(next - 1)
		before := sys.Work()
		sys.Eng.RunUntil(next)
		after := sys.Work()
		nnExc, jtExc := 0, 0
		for _, w := range sys.workerList {
			if w.exc && w.dn.Alive {
				nnExc++
			}
			if w.exc && w.tr.Alive {
				jtExc++
			}
		}
		if after.NN.Quiet != nnExc || after.JT.Quiet != jtExc {
			t.Fatalf("at %v quiet sets %d/%d, exceptional workers' alive records %d/%d",
				next, after.NN.Quiet, after.JT.Quiet, nnExc, jtExc)
		}
		if next%hb != 0 { // a scan instant with no tick reshaping the sets first
			if v := after.NN.Scanned - before.NN.Scanned; v > int64(before.NN.Quiet) {
				t.Fatalf("at %v the namenode scan visited %d records, quiet set %d", next, v, before.NN.Quiet)
			}
			if v := after.JT.Scanned - before.JT.Scanned; v > int64(before.JT.Quiet) {
				t.Fatalf("at %v the JobTracker scan visited %d records, quiet set %d", next, v, before.JT.Quiet)
			}
		}
		if v := after.IdleVisits - before.IdleVisits; v > int64(before.Exceptions) {
			t.Fatalf("at %v an idle tick visited %d workers, exception list %d", next, v, before.Exceptions)
		}
		checked++
	})
	oracle := New(cfg)
	UseEagerHeartbeats(oracle)
	warm(oracle, func() { oracle.Eng.RunUntil(oracle.Eng.Now() + hb) })

	lazy, eager := sys.Work(), oracle.Work()
	t.Logf("%d steps; lazy %+v; eager %+v", checked, lazy, eager)
	if lazy.NN.Scans == 0 || lazy.IdleTicks == 0 {
		t.Fatal("no dead scans or idle ticks during warm-up")
	}
	if lazy.NN.Scanned*20 > eager.NN.Scanned || lazy.JT.Scanned*20 > eager.JT.Scanned {
		t.Errorf("dead scans visited %d/%d records, eager %d/%d: want at least 20x fewer",
			lazy.NN.Scanned, lazy.JT.Scanned, eager.NN.Scanned, eager.JT.Scanned)
	}
	if lazy.Visits*20 > eager.Visits {
		t.Errorf("driver visited %d workers, eager %d: want at least 20x fewer", lazy.Visits, eager.Visits)
	}
}

// TestHotLoopWorkPinned pins the rebalancer and map-assignment work
// counters of one small grid run. They are plain counts of deterministic
// loops, so a change to either loop's visiting shows up here as an exact
// diff, and a run that drifts from its seed shows up as one too.
func TestHotLoopWorkPinned(t *testing.T) {
	sys := New(HOGConfig(30, grid.ChurnNone, 2))
	sys.RunWorkload(tinySchedule(2))
	w := sys.Work()
	got := [5]int64{w.Net.Rebalances, w.Net.Visits, w.Net.Retimed, w.MapProbes, w.PlacementLookups}
	want := [5]int64{23008, 1051557, 365092, 6105, 381}
	if got != want {
		t.Errorf("rebalances, visits, re-timed, map probes, placement lookups = %v, want %v", got, want)
	}
	if w.Net.Retimed > w.Net.Visits {
		t.Errorf("re-timed %d flows but visited only %d registry entries", w.Net.Retimed, w.Net.Visits)
	}
	if w.PlacementLookups > 2*w.MapProbes {
		t.Errorf("%d placement lookups for %d job probes: at most two per probe", w.PlacementLookups, w.MapProbes)
	}
}
