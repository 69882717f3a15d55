package experiments

import (
	"testing"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/sim"
)

// The results below were recorded when the simulator still carried three
// interchangeable event queues — the binary heap, the sequential timing
// wheel, and the site-sharded parallel wheels — and all three produced
// exactly these values. The engine that remains must keep reproducing
// them bit for bit: any change to the (at, seq) firing order shows up here
// as a different response, event count, or flow census. The LARGE-GRID
// Reached counts were read later from the same runs, on code whose results
// matched every other field here.
var (
	largeGridGolden = ScaleGridResult{
		Target: 1000, Sites: 12, Reached: 997, Response: 336054384, EventsFired: 25404,
		FlowsStarted: 10783, CrossSiteFrac: 0.8940208608785403, JobsFailed: 0,
	}
	largeGridSeed2Golden = ScaleGridResult{
		Target: 1000, Sites: 12, Reached: 992, Response: 271037849, EventsFired: 25466,
		FlowsStarted: 10753, CrossSiteFrac: 0.8934530306742977, JobsFailed: 0,
	}
	megaGridGolden = ScaleGridResult{
		Target: 10000, Sites: 40, Reached: 9958, Response: 271200882, EventsFired: 88857,
		FlowsStarted: 10936, CrossSiteFrac: 0.8593327819134132, JobsFailed: 0,
	}
	crashGolden = crashFingerprint{
		Response: 554341594, Fired: 38101, Flows: 16816, JobsFailed: 0,
		Events: 14990147617461733341, Crashed: 2, Recovered: 2, Rereg: 997,
	}
)

// TestLargeGridEngineEquivalence is the 1000-node fingerprint gate: the
// full LARGE-GRID system — provisioning, churn, workload — must produce
// exactly the recorded result struct.
func TestLargeGridEngineEquivalence(t *testing.T) {
	if got := ScaleGrid(Options{Scale: 0.1, Seeds: []int64{1}}, LargeGridPreset); got != largeGridGolden {
		t.Fatalf("1000-node run diverged from the recorded result:\n got  %+v\n want %+v", got, largeGridGolden)
	}
}

// TestLargeGridShardedEngineEquivalence pins a second 1000-node run
// (workload seed 2) to its recorded result. Its name is kept from the
// sharded-versus-sequential gate whose run supplied the constants.
func TestLargeGridShardedEngineEquivalence(t *testing.T) {
	if got := ScaleGrid(Options{Scale: 0.1, Seeds: []int64{2}}, LargeGridPreset); got != largeGridSeed2Golden {
		t.Fatalf("1000-node seed-2 run diverged from the recorded result:\n got  %+v\n want %+v", got, largeGridSeed2Golden)
	}
}

// TestMegaGridShardedEngineEquivalence is the 10,000-node fingerprint gate, where
// the pending set holds tens of thousands of clustered periodic timers.
//
// The detector build skips it: the 1000-node gate above plus the engine
// fingerprint tests already run under -race, and the detector's slowdown at
// ten thousand nodes buys nothing in a single-goroutine simulation.
func TestMegaGridShardedEngineEquivalence(t *testing.T) {
	if raceDetector || testing.Short() {
		t.Skip("10k-node equivalence is covered at 1k under -race/-short")
	}
	if got := ScaleGrid(Options{Scale: 0.1, Seeds: []int64{1}}, MegaGridPreset); got != megaGridGolden {
		t.Fatalf("10000-node run diverged from the recorded result:\n got  %+v\n want %+v", got, megaGridGolden)
	}
}

// crashFingerprint is the comparison record for the master-outage run:
// headline result, the fingerprint of its whole event stream, and the
// recovery event census.
type crashFingerprint struct {
	Response   sim.Time
	Fired      uint64
	Flows      int
	JobsFailed int
	Events     uint64
	Crashed    int
	Recovered  int
	Rereg      int
}

// masterCrashRun drives the 1000-node grid through a double master outage
// whose crash instants sit off any round-second grid (301.017 s, 302 s)
// and whose two-minute repair delay spans hundreds of heartbeats, then
// returns the run's fingerprint.
func masterCrashRun(t *testing.T) crashFingerprint {
	t.Helper()
	sys := core.New(core.LargeGridConfig(1000, grid.ChurnStable, 7))
	log := event.NewLog()
	sys.Subscribe(log)
	sc := core.NewScenario("window-spanning outage").
		CrashNameNodeAt(301*sim.Second + 17*sim.Millisecond).
		CrashJobTrackerAt(302 * sim.Second).
		RestartMastersAfter(421*sim.Second + 300*sim.Millisecond)
	if err := sys.Apply(sc); err != nil {
		t.Fatal(err)
	}
	res := sys.RunWorkload(sched(7, 0.1))
	return crashFingerprint{
		Response:   res.ResponseTime,
		Fired:      sys.Eng.Fired(),
		Flows:      res.Net.FlowsStarted,
		JobsFailed: res.JobsFailed,
		Events:     log.Fingerprint(),
		Crashed:    log.Count(event.MasterCrashed),
		Recovered:  log.Count(event.MasterRecovered),
		Rereg:      log.Count(event.TrackerReregistered),
	}
}

// TestMasterCrashAcrossWindowEquivalence crashes both masters and restarts them
// minutes of simulated time later, so the outage and the recovery traffic
// (safe-mode block reports, tracker re-registrations) interleave with
// ordinary heartbeats and flows. The run, recovery events included, must
// match the recorded fingerprint exactly.
func TestMasterCrashAcrossWindowEquivalence(t *testing.T) {
	got := masterCrashRun(t)
	if got.Crashed != 2 || got.Recovered != 2 {
		t.Fatalf("outage census off: %+v", got)
	}
	if got.Rereg == 0 {
		t.Fatal("no tracker re-registered after the JobTracker restart")
	}
	if got != crashGolden {
		t.Fatalf("master-outage run diverged from the recorded fingerprint:\n got  %+v\n want %+v", got, crashGolden)
	}
}
