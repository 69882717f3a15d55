package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/workload"
)

// fingerprint collapses a finished run into a comparable struct: the full
// event-log fingerprint plus the Result fields the experiments report.
type fingerprint struct {
	Events       uint64
	Total        int
	ResponseTime sim.Time
	Start, End   sim.Time
	JobsFailed   int
	Jobs         int
	TaskSeconds  float64
	NNHash       uint64
	NetHash      uint64
	GridHash     uint64
	Draws        uint64
	Seq          uint64
}

func fp(log *event.Log, sys *core.System, res *core.Result) fingerprint {
	f := fingerprint{
		Events:       log.Fingerprint(),
		Total:        log.Total(),
		ResponseTime: res.ResponseTime,
		Start:        res.Start,
		End:          res.End,
		JobsFailed:   res.JobsFailed,
		Jobs:         len(res.JobResponses),
		TaskSeconds:  res.TaskSeconds,
		NNHash:       sys.NN.Census().Hash,
		NetHash:      sys.Net.Census().Hash,
		Draws:        sys.Eng.RandDraws(),
		Seq:          sys.Eng.SeqCount(),
	}
	if sys.Pool != nil {
		f.GridHash = sys.Pool.Census().Hash
	}
	return f
}

func sched(seed int64, scale float64) *workload.Schedule {
	return workload.Generate(seed, workload.Config{Scale: scale})
}

// straightRun runs cfg to completion uninterrupted.
func straightRun(t *testing.T, cfg core.Config, sc *core.Scenario) fingerprint {
	t.Helper()
	log := event.NewLog()
	sys, err := core.NewSystem(cfg, log)
	if err != nil {
		t.Fatal(err)
	}
	if sc != nil {
		if err := sys.Apply(sc); err != nil {
			t.Fatal(err)
		}
	}
	res := sys.RunWorkload(sched(cfg.Seed, 0.1))
	return fp(log, sys, res)
}

// snapshotRun starts the same run, snapshots at frac of the schedule span,
// restores from the bytes, and finishes the restored system.
func snapshotRun(t *testing.T, cfg core.Config, sc *core.Scenario, frac float64) fingerprint {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc != nil {
		if err := sys.Apply(sc); err != nil {
			t.Fatal(err)
		}
	}
	s := sched(cfg.Seed, 0.1)
	if err := sys.StartWorkload(s); err != nil {
		t.Fatal(err)
	}
	cut := sys.RunStart() + sim.Time(float64(s.Span())*frac)
	if err := sys.RunTo(cut); err != nil {
		t.Fatal(err)
	}
	data, err := Save(sys)
	if err != nil {
		t.Fatal(err)
	}
	log := event.NewLog()
	restored, err := Restore(data, log)
	if err != nil {
		t.Fatal(err)
	}
	res := restored.FinishWorkload()
	return fp(log, restored, res)
}

// policyPoints covers every decision point's non-default choice plus the
// default, each named on its subsystem config.
var policyPoints = []struct {
	name string
	set  func(*core.Config)
}{
	{"default", func(*core.Config) {}},
	{"fair", func(c *core.Config) { c.MapRed.SchedulerPolicy = "fair" }},
	{"site-load", func(c *core.Config) { c.MapRed.SpeculationPolicy = "site-load" }},
	{"random", func(c *core.Config) { c.HDFS.PlacementPolicy = "random" }},
	{"rarest", func(c *core.Config) { c.HDFS.ReplicationOrder = "rarest" }},
}

// TestRoundTrip1k: a 1k-node LARGE-GRID run snapshotted mid-run and
// restored is byte-identical to the uninterrupted run — under the default
// policies and under every registered policy's non-default choice. The
// "seq" leaf names the engine, the sequential timing wheel.
func TestRoundTrip1k(t *testing.T) {
	for _, pp := range policyPoints {
		pp := pp
		t.Run(pp.name+"/seq", func(t *testing.T) {
			t.Parallel()
			cfg := core.LargeGridConfig(1000, grid.ChurnStable, 7)
			pp.set(&cfg)
			want := straightRun(t, cfg, nil)
			got := snapshotRun(t, cfg, nil, 0.5)
			if want != got {
				t.Fatalf("restored run diverged from straight run:\n want %+v\n got  %+v", want, got)
			}
		})
	}
}

// TestRoundTrip10k: the MEGA-GRID acceptance point on the sequential
// timing wheel ("seq"). Heavy; skipped in -short and race runs.
func TestRoundTrip10k(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("10k-node round trip is heavy; skipped in -short/race runs")
	}
	t.Run("seq", func(t *testing.T) {
		cfg := core.MegaGridConfig(10000, grid.ChurnStable, 7)
		want := straightRun(t, cfg, nil)
		got := snapshotRun(t, cfg, nil, 0.5)
		if want != got {
			t.Fatalf("restored MEGA-GRID run diverged:\n want %+v\n got  %+v", want, got)
		}
	})
}

// TestRoundTripWithScenario: scenarios (including master faults) ride in
// the snapshot and replay identically — here with the snapshot cut placed
// mid-safe-mode, after a namenode crash and before its restart completes.
func TestRoundTripMidMasterCrash(t *testing.T) {
	sc := func() *core.Scenario {
		return core.NewScenario("crash").
			CrashNameNodeAt(60 * sim.Second).
			RestartMastersAfter(240 * sim.Second)
	}
	cfg := core.LargeGridConfig(1000, grid.ChurnStable, 11)
	want := straightRun(t, cfg, sc())

	// Cut inside the crash window: after the crash at start+60, before the
	// restart at start+240.
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Apply(sc()); err != nil {
		t.Fatal(err)
	}
	s := sched(cfg.Seed, 0.1)
	if err := sys.StartWorkload(s); err != nil {
		t.Fatal(err)
	}
	cut := sys.RunStart() + 90*sim.Second
	if err := sys.RunTo(cut); err != nil {
		t.Fatal(err)
	}
	if !sys.NN.Down() {
		t.Fatalf("test setup: namenode not down at cut instant %v", cut)
	}
	data, err := Save(sys)
	if err != nil {
		t.Fatal(err)
	}
	log := event.NewLog()
	restored, err := Restore(data, log)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.NN.Down() {
		t.Fatal("restored system lost the mid-crash state: namenode is up")
	}
	res := restored.FinishWorkload()
	if got := fp(log, restored, res); want != got {
		t.Fatalf("mid-crash restored run diverged:\n want %+v\n got  %+v", want, got)
	}
}

// TestRoundTripMidSafeMode cuts during the namenode's safe-mode window
// right after restart.
func TestRoundTripMidSafeMode(t *testing.T) {
	sc := func() *core.Scenario {
		return core.NewScenario("crash").
			CrashNameNodeAt(60 * sim.Second).
			RestartMastersAfter(120 * sim.Second)
	}
	cfg := core.LargeGridConfig(1000, grid.ChurnStable, 11)
	want := straightRun(t, cfg, sc())

	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Apply(sc()); err != nil {
		t.Fatal(err)
	}
	s := sched(cfg.Seed, 0.1)
	if err := sys.StartWorkload(s); err != nil {
		t.Fatal(err)
	}
	// Probe forward in small steps from the restart instant until the
	// namenode is observably in safe mode (awaiting block reports); the
	// window closes as heartbeats deliver reports, so its width depends on
	// heartbeat phase. Incremental RunTo calls compose without changing
	// the run.
	start := sys.RunStart()
	for off := 120*sim.Second + 50*sim.Millisecond; off < 220*sim.Second; off += 500 * sim.Millisecond {
		if err := sys.RunTo(start + off); err != nil {
			t.Fatal(err)
		}
		if sys.NN.InSafeMode() {
			break
		}
	}
	if !sys.NN.InSafeMode() {
		t.Skipf("namenode never observed in safe mode in the probe window")
	}
	data, err := Save(sys)
	if err != nil {
		t.Fatal(err)
	}
	log := event.NewLog()
	restored, err := Restore(data, log)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.NN.InSafeMode() {
		t.Fatal("restored system lost the safe-mode state")
	}
	res := restored.FinishWorkload()
	if got := fp(log, restored, res); want != got {
		t.Fatalf("mid-safe-mode restored run diverged:\n want %+v\n got  %+v", want, got)
	}
}

// TestForkDeterminism: forking one snapshot into N branches yields
// identical results per branch across repeated forks, and a divergence
// branch actually diverges from the control.
func TestForkDeterminism(t *testing.T) {
	cfg := core.LargeGridConfig(1000, grid.ChurnStable, 5)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sched(cfg.Seed, 0.1)
	if err := sys.StartWorkload(s); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(sys.RunStart() + s.Span()/2); err != nil {
		t.Fatal(err)
	}
	data, err := Save(sys)
	if err != nil {
		t.Fatal(err)
	}
	outage := func() *core.Scenario {
		return core.NewScenario("outage").SiteOutageAt(30*sim.Second, "BNL_ATLAS", 0.9)
	}
	run := func() (control, diverged fingerprint) {
		branches, err := Fork(data, []*core.Scenario{nil, outage()})
		if err != nil {
			t.Fatal(err)
		}
		c := branches[0].FinishWorkload()
		d := branches[1].FinishWorkload()
		return fp(event.NewLog(), branches[0], c), fp(event.NewLog(), branches[1], d)
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("fork branches are not deterministic:\n c1 %+v\n c2 %+v\n d1 %+v\n d2 %+v", c1, c2, d1, d2)
	}
	if c1 == d1 {
		t.Fatal("divergence branch produced the identical run; the scenario did not apply")
	}
	// A diverged branch must refuse to snapshot.
	branches, err := Fork(data, []*core.Scenario{outage()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Save(branches[0]); err == nil {
		t.Fatal("Save accepted a diverged fork branch")
	}
}

// savedContainer returns a real container: a 60-node HOG system saved
// before its workload starts.
func savedContainer(tb testing.TB) []byte {
	tb.Helper()
	sys, err := core.NewSystem(core.HOGConfig(60, grid.ChurnStable, 3))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := Save(sys)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// withHeader returns a copy of data with its version and payload-length
// header fields replaced.
func withHeader(data []byte, version uint32, n uint64) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[8:12], version)
	binary.LittleEndian.PutUint64(out[12:20], n)
	return out
}

// badContainer is a malformed container and the sentinel it must fail with.
type badContainer struct {
	name string
	data []byte
	want error
}

// badContainers derives the malformed containers the reader must reject
// from a valid one.
func badContainers(data []byte) []badContainer {
	n := uint64(len(data) - 28)
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	return []badContainer{
		{"bad magic", append([]byte("not a snapshot, promise"), data...), ErrNotSnapshot},
		{"truncated", data[:len(data)-9], ErrTruncated},
		{"tiny", data[:5], ErrTruncated},
		{"corrupted", flipped, ErrCorrupt},
		{"future version", withHeader(data, 99, n), ErrVersion},
		// v2 containers still carried the engine selectors.
		{"v2", withHeader(data, 2, n), ErrVersion},
		// v3 containers still carried mapred's ScanScheduler.
		{"v3", withHeader(data, 3, n), ErrVersion},
		// v4 containers carried the config mirror with kind-tagged
		// distributions and the top-level policies block.
		{"v4", withHeader(data, 4, n), ErrVersion},
		// A length within 8 of 2^64 wraps if the checksum's 8 bytes are
		// added to it; the reader must still see a truncated container.
		{"length wraps", withHeader(data[:28], Version, 1<<64-8), ErrTruncated},
		{"length max", withHeader(data[:28], Version, 1<<64-1), ErrTruncated},
		{"length past body", withHeader(data, Version, n+1), ErrTruncated},
	}
}

// TestContainerRejection: corrupted, truncated, and version-mismatched
// snapshots are rejected with the right sentinel errors.
func TestContainerRejection(t *testing.T) {
	data := savedContainer(t)
	if _, err := Restore(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	for _, bc := range badContainers(data) {
		if _, err := Restore(bc.data); !errors.Is(err, bc.want) {
			t.Fatalf("%s: got %v, want %v", bc.name, err, bc.want)
		}
	}
	_, err := Restore(withHeader(data, 99, uint64(len(data)-28)))
	if !strings.Contains(err.Error(), "v99") {
		t.Fatalf("version error does not name the found version: %v", err)
	}
}

// FuzzUnframe: the container reader never panics. Anything it accepts is
// a well-formed frame whose checksum verifies — re-framing the returned
// payload reproduces the input's leading bytes; everything else is an
// error.
func FuzzUnframe(f *testing.F) {
	data := savedContainer(f)
	f.Add(data)
	for _, bc := range badContainers(data) {
		f.Add(bc.data)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		body, err := unframe(in)
		if err != nil {
			return
		}
		framed := frame(body)
		if len(framed) > len(in) || !bytes.Equal(framed, in[:len(framed)]) {
			t.Fatalf("accepted %d bytes that are not a frame of the returned %d-byte payload", len(in), len(body))
		}
	})
}

// TestSaveRejections: finished runs and When-scenario systems cannot save.
func TestSaveRejections(t *testing.T) {
	cfg := core.HOGConfig(60, grid.ChurnStable, 3)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunWorkload(sched(cfg.Seed, 0.05))
	if _, err := Save(sys); err == nil {
		t.Fatal("Save accepted a finished run")
	}

	// A mid-run fork branch that diverged is not reproducible from its
	// recipe.
	sys2, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.StartWorkload(sched(cfg.Seed, 0.05)); err != nil {
		t.Fatal(err)
	}
	if err := sys2.RunTo(sys2.RunStart() + 10*sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sys2.ApplyDivergence(core.NewScenario("drill").ChurnBurst(sim.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Save(sys2); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("Save of a diverged branch = %v, want a diverged error", err)
	}
}

// TestScenarioSpecRoundTrip: every typed verb survives Spec → JSON →
// ScenarioFromSpec, the path snapshots and /fork bodies take.
func TestScenarioSpecRoundTrip(t *testing.T) {
	sc := core.NewScenario("all-verbs").
		Poll(7*sim.Second).
		SiteOutageAt(10*sim.Second, "BNL_ATLAS", 0.5).
		ChurnBurst(20*sim.Second, 0.25).
		KillFraction(30*sim.Second, 0.1).
		RetargetPool(40*sim.Second, 50).
		RebalanceAt(50*sim.Second, 0.1, 10).
		DegradeNetwork(60*sim.Second, "BNL_ATLAS", 0.5).
		CrashNameNodeAt(70*sim.Second).
		CrashJobTrackerAt(80*sim.Second).
		RestartMastersAfter(90*sim.Second).
		RetargetWhenAliveBelow(10, 100).
		PartitionSiteAt(100*sim.Second, "MIT_CMS", "in").
		PartitionNodesAt(110*sim.Second, "UCSDT2", 2, "out").
		HealPartitionAt(120*sim.Second, "MIT_CMS").
		DegradeNodesAt(130*sim.Second, "AGLT2", 3, 4, 0.25).
		RestoreNodesAt(140*sim.Second, "AGLT2").
		CorruptReplicasAt(150*sim.Second, "/in/job", 2)
	spec, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	verbs := make(map[string]bool)
	for _, st := range spec.Steps {
		verbs[st.Verb] = true
	}
	if len(verbs) != 16 {
		t.Fatalf("spec carries %d distinct verbs, want all 16", len(verbs))
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.ScenarioSpec
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := core.ScenarioFromSpec(decoded)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := back.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Steps) != len(spec2.Steps) || spec.Name != spec2.Name || spec.Poll != spec2.Poll {
		t.Fatalf("spec round trip changed shape: %+v vs %+v", spec, spec2)
	}
	for i := range spec.Steps {
		if spec.Steps[i] != spec2.Steps[i] {
			t.Fatalf("step %d changed: %+v vs %+v", i, spec.Steps[i], spec2.Steps[i])
		}
	}
	if _, err := core.ScenarioFromSpec(core.ScenarioSpec{Name: "x", Steps: []core.StepSpec{{Verb: "no-such-verb"}}}); err == nil {
		t.Fatal("unknown verb accepted")
	}
}
