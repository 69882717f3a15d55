package hog

import (
	"reflect"
	"strings"
	"testing"

	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
)

func TestFacadeSimulation(t *testing.T) {
	sched := GenerateWorkload(1, 0.05)
	sys, err := New(WithConfig(HOGConfig(15, ChurnNone, 1)))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.RunWorkload(sched)
	if res.JobsFailed != 0 || res.ResponseTime <= 0 {
		t.Fatalf("facade run failed: %d failed, resp %v", res.JobsFailed, res.ResponseTime)
	}
	if s := res.Summary(); s.N != len(res.JobResponses) {
		t.Fatalf("summary N = %d", s.N)
	}
}

func TestFacadeTables(t *testing.T) {
	if len(FacebookBins()) != 9 || len(TruncatedBins()) != 6 {
		t.Fatal("bin tables wrong size")
	}
	if Seconds(2) <= 0 {
		t.Fatal("Seconds broken")
	}
	if len(OSGSites(ChurnStable)) != 5 {
		t.Fatal("OSG sites wrong count")
	}
}

// TestEventStreamDeterminism is the event-stream contract: same seed and
// options give a byte-identical event sequence (asserted via the EventLog
// fingerprint) run after run, and attaching a second observer cannot perturb
// the stream — all under unstable churn with fault injection in play.
func TestEventStreamDeterminism(t *testing.T) {
	run := func(secondObserver bool) (uint64, Time) {
		log, collect := WithEvents()
		opts := []Option{
			WithHOGPool(40, ChurnUnstable),
			WithSeed(17),
			WithZombies(ZombieDiskCheck),
			collect,
			WithScenario(NewScenario("determinism drill").
				SiteOutageAt(Minutes(4), "FNAL_FERMIGRID", 0.8).
				RetargetWhenAliveBelow(30, 50)),
		}
		if secondObserver {
			opts = append(opts, WithObserver(ObserverFunc(func(Event) {})))
		}
		sys, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.RunWorkload(GenerateWorkload(17, 0.1))
		if log.Len() == 0 {
			t.Fatal("no events collected")
		}
		return log.Fingerprint(), res.ResponseTime
	}
	f1, r1 := run(false)
	f2, r2 := run(false)
	f3, r3 := run(true)
	if f1 != f2 || r1 != r2 {
		t.Fatalf("same seed diverged across runs: %016x/%v vs %016x/%v", f1, r1, f2, r2)
	}
	if f1 != f3 || r1 != r3 {
		t.Fatalf("second observer perturbed the run: %016x/%v vs %016x/%v", f1, r1, f3, r3)
	}
}

func TestEventStreamSeedSensitivity(t *testing.T) {
	fp := func(seed int64) uint64 {
		log, collect := WithEvents(EvNodePreempted, EvTaskFinished)
		sys, err := New(WithHOGPool(25, ChurnUnstable), WithSeed(seed), collect)
		if err != nil {
			t.Fatal(err)
		}
		sys.RunWorkload(GenerateWorkload(seed, 0.05))
		return log.Fingerprint()
	}
	if fp(1) == fp(2) {
		t.Fatal("different seeds share an event fingerprint")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("New with no supply did not error")
	}
	if _, err := New(WithHOGPool(0, ChurnNone)); err == nil {
		t.Fatal("non-positive pool target did not error")
	}
	if _, err := New(WithSites()); err == nil {
		t.Fatal("WithSites before a grid supply did not error")
	}
	_, err := New(
		WithHOGPool(10, ChurnNone),
		WithScenario(NewScenario("bad").SiteOutageAt(Seconds(1), "NO_SUCH_SITE", 1.0)),
	)
	if err == nil || !strings.Contains(err.Error(), "NO_SUCH_SITE") {
		t.Fatalf("unknown scenario site error = %v", err)
	}
	// The happy path builds and honours overrides.
	sys, err := New(
		WithHOGPool(10, ChurnNone),
		WithSeed(3),
		WithHDFS(func(c *HDFSConfig) { c.Replication = 4 }),
		WithMapRed(func(c *MapRedConfig) { c.Speculative = false }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.NN.Config().Replication; got != 4 {
		t.Fatalf("replication override lost: %d", got)
	}
	if sys.JT.Config().Speculative {
		t.Fatal("mapred override lost")
	}
}

// TestOptionOrderIndependence pins the builder contract: refinements apply
// after the supply option, so writing them first cannot silently lose them
// to the preset.
func TestOptionOrderIndependence(t *testing.T) {
	sys, err := New(
		WithZombies(ZombieDiskCheck),
		WithSeed(9),
		WithHDFS(func(c *HDFSConfig) { c.Replication = 5 }),
		WithHOGPool(10, ChurnNone), // supply last
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.NN.Config().Replication; got != 5 {
		t.Fatalf("replication refinement clobbered by supply preset: %d", got)
	}
	res := sys.RunWorkload(GenerateWorkload(9, 0.05))
	fwd, err := New(
		WithHOGPool(10, ChurnNone),
		WithZombies(ZombieDiskCheck),
		WithSeed(9),
		WithHDFS(func(c *HDFSConfig) { c.Replication = 5 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	fres := fwd.RunWorkload(GenerateWorkload(9, 0.05))
	if res.ResponseTime != fres.ResponseTime {
		t.Fatalf("option order changed the run: %v vs %v", res.ResponseTime, fres.ResponseTime)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Minutes(5) != 300*Seconds(1) || Hours(1) != Minutes(60) {
		t.Fatal("duration helpers inconsistent")
	}
}

// TestFacadeSnapshotRestoreFork exercises the snapshot surface end to end
// through the facade: a mid-run snapshot restores into a byte-identical
// continuation, a control fork matches the uninterrupted run, and a diverged
// branch refuses to be snapshotted again.
func TestFacadeSnapshotRestoreFork(t *testing.T) {
	sys, err := New(WithHOGPool(30, ChurnStable), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartWorkload(GenerateWorkload(5, 0.05)); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(sys.RunStart() + Minutes(10)); err != nil {
		t.Fatal(err)
	}
	data, err := Snapshot(sys)
	if err != nil {
		t.Fatal(err)
	}
	straight := sys.FinishWorkload()

	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	res := restored.FinishWorkload()
	if res.ResponseTime != straight.ResponseTime || res.JobsFailed != straight.JobsFailed ||
		len(res.JobResponses) != len(straight.JobResponses) {
		t.Fatalf("restored run diverged: %v/%d/%d vs %v/%d/%d",
			res.ResponseTime, res.JobsFailed, len(res.JobResponses),
			straight.ResponseTime, straight.JobsFailed, len(straight.JobResponses))
	}

	branches, err := Fork(data, []*Scenario{
		nil,
		NewScenario("fork outage").SiteOutageAt(Seconds(30), "UCSDT2", 1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	control := branches[0].FinishWorkload()
	if control.ResponseTime != straight.ResponseTime {
		t.Fatalf("control branch diverged from the uninterrupted run: %v vs %v",
			control.ResponseTime, straight.ResponseTime)
	}
	branches[1].FinishWorkload()
	if _, err := Snapshot(branches[1]); err == nil {
		t.Fatal("snapshotting a diverged, finished branch should fail")
	}

	// Scenario specs round-trip through the facade too.
	spec, err := NewScenario("drill").SiteOutageAt(Minutes(1), "UCSDT2", 0.5).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioFromSpec(spec); err != nil {
		t.Fatal(err)
	}
	if SnapshotVersion < 1 {
		t.Fatalf("SnapshotVersion = %d", SnapshotVersion)
	}
}

// TestFacadeOptions covers the options no other test builds with. Each grid
// preset rejects a non-positive target and, at a small one, reaches the
// Config with its own site list; each refinement lands in its Config field;
// and a custom static cluster gets the subsystem defaults and runs.
func TestFacadeOptions(t *testing.T) {
	presets := []struct {
		name  string
		opt   func(int, ChurnProfile) Option
		sites []SiteConfig
	}{
		{"WithLargeGrid", WithLargeGrid, grid.LargeGridSites(ChurnNone)},
		{"WithMegaGrid", WithMegaGrid, grid.MegaGridSites(ChurnNone)},
		{"WithGigaGrid", WithGigaGrid, grid.GigaGridSites(ChurnNone)},
	}
	for _, p := range presets {
		for _, bad := range []int{0, -1} {
			_, err := New(p.opt(bad, ChurnNone))
			if err == nil || !strings.Contains(err.Error(), p.name+": non-positive target") {
				t.Errorf("%s(%d): error %v, want a non-positive target error", p.name, bad, err)
			}
		}
		sys, err := New(p.opt(8, ChurnNone), WithSeed(4))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		cfg := sys.Config()
		if cfg.Grid == nil || cfg.Grid.TargetNodes != 8 || !reflect.DeepEqual(cfg.Grid.Sites, p.sites) || cfg.Seed != 4 {
			t.Errorf("%s(8) with seed 4 built %+v", p.name, cfg.Grid)
		}
	}

	costs := JobCosts{MapCostPerMB: Seconds(1), SortCostPerMB: Seconds(2), ReduceCostPerMB: Seconds(3),
		MapSelectivity: 0.5, ReduceSelectivity: 0.25}
	refinements := []struct {
		name string
		opt  Option
		got  func(Config) any
		want any
	}{
		{"WithCosts", WithCosts(costs), func(c Config) any { return c.Costs }, costs},
		{"WithRunBound", WithRunBound(Hours(3)), func(c Config) any { return c.RunBound }, Hours(3)},
		{"WithSampleInterval", WithSampleInterval(Seconds(7)), func(c Config) any { return c.SampleInterval }, Seconds(7)},
		{"WithNet", WithNet(func(c *NetConfig) { c.WANFlowBps = 1e6 }), func(c Config) any { return c.Net.WANFlowBps }, 1e6},
	}
	for _, r := range refinements {
		sys, err := New(WithHOGPool(8, ChurnNone), r.opt)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := r.got(sys.Config()); got != r.want {
			t.Errorf("%s: Config field %v, want %v", r.name, got, r.want)
		}
	}

	if _, err := New(WithStaticGroups()); err == nil || !strings.Contains(err.Error(), "WithStaticGroups: no groups") {
		t.Errorf("WithStaticGroups(): error %v, want a no-groups error", err)
	}
	group := StaticGroup{Count: 6, MapSlots: 2, ReduceSlots: 1, DiskBytes: 100e9, Domain: "lab.local", Speed: 1}
	sys, err := New(WithStaticGroups(group), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.Grid != nil || !reflect.DeepEqual(cfg.Static, []StaticGroup{group}) {
		t.Errorf("WithStaticGroups built grid %+v, static %+v", cfg.Grid, cfg.Static)
	}
	if cfg.Net != netmodel.DefaultConfig() || cfg.HDFS != hdfs.DefaultConfig() || !reflect.DeepEqual(cfg.MapRed, mapred.DefaultConfig()) {
		t.Errorf("WithStaticGroups did not fill the subsystem defaults: net %+v, hdfs %+v, mapred %+v", cfg.Net, cfg.HDFS, cfg.MapRed)
	}
	res := sys.RunWorkload(GenerateWorkload(4, 0.05))
	if res.JobsFailed != 0 || len(res.JobResponses) == 0 {
		t.Fatalf("static cluster run: %d jobs done, %d failed", len(res.JobResponses), res.JobsFailed)
	}
}
