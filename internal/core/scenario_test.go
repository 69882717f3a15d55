package core

import (
	"math"
	"strings"
	"testing"

	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/sim"
)

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no supply", Config{Seed: 1}, "no worker supply"},
		{"both supplies", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Static = []StaticGroup{{Count: 1, MapSlots: 1}}
			return c
		}(), "mutually exclusive"},
		{"no sites", Config{Seed: 1, Grid: &GridConfig{TargetNodes: 10}}, "no sites"},
		{"negative target", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.TargetNodes = -5
			return c
		}(), "negative grid target"},
		{"unnamed site", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.Sites[2].Name = ""
			return c
		}(), "has no name"},
		{"duplicate site", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.Sites[1].Name = c.Grid.Sites[0].Name
			return c
		}(), "duplicate site name"},
		// A negative offset or mean once passed here and panicked at the
		// first sample with "sim: Schedule in the past".
		{"negative lifetime mean", func() Config {
			c := HOGConfig(10, grid.ChurnStable, 1)
			c.Grid.Sites[3].NodeLifetime.Mean = -sim.Hour
			return c
		}(), "node lifetime {Offset:"},
		{"negative lifetime offset", func() Config {
			c := HOGConfig(10, grid.ChurnStable, 1)
			c.Grid.Sites[0].NodeLifetime.Offset = -sim.Second
			return c
		}(), "node lifetime {Offset:"},
		{"negative batch preemption mean", func() Config {
			c := HOGConfig(10, grid.ChurnStable, 1)
			c.Grid.Sites[1].BatchPreemptEvery.Mean = -sim.Minute
			return c
		}(), "batch preemption interval {Offset:"},
		{"negative provision delay offset", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.Pool.ProvisionDelay.Offset = -sim.Minute
			return c
		}(), "pool provision delay {Offset:"},
		{"tiny block size", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.HDFS.BlockSize = 64
			return c
		}(), "below the 1048576-byte minimum"},
		{"negative provision delay mean", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.Pool.ProvisionDelay.Mean = -1
			return c
		}(), "pool provision delay {Offset:"},
		// start+bound once overflowed the int64 clock: the run ended at
		// once, or a step anchored below the bound (a crash at MaxInt64-1s)
		// passed Apply and StartWorkload panicked.
		{"run bound above ceiling", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.RunBound = math.MaxInt64
			return c
		}(), "run bound"},
		// A supply this large queued or built one worker each.
		{"grid capacity above ceiling", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.Sites[0].Capacity = maxWorkers
			return c
		}(), "grid site capacities sum above"},
		{"grid capacity overflowing the sum", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.Sites[1].Capacity = math.MaxInt
			return c
		}(), "grid site capacities sum above"},
		{"static count above ceiling", func() Config {
			c := DedicatedClusterConfig(1)
			c.Static = append(c.Static, StaticGroup{Count: maxWorkers, MapSlots: 1})
			return c
		}(), "static group counts sum above"},
		{"static count overflowing the sum", func() Config {
			c := DedicatedClusterConfig(1)
			c.Static = append(c.Static, StaticGroup{Count: math.MaxInt, MapSlots: 1}, StaticGroup{Count: math.MaxInt, MapSlots: 1})
			return c
		}(), "static group counts sum above"},
		{"provision bound above ceiling", func() Config {
			c := HOGConfig(10, grid.ChurnNone, 1)
			c.Grid.ProvisionBound = math.MaxInt64
			return c
		}(), "provision bound"},
	}
	for _, tc := range cases {
		sys, err := NewSystem(tc.cfg)
		if err == nil || sys != nil {
			t.Fatalf("%s: NewSystem accepted invalid config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// New panics with the same validator message.
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: New did not panic", tc.name)
				}
				if msg, ok := r.(string); !ok || msg != err.Error() {
					t.Fatalf("%s: panic %v != validator error %q", tc.name, r, err)
				}
			}()
			New(tc.cfg)
		}()
	}
}

// osgCapacity is the most workers the five OSG sites of HOGConfig hold.
const osgCapacity = 400 + 350 + 250 + 200 + 150

// TestRunBoundCeiling checks that the run bound's ceiling is itself safe:
// a step anchored one second below it is admitted and armed without
// overflowing the clock. (A bound past the ceiling is refused at
// construction; TestValidateErrors.)
func TestRunBoundCeiling(t *testing.T) {
	cfg := HOGConfig(12, grid.ChurnNone, 1)
	cfg.RunBound = maxBound
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("bound at the ceiling rejected: %v", err)
	}
	if err := sys.Apply(NewScenario("far").CrashNameNodeAt(maxBound - sim.Second)); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartWorkload(tinySchedule(1)); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(sys.RunStart() + sim.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRequestsBounded replays the memory hazard of an unbounded pool
// target: the pool queued one provision event per missing worker, so a
// retarget to 1e12 in a /fork body or a snapshot exhausted memory. Whatever
// sets the target — an applied scenario, a divergence, the config — the
// pool now keeps at most its sites' capacity alive or requested.
func TestPoolRequestsBounded(t *testing.T) {
	const target = 200_000 // the pool once queued a request for each
	bounded := func(name string, sys *System, capacity int) {
		t.Helper()
		if n := sys.Pool.AliveCount() + sys.Pool.InFlight(); n > capacity {
			t.Fatalf("%s: %d workers alive or requested, above the sites' capacity %d", name, n, capacity)
		}
	}
	applied := New(HOGConfig(10, grid.ChurnNone, 1))
	if err := applied.Apply(NewScenario("grow").RetargetPool(sim.Second, target)); err != nil {
		t.Fatal(err)
	}
	if err := applied.StartWorkload(tinySchedule(1)); err != nil {
		t.Fatal(err)
	}
	if err := applied.RunTo(applied.RunStart() + 2*sim.Second); err != nil {
		t.Fatal(err)
	}
	bounded("Apply", applied, osgCapacity)

	diverged := midRun(t, nil)
	if err := diverged.ApplyDivergence(NewScenario("heal").RetargetWhenAliveBelow(11, target)); err != nil {
		t.Fatal(err)
	}
	if err := diverged.RunTo(diverged.Eng.Now() + sim.Minute); err != nil {
		t.Fatal(err)
	}
	if got := diverged.Pool.Target(); got != target {
		t.Fatalf("divergence never retargeted: target %d", got)
	}
	bounded("ApplyDivergence", diverged, osgCapacity)

	cfg := HOGConfig(target, grid.ChurnNone, 1)
	for i := range cfg.Grid.Sites {
		cfg.Grid.Sites[i].Capacity = 4
	}
	cfg.Grid.ProvisionBound = 20 * sim.Minute
	sys := New(cfg)
	if got := sys.AwaitNodes(); got != 20 {
		t.Fatalf("pool reached %d workers, want every site full (20)", got)
	}
	bounded("config", sys, 20)
}

func TestScenarioValidation(t *testing.T) {
	grids := New(HOGConfig(10, grid.ChurnNone, 1))
	static := New(DedicatedClusterConfig(1))
	cases := []struct {
		name string
		sys  *System
		sc   *Scenario
		want string
	}{
		{"unknown site", grids, NewScenario("x").SiteOutageAt(sim.Second, "NOPE", 1.0), `no site named "NOPE"`},
		{"bad fraction", grids, NewScenario("x").SiteOutageAt(sim.Second, "UCSDT2", 1.5), "outside (0,1]"},
		{"zero fraction", grids, NewScenario("x").ChurnBurst(sim.Second, 0), "outside (0,1]"},
		{"negative offset", grids, NewScenario("x").RetargetPool(-sim.Second, 5), "negative offset"},
		{"empty", grids, NewScenario("x"), "no actions"},
		{"pool action on static", static, NewScenario("x").KillFraction(sim.Second, 0.5), "static cluster has no pool"},
		{"unknown net site", static, NewScenario("x").DegradeNetwork(sim.Second, "NOPE", 0.5), "no network site"},
		{"bad poll", grids, NewScenario("x").Poll(0).RetargetPool(sim.Second, 5), "poll interval"},
		{"microsecond poll", grids, NewScenario("x").Poll(sim.Microsecond).RetargetPool(sim.Second, 5), "poll interval"},
		{"offset beyond run bound", grids, NewScenario("x").CrashNameNodeAt(49 * sim.Hour), "beyond the run bound"},
		{"poll beyond run bound", grids, NewScenario("x").Poll(49*sim.Hour).RetargetWhenAliveBelow(5, 12), "beyond the run bound"},
	}
	for _, tc := range cases {
		if err := tc.sys.Apply(tc.sc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Apply error %v does not mention %q", tc.name, err, tc.want)
		}
	}
	// A valid scenario applies cleanly, and degrading the static cluster's
	// own site is allowed.
	if err := grids.Apply(NewScenario("ok").SiteOutageAt(sim.Second, "UCSDT2", 0.5)); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	ok := NewScenario("ok").DegradeNetwork(sim.Second, "cluster.local", 0.5)
	if err := static.Apply(ok); err != nil {
		t.Fatalf("static DegradeNetwork rejected: %v", err)
	}
	// A step added after Apply was never validated, so it must not reach
	// the system: this pool action on the static cluster once fired and
	// dereferenced its nil pool.
	ok.KillFraction(2*sim.Second, 0.5)
	if specs := static.ScenarioSpecs(); len(specs) != 1 || len(specs[0].Steps) != 1 {
		t.Fatalf("applied specs = %+v, want the one step validated at Apply", specs)
	}
	static.RunWorkload(tinySchedule(1))
}

// midRun returns a small HOG system two simulated minutes into its
// workload, the state a fork divergence is applied to.
func midRun(t *testing.T, base *Scenario) *System {
	t.Helper()
	sys := New(HOGConfig(10, grid.ChurnNone, 1))
	if base != nil {
		if err := sys.Apply(base); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.StartWorkload(tinySchedule(1)); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(sys.RunStart() + 2*sim.Minute); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestScenarioSameInstantConflicts exercises the rejection of two
// same-instant steps acting on the same target, whose declaration-order
// outcome the author cannot have meant — and the combinations that must
// stay legal. Apply and ApplyDivergence share the check.
func TestScenarioSameInstantConflicts(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
		want string // substring of the Apply error; "" = must be accepted
	}{
		{"crash and restart namenode same instant",
			NewScenario("x").CrashNameNodeAt(sim.Minute).RestartMastersAfter(sim.Minute), "same instant"},
		{"restart then crash same instant",
			NewScenario("x").RestartMastersAfter(sim.Minute).CrashJobTrackerAt(sim.Minute), "same instant"},
		{"two outages of one site same instant",
			NewScenario("x").SiteOutageAt(sim.Minute, "UCSDT2", 0.5).SiteOutageAt(sim.Minute, "UCSDT2", 1.0), "same instant"},
		{"churn burst and kill fraction same instant",
			NewScenario("x").ChurnBurst(sim.Minute, 0.1).KillFraction(sim.Minute, 0.1), "same instant"},
		{"both masters crash same instant",
			NewScenario("x").CrashNameNodeAt(sim.Minute).CrashJobTrackerAt(sim.Minute), ""},
		{"different sites same instant",
			NewScenario("x").SiteOutageAt(sim.Minute, "UCSDT2", 0.5).SiteOutageAt(sim.Minute, "FNAL_FERMIGRID", 0.5), ""},
		{"same site different instants",
			NewScenario("x").SiteOutageAt(sim.Minute, "UCSDT2", 0.5).SiteOutageAt(2*sim.Minute, "UCSDT2", 0.5), ""},
		{"outage and network degrade of one site same instant",
			NewScenario("x").SiteOutageAt(sim.Minute, "UCSDT2", 0.5).DegradeNetwork(sim.Minute, "UCSDT2", 0.1), ""},
		{"crash with unrelated outage same instant",
			NewScenario("x").CrashNameNodeAt(sim.Minute).SiteOutageAt(sim.Minute, "UCSDT2", 0.5), ""},
	}
	for _, tc := range cases {
		for _, apply := range []struct {
			name string
			fn   func(*Scenario) error
		}{
			{"Apply", New(HOGConfig(10, grid.ChurnNone, 1)).Apply},
			{"ApplyDivergence", midRun(t, nil).ApplyDivergence},
		} {
			err := apply.fn(tc.sc)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("%s: %s rejected legal scenario: %v", tc.name, apply.name, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: %s error %v does not mention %q", tc.name, apply.name, err, tc.want)
			}
		}
	}
	// Conflicts are also caught across separately applied scenarios, and a
	// rejected scenario leaves no residue blocking a corrected one.
	sys := New(HOGConfig(10, grid.ChurnNone, 1))
	if err := sys.Apply(NewScenario("first").CrashNameNodeAt(sim.Minute)); err != nil {
		t.Fatal(err)
	}
	err := sys.Apply(NewScenario("second").RestartMastersAfter(sim.Minute))
	if err == nil || !strings.Contains(err.Error(), "already-applied") {
		t.Fatalf("cross-scenario conflict error = %v", err)
	}
	if err := sys.Apply(NewScenario("second").RestartMastersAfter(2 * sim.Minute)); err != nil {
		t.Fatalf("corrected scenario rejected: %v", err)
	}
	// A divergence offset counts from the fork instant, so a restart that
	// lands on an applied crash at 5m past the workload start conflicts.
	mid := midRun(t, NewScenario("base").CrashNameNodeAt(5*sim.Minute))
	crash := 5*sim.Minute - (mid.Eng.Now() - mid.RunStart())
	err = mid.ApplyDivergence(NewScenario("fork").RestartMastersAfter(crash))
	if err == nil || !strings.Contains(err.Error(), "already-applied") {
		t.Fatalf("divergence conflict with an applied step = %v", err)
	}
	if err := mid.ApplyDivergence(NewScenario("fork").RestartMastersAfter(crash + sim.Second)); err != nil {
		t.Fatalf("divergence at a free instant rejected: %v", err)
	}
}

func TestScenarioRejectedAfterWorkloadStart(t *testing.T) {
	sys := New(HOGConfig(10, grid.ChurnNone, 1))
	sys.RunWorkload(tinySchedule(1))
	err := sys.Apply(NewScenario("late").RetargetPool(sim.Second, 5))
	if err == nil || !strings.Contains(err.Error(), "after the workload started") {
		t.Fatalf("late Apply error = %v", err)
	}
}

// TestScenarioMatchesManualInjection pins the scenario path to the raw
// engine scripting it replaced: a scripted site outage must reproduce the
// legacy AwaitNodes + Eng.After + index-based PreemptSite sequence exactly —
// same response, same data damage, same pool accounting.
func TestScenarioMatchesManualInjection(t *testing.T) {
	build := func() *System {
		cfg := HOGConfig(60, grid.ChurnNone, 11)
		cfg.HDFS.Replication = 2
		cfg.HDFS.PlacementPolicy = hdfs.PlacementFlat
		return New(cfg)
	}
	manual := build()
	manual.AwaitNodes()
	manual.Eng.After(300*sim.Second, func() { manual.Pool.PreemptSite(0, 1.0) })
	mres := manual.RunWorkload(tinySchedule(11))

	scripted := build()
	if err := scripted.Apply(NewScenario("outage").SiteOutageAt(300*sim.Second, "FNAL_FERMIGRID", 1.0)); err != nil {
		t.Fatal(err)
	}
	sres := scripted.RunWorkload(tinySchedule(11))

	if mres.ResponseTime != sres.ResponseTime {
		t.Fatalf("response: manual %v vs scenario %v", mres.ResponseTime, sres.ResponseTime)
	}
	if mres.NN.BlocksLost != sres.NN.BlocksLost || mres.JobsFailed != sres.JobsFailed {
		t.Fatalf("damage: manual (%d,%d) vs scenario (%d,%d)",
			mres.NN.BlocksLost, mres.JobsFailed, sres.NN.BlocksLost, sres.JobsFailed)
	}
	if mres.Pool != sres.Pool {
		t.Fatalf("pool stats: manual %+v vs scenario %+v", mres.Pool, sres.Pool)
	}
	if mres.Net != sres.Net {
		t.Fatalf("net stats: manual %+v vs scenario %+v", mres.Net, sres.Net)
	}
}

func TestScenarioConditionalRetarget(t *testing.T) {
	log := event.NewLog(event.SiteOutage, event.PoolRetarget)
	cfg := HOGConfig(60, grid.ChurnNone, 7)
	sys, err := NewSystem(cfg, log)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario("self-healing outage").
		SiteOutageAt(200*sim.Second, "FNAL_FERMIGRID", 1.0).
		RetargetWhenAliveBelow(55, 90)
	if err := sys.Apply(sc); err != nil {
		t.Fatal(err)
	}
	sys.RunWorkload(tinySchedule(7))
	if log.Count(event.SiteOutage) != 1 {
		t.Fatalf("site outages = %d, want 1", log.Count(event.SiteOutage))
	}
	// Retargets: workload start (60) + conditional self-heal (90), once.
	var targets []int
	for _, e := range log.Events() {
		if e.Type == event.PoolRetarget {
			targets = append(targets, e.Value)
		}
	}
	if len(targets) != 2 || targets[0] != 60 || targets[1] != 90 {
		t.Fatalf("retarget sequence = %v, want [60 90]", targets)
	}
	if got := sys.Pool.Target(); got != 90 {
		t.Fatalf("final target = %d, want 90", got)
	}
	for _, e := range log.Events() {
		if e.Type == event.SiteOutage && (e.Site != "FNAL_FERMIGRID" || e.Value <= 0) {
			t.Fatalf("bad SiteOutage event %+v", e)
		}
	}
}

func TestScenarioDegradeNetworkSlowsRun(t *testing.T) {
	run := func(sc *Scenario) sim.Time {
		sys := New(HOGConfig(30, grid.ChurnNone, 3))
		if sc != nil {
			if err := sys.Apply(sc); err != nil {
				t.Fatal(err)
			}
		}
		return sys.RunWorkload(tinySchedule(3)).ResponseTime
	}
	base := run(nil)
	sc := NewScenario("wan brownout")
	for _, site := range grid.OSGSites(grid.ChurnNone) {
		sc.DegradeNetwork(0, site.Name, 0.02)
	}
	degraded := run(sc)
	if degraded <= base {
		t.Fatalf("50x WAN degradation did not slow the run: base %v, degraded %v", base, degraded)
	}
}

// TestStaticJoinEventsVisible asserts that observers passed to NewSystem see
// construction-time events: the dedicated cluster's 30 node joins.
func TestStaticJoinEventsVisible(t *testing.T) {
	log := event.NewLog(event.NodeJoined)
	sys, err := NewSystem(DedicatedClusterConfig(1), log)
	if err != nil {
		t.Fatal(err)
	}
	if log.Count(event.NodeJoined) != 30 {
		t.Fatalf("static joins observed = %d, want 30", log.Count(event.NodeJoined))
	}
	// A late Subscribe misses them by design but sees later events.
	late := event.NewLog()
	sys.Subscribe(late)
	if late.Total() != 0 {
		t.Fatal("late observer saw past events")
	}
	sys.RunWorkload(tinySchedule(1))
	if late.Count(event.JobSubmitted) == 0 || late.Count(event.TaskFinished) == 0 {
		t.Fatal("late observer saw no run events")
	}
}
