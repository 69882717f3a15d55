package mapred

import (
	"fmt"
	"math/rand"
	"testing"

	"hog/internal/sim"
)

// schedFingerprint serializes everything the scheduler decided: per-job
// lifecycle timestamps and counters, plus every attempt in launch order with
// its global sequence number, node, start time, and speculation flag. Two
// runs with identical fingerprints made bit-identical assignment decisions.
func schedFingerprint(c *cluster) []string {
	var out []string
	for _, j := range c.jt.Jobs() {
		out = append(out, fmt.Sprintf("job %d state=%v submit=%d start=%d finish=%d maps=%d reduces=%d counters=%+v",
			j.ID, j.State, j.SubmitTime, j.StartTime, j.FinishTime, j.completedMaps, j.completedReduces, j.counters))
		for _, m := range j.maps {
			for _, a := range m.attempts {
				out = append(out, fmt.Sprintf("  j%d m%d seq=%d node=%d started=%d spec=%v live=%v",
					j.ID, m.idx, a.seq, a.node, a.started, a.spec, a.live()))
			}
		}
		for _, r := range j.reduces {
			for _, a := range r.attempts {
				out = append(out, fmt.Sprintf("  j%d r%d seq=%d node=%d started=%d spec=%v live=%v",
					j.ID, r.idx, a.seq, a.node, a.started, a.spec, a.live()))
			}
		}
	}
	return out
}

// churnShape sizes a churn schedule: the sites, the trackers per site, the
// jobs submitted in the first 90 s, their map counts (minMaps plus up to
// spanMaps more), and the node failures the churn profiles inject.
// checkEvery is how many heartbeats pass between placement-index checks
// (every heartbeat when zero); a full check walks every job's per-node sets,
// so checking on each of a thousand trackers' beats would be quadratic.
type churnShape struct {
	domains    []string
	perSite    int
	jobs       int
	minMaps    int
	spanMaps   int
	faults     int
	checkEvery int
}

// smallChurn is 30 trackers over five sites.
var smallChurn = churnShape{domains: clusterDomains, perSite: 6, jobs: 4, minMaps: 4, spanMaps: 10, faults: 6}

// gridChurn is 1008 trackers over twelve sites, the LARGE-GRID scale.
var gridChurn = func() churnShape {
	sh := churnShape{perSite: 84, jobs: 12, minMaps: 40, spanMaps: 60, faults: 40, checkEvery: 12 * 84}
	for s := 0; s < 12; s++ {
		sh.domains = append(sh.domains, fmt.Sprintf("site%d.edu", s))
	}
	return sh
}()

// runSchedChurn executes one randomized workload + churn schedule on the
// small cluster under either scheduler path and returns the fingerprint.
func runSchedChurn(t *testing.T, seed int64, scan bool, profile string) []string {
	return runSchedChurnOn(t, smallChurn, seed, scan, profile, nil)
}

// runSchedChurnOn runs the schedule at the given shape. The schedule is
// drawn from a private RNG so both paths see identical inputs. mod, when
// set, adjusts the JobTracker config after the profile knobs — the hook the
// policy equivalence tests use to pin explicit policy names against the
// defaults on identical inputs. After every heartbeat (every checkEvery-th
// at scale) the run checks the placement-index invariant
// (checkPlacementIndex) and the earliest-assignable bound (checkReadyBound),
// and fails t on a breach.
func runSchedChurnOn(t *testing.T, sh churnShape, seed int64, scan bool, profile string, mod func(*Config)) []string {
	t.Helper()
	return runSchedChurnChecked(t, sh, seed, scan, profile, mod).fingerprint
}

// churnRun is a churn run's fingerprint plus how many of its checks found
// the map and the reduce bound closed.
type churnRun struct {
	fingerprint []string
	closed      [2]int
}

// runSchedChurnChecked is runSchedChurnOn with the bound checks' tally.
func runSchedChurnChecked(t *testing.T, sh churnShape, seed int64, scan bool, profile string, mod func(*Config)) churnRun {
	t.Helper()
	var run churnRun
	nn := hogNNCfg()
	jt := hogJTCfg()
	switch profile {
	case "delay":
		nn.Replication = 1
		jt.LocalityWait = 30 * sim.Second
	case "eager":
		jt.EagerRedundancy = true
		jt.SpeculativeMinRuntime = 20 * sim.Second
	case "kills", "zombies":
		nn.Replication = 2
		jt.SpeculativeMinRuntime = 20 * sim.Second
	case "delay-churn":
		// Delay scheduling under node loss: exercises the wait re-arm when
		// re-executed maps re-enter a drained backlog.
		nn.Replication = 2
		jt.LocalityWait = 30 * sim.Second
		jt.SpeculativeMinRuntime = 20 * sim.Second
	}
	if mod != nil {
		mod(&jt)
	}
	c := newClusterOn(sh.domains, seed, sh.perSite, nn, jt)
	if scan {
		useScanOracle(c.jt)
	}
	beats := 0
	c.afterBeat = func() {
		if beats++; sh.checkEvery > 0 && beats%sh.checkEvery != 0 {
			return
		}
		if err := checkPlacementIndex(c.jt); err != nil {
			t.Fatalf("seed %d profile %s at %v: %v", seed, profile, c.eng.Now(), err)
		}
		closed, err := checkReadyBound(c.jt)
		if err != nil {
			t.Fatalf("seed %d profile %s at %v: %v", seed, profile, c.eng.Now(), err)
		}
		for k, shut := range closed {
			if shut {
				run.closed[k]++
			}
		}
	}
	r := rand.New(rand.NewSource(seed * 7919))
	submitted := 0
	for i := 0; i < sh.jobs; i++ {
		cfg := smallJob(c, fmt.Sprintf("eq%d", i), sh.minMaps+r.Intn(sh.spanMaps), r.Intn(3))
		at := sim.Time(r.Int63n(int64(90 * sim.Second)))
		c.eng.Schedule(at, func() {
			c.jt.Submit(cfg)
			submitted++
		})
	}
	if profile == "kills" || profile == "zombies" || profile == "delay-churn" {
		for i := 0; i < sh.faults; i++ {
			at := sim.Time(int64(30*sim.Second) + r.Int63n(int64(8*sim.Minute)))
			node := c.nodes[r.Intn(len(c.nodes))]
			zomb := profile == "zombies" && i%2 == 0
			c.eng.Schedule(at, func() {
				if c.state[node] != healthy {
					return
				}
				if zomb {
					c.makeZombie(node)
				} else {
					c.kill(node)
				}
			})
		}
	}
	c.eng.RunWhile(func() bool {
		return (submitted < sh.jobs || !c.jt.AllDone()) && c.eng.Now() < 8*sim.Hour
	})
	run.fingerprint = schedFingerprint(c)
	return run
}

// sameFingerprint fails t at the first line where two fingerprints differ.
func sameFingerprint(t *testing.T, label, nameA, nameB string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: fingerprint lengths diverge: %s %d, %s %d", label, nameA, len(a), nameB, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s line %d:\n%s: %s\n%s: %s", label, i, nameA, a[i], nameB, b[i])
		}
	}
}

// TestSchedulerEquivalence is the indexed scheduler's contract: across
// churn profiles and seeds, it must make bit-identical assignment decisions
// to the linear-scan oracle — same attempts on the same nodes at the same
// instants, in the same launch order — and hence identical job completion
// times.
func TestSchedulerEquivalence(t *testing.T) {
	for _, profile := range []string{"calm", "delay", "eager", "kills", "zombies", "delay-churn"} {
		for seed := int64(1); seed <= 3; seed++ {
			sameFingerprint(t, fmt.Sprintf("profile %s seed %d", profile, seed), "indexed", "scan",
				runSchedChurn(t, seed, false, profile), runSchedChurn(t, seed, true, profile))
		}
	}
}

// TestSchedScaleEquivalence holds the indexed scheduler to the scan oracle
// at LARGE-GRID scale: 1008 trackers over twelve sites, a dozen jobs of
// 40-99 maps arriving within 90 s, and forty kills and zombies while they
// run. Every tracker competes for the same queue on every heartbeat wave,
// so the per-node and per-site locality sets are probed at the width the
// small cluster never reaches.
func TestSchedScaleEquivalence(t *testing.T) {
	indexed := runSchedChurnOn(t, gridChurn, 1, false, "zombies", nil)
	scan := runSchedChurnOn(t, gridChurn, 1, true, "zombies", nil)
	sameFingerprint(t, "1008 trackers", "indexed", "scan", indexed, scan)
}

// TestSchedulerDeterminism: the indexed path must agree with itself exactly
// across identical runs (no map-iteration order anywhere in the index).
func TestSchedulerDeterminism(t *testing.T) {
	sameFingerprint(t, "identical runs", "first", "second",
		runSchedChurn(t, 42, false, "zombies"), runSchedChurn(t, 42, false, "zombies"))
}

// TestSchedulerIndexDrained: after every job finishes, the per-job indexes
// must be fully unregistered from the tracker-level structures.
func TestSchedulerIndexDrained(t *testing.T) {
	c := newCluster(77, 3, hogNNCfg(), hogJTCfg())
	c.jt.Submit(smallJob(c, "drain1", 6, 2))
	c.jt.Submit(smallJob(c, "drain2", 4, 1))
	c.runUntilDone(t, 4*sim.Hour)
	if n := len(c.jt.activeList); n != 0 {
		t.Fatalf("activeList holds %d jobs after completion", n)
	}
	if n := len(c.jt.blockMaps); n != 0 {
		t.Fatalf("blockMaps holds %d blocks after completion", n)
	}
}

// TestReadyBoundHonest runs the LARGE-GRID churn schedule under four
// configurations — FIFO, fair with a pool cap, site-load speculation, and
// delay scheduling with eager redundancy — with the read-only bound check on
// every wave, and requires each to have closed both bounds at some checks,
// so the check is not vacuous. The small cluster then holds the gated path
// to the ungated scan oracle under the same four configurations.
func TestReadyBoundHonest(t *testing.T) {
	configs := []struct {
		name, profile string
		mod           func(*Config)
	}{
		{"fifo", "zombies", nil},
		{"fair-capped", "kills", func(c *Config) {
			c.SchedulerPolicy = SchedulerFair
			c.Pools = map[string]PoolConfig{"bin0": {Weight: 1, MaxRunning: 300}}
		}},
		{"site-load", "kills", func(c *Config) { c.SpeculationPolicy = SpeculationSiteLoad }},
		{"delay-eager", "delay-churn", func(c *Config) { c.EagerRedundancy = true }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			run := runSchedChurnChecked(t, gridChurn, 1, false, cfg.profile, cfg.mod)
			t.Logf("map bound closed at %d checks, reduce bound at %d", run.closed[KindMap], run.closed[KindReduce])
			if run.closed[KindMap] == 0 || run.closed[KindReduce] == 0 {
				t.Errorf("map bound closed at %d checks, reduce bound at %d: want both above zero", run.closed[KindMap], run.closed[KindReduce])
			}
			for seed := int64(1); seed <= 2; seed++ {
				sameFingerprint(t, fmt.Sprintf("seed %d", seed), "indexed", "scan",
					runSchedChurnOn(t, smallChurn, seed, false, cfg.profile, cfg.mod),
					runSchedChurnOn(t, smallChurn, seed, true, cfg.profile, cfg.mod))
			}
		})
	}
}
