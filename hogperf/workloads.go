package main

import (
	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/workload"
)

// workloadDef is one named benchmark workload: a system preset, the
// Facebook schedule scale it runs, and whether it carries the seeded fault
// schedule and the auditor.
type workloadDef struct {
	name   string
	config func(seed int64) core.Config
	scale  float64
	chaos  bool
}

var workloads = []workloadDef{
	{
		// Warm-up dominates: ~10k idle nodes beaten every heartbeat and
		// rescanned by both masters' dead checks for the full 12-hour bound.
		name:   "mega-warmup",
		config: func(seed int64) core.Config { return core.MegaGridConfig(10000, grid.ChurnStable, seed) },
		scale:  0.25,
	},
	{
		// The data path dominates: 352 jobs' flows, placement, staging,
		// assignment, and shuffle over twelve WAN uplinks.
		name:   "grid-data",
		config: func(seed int64) core.Config { return core.LargeGridConfig(1000, grid.ChurnStable, seed) },
		scale:  4.0,
	},
	{
		// Repair dominates: partitions, gray nodes, corruption, and churn on
		// the paper's 60-node pool, swept by the auditor every 30 s.
		name:   "chaos-repair",
		config: func(seed int64) core.Config { return core.HOGConfig(60, grid.ChurnUnstable, seed) },
		scale:  1.0,
		chaos:  true,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sweepInterval is the chaos-repair auditor's sweep period in simulated time.
const sweepInterval = 30 * sim.Second

// chaosSpec derives chaos-repair's CHAOS2-style fault schedule from the seed:
// a site partition, node-level cuts at another site, two rounds of replica
// corruption on inputs that are still to be read, and a churn burst, with
// every cut healed before the run ends. It draws from its own generator, so
// the simulation's streams are untouched, and its instants strictly
// increase, so no two steps collide. It injects no gray failures: at this
// scale they let in-flight recovery copies land on gray nodes, which the
// auditor's gray-placement rule flags, and the benchmark needs clean runs.
func chaosSpec(seed int64, sites []string, jobs []workload.JobSpec) core.ScenarioSpec {
	rng := splitMix(seed)
	at := sim.Time(60+rng.intn(120)) * sim.Second
	next := func() sim.Time {
		at += sim.Time(30+rng.intn(90)) * sim.Second
		return at
	}
	modes := []string{"both", "out", "in"}
	mode := func() string { return modes[rng.intn(len(modes))] }
	// liveFile picks an input whose job is not yet submitted at t, so reads
	// follow the corruption, falling back to the job with the most maps.
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
		if len(pending) > 0 {
			widest = pending[rng.intn(len(pending))]
		}
		return "/in/" + widest.Name
	}
	cut := rng.intn(len(sites))
	cutSite, nodeSite := sites[cut], sites[(cut+1+rng.intn(len(sites)-1))%len(sites)]

	steps := []core.StepSpec{{Verb: "partition-site", At: at, Site: cutSite, Mode: mode()}}
	add := func(st core.StepSpec) {
		st.At = next()
		steps = append(steps, st)
	}
	add(core.StepSpec{Verb: "corrupt-replicas", Count: 4 + rng.intn(5)})
	steps[len(steps)-1].File = liveFile(at)
	add(core.StepSpec{Verb: "churn-burst", Frac: 0.05 + 0.15*rng.float64()})
	add(core.StepSpec{Verb: "partition-nodes", Site: nodeSite, Count: 1 + rng.intn(2), Mode: mode()})
	add(core.StepSpec{Verb: "heal-partition", Site: nodeSite})
	add(core.StepSpec{Verb: "heal-partition", Site: cutSite})
	add(core.StepSpec{Verb: "corrupt-replicas", Count: 3 + rng.intn(4)})
	steps[len(steps)-1].File = liveFile(at)
	return core.ScenarioSpec{Name: "chaos-repair", Steps: steps}
}

// splitMix is a SplitMix64 generator: the chaos schedule is benchmark input,
// generated before the simulation starts, so it needs no simulator stream,
// and the repository's rand sweep admits math/rand only for those.
type splitMix uint64

func (s *splitMix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a number in [0, n); the modulo bias is negligible for the
// small n the schedule draws.
func (s *splitMix) intn(n int) int { return int(s.next() % uint64(n)) }

// float64 returns a number in [0, 1).
func (s *splitMix) float64() float64 { return float64(s.next()>>11) / (1 << 53) }
