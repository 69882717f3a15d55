package core

import (
	"encoding/json"
	"testing"

	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/workload"
)

// scenarioSeeds are well-formed scenario specs covering every step verb,
// the starting corpus for FuzzScenarioFromSpec.
var scenarioSeeds = []string{
	`{"name":"outage","steps":[{"verb":"site-outage","at":60000000,"site":"UCSDT2","frac":0.5},{"verb":"churn-burst","at":90000000,"frac":0.2}]}`,
	`{"name":"pool","poll":1000000,"steps":[{"verb":"kill-fraction","at":30000000,"frac":0.3},{"verb":"retarget-pool","at":40000000,"target":8},{"verb":"retarget-alive-below","below":5,"target":12}]}`,
	`{"name":"net","steps":[{"verb":"rebalance","at":50000000,"threshold":0.1,"max_moves":4},{"verb":"degrade-network","at":70000000,"site":"AGLT2","factor":0.3}]}`,
	`{"name":"masters","steps":[{"verb":"crash-namenode","at":60000000},{"verb":"crash-jobtracker","at":61000000},{"verb":"restart-masters","at":120000000}]}`,
	`{"name":"cuts","steps":[{"verb":"partition-site","at":60000000,"site":"MIT_CMS","mode":"out"},{"verb":"partition-nodes","at":70000000,"site":"UCSDT2","count":1,"mode":"in"},{"verb":"heal-partition","at":90000000,"site":"MIT_CMS"},{"verb":"heal-partition","at":95000000,"site":"UCSDT2"}]}`,
	`{"name":"gray","steps":[{"verb":"degrade-nodes","at":60000000,"site":"AGLT2","count":2,"factor":4,"loss":0.2},{"verb":"restore-nodes","at":180000000,"site":"AGLT2"},{"verb":"corrupt-replicas","at":65000000,"file":"/in/fz","count":3}]}`,
}

// scenarioRegressions are inputs the fuzzer found that once failed.
var scenarioRegressions = []string{
	// A 1µs poll made a ten-minute run fire 132M events; Poll now rejects
	// periods under a millisecond.
	`{"name":"pool","poll":1,"steps":[{"verb":"retarget-alive-below","below":5,"target":12}]}`,
	// An offset or poll of the largest int64 overflowed anchor+offset, and
	// StartWorkload panicked with "sim: Schedule in the past"; Apply now
	// rejects any offset or poll longer than the run bound.
	`{"name":"far","steps":[{"verb":"crash-namenode","at":9223372036854775807}]}`,
	`{"name":"pool","poll":9223372036854775807,"steps":[{"verb":"retarget-alive-below","below":5,"target":12}]}`,
}

// FuzzScenarioFromSpec feeds hostile JSON through the path a /fork
// divergence body or a snapshot payload takes: decode into a ScenarioSpec,
// rebuild the scenario, and apply it to a small HOG system. Each stage may
// reject its input with an error but must never panic. An accepted scenario
// then runs for ten simulated minutes against a one-job workload, so its
// steps fire as well as parse.
func FuzzScenarioFromSpec(f *testing.F) {
	for _, s := range append(scenarioSeeds, scenarioRegressions...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var spec ScenarioSpec
		if err := json.Unmarshal(in, &spec); err != nil {
			return
		}
		sc, err := ScenarioFromSpec(spec)
		if err != nil {
			return
		}
		sys, err := NewSystem(HOGConfig(12, grid.ChurnStable, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Apply(sc); err != nil {
			return
		}
		jobs := &workload.Schedule{Jobs: []workload.JobSpec{{Name: "fz", Maps: 2, Reduces: 1, InputBytes: 128e6}}}
		if err := sys.StartWorkload(jobs); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunTo(sys.RunStart() + 10*sim.Minute); err != nil {
			t.Fatal(err)
		}
	})
}
