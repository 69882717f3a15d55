package experiments

import (
	"fmt"
	"io"
	"strings"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/sim"
)

// EventCountsResult is the EVENTS experiment outcome: the full per-type
// event census of a scenario-rich run, plus the stream's determinism
// fingerprint (same seed and options, same fingerprint — asserted by the
// facade's determinism tests and visible here for manual comparison).
type EventCountsResult struct {
	Response    sim.Time
	JobsFailed  int
	Counts      [event.NumTypes]int
	Total       int
	Fingerprint uint64
}

// EventCountsTrial drives the observer and scenario APIs end to end: a
// 60-node pool under unstable churn and disk-check zombie handling, hit by a
// whole-site outage with scripted self-healing (retarget when the pool
// thins) and a balancer round, with an EventLog subscribed from construction
// so every join, preemption, zombie, block loss, re-replication, and task
// launch is counted.
func EventCountsTrial(opts Options) EventCountsResult {
	opts = opts.WithDefaults()
	cfg := core.HOGConfig(60, grid.ChurnUnstable, opts.Seeds[0])
	cfg.Zombie = core.ZombieDiskCheck
	log := event.NewLog()
	sys, err := core.NewSystem(opts.tune(cfg), log)
	if err != nil {
		panic(err)
	}
	sc := core.NewScenario("event-stream exercise").
		SiteOutageAt(300*sim.Second, SiteFailureSite, 1.0).
		RetargetWhenAliveBelow(45, 80).
		RebalanceAt(600*sim.Second, 0.05, 100)
	if err := sys.Apply(sc); err != nil {
		panic(err)
	}
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	r := EventCountsResult{
		Response:    res.ResponseTime,
		JobsFailed:  res.JobsFailed,
		Total:       log.Total(),
		Fingerprint: log.Fingerprint(),
	}
	for t := event.Type(0); t < event.NumTypes; t++ {
		r.Counts[t] = log.Count(t)
	}
	return r
}

// EventMetricName converts an event type to its harness metric key
// ("node-preempted" -> "ev_node_preempted").
func EventMetricName(t event.Type) string {
	return "ev_" + strings.ReplaceAll(t.String(), "-", "_")
}

// eventsExperiment runs the event-stream census as one trial.
func eventsExperiment() Experiment {
	return declare("events", "EVENTS: typed event stream census under fault injection",
		single("scenario", 60, EventCountsTrial),
		func(r EventCountsResult) map[string]float64 {
			m := map[string]float64{
				"response_s":   r.Response.Seconds(),
				"jobs_failed":  float64(r.JobsFailed),
				"total_events": float64(r.Total),
			}
			for t := event.Type(0); t < event.NumTypes; t++ {
				m[EventMetricName(t)] = float64(r.Counts[t])
			}
			return m
		},
		func(w io.Writer, rows []EventCountsResult) {
			r := rows[0]
			fmt.Fprintln(w, "EVENTS: typed event stream census (60 nodes, unstable churn, site outage + self-healing)")
			fmt.Fprintln(w, "Event              Count")
			for t := event.Type(0); t < event.NumTypes; t++ {
				fmt.Fprintf(w, "%-16s  %7d\n", t, r.Counts[t])
			}
			fmt.Fprintf(w, "total %d events, response %.0f s, jobs failed %d, fingerprint %016x\n",
				r.Total, r.Response.Seconds(), r.JobsFailed, r.Fingerprint)
		})
}
