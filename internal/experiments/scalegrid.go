package experiments

import (
	"fmt"
	"io"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/sim"
)

// ScalePreset is one of the beyond-the-paper scale points: the Facebook
// workload on a stable multi-site pool far larger than the paper's 180
// nodes.
type ScalePreset struct {
	// Title heads the text report.
	Title string
	// Target is the pool size the grid provisions toward.
	Target int
	config func(targetNodes int, churn grid.ChurnProfile, seed int64) core.Config
}

// The scale presets. LARGE-GRID is the end-to-end stress for the
// incremental flow rebalancer (thousands of concurrent flows sharing twelve
// WAN uplinks). At MEGA-GRID the pending-event set is tens of thousands of
// clustered periodic timers (tracker heartbeats, dead scans, node
// lifetimes). GIGA-GRID has roughly a hundred sites feeding one event queue
// whose pending set holds a timer per worker.
var (
	LargeGridPreset = ScalePreset{"LARGE-GRID: Facebook workload at ~1000 nodes", 1000, core.LargeGridConfig}
	MegaGridPreset  = ScalePreset{"MEGA-GRID: Facebook workload at ~10,000 nodes", 10000, core.MegaGridConfig}
	GigaGridPreset  = ScalePreset{"GIGA-GRID: Facebook workload at ~100,000 nodes", 100000, core.GigaGridConfig}
)

// ScaleGridResult is one scale-out run.
type ScaleGridResult struct {
	Target        int
	Sites         int
	Reached       int // nodes alive when the workload finished
	Response      sim.Time
	EventsFired   uint64
	FlowsStarted  int
	CrossSiteFrac float64 // fraction of network bytes that crossed a WAN link
	JobsFailed    int
}

// ScaleGrid runs the Facebook workload on the preset's stable pool.
func ScaleGrid(opts Options, p ScalePreset) ScaleGridResult {
	opts = opts.WithDefaults()
	sys := core.New(opts.tune(p.config(p.Target, grid.ChurnStable, opts.Seeds[0])))
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	out := ScaleGridResult{
		Target:       p.Target,
		Sites:        sys.Net.NumSites(),
		Reached:      sys.Pool.AliveCount(),
		Response:     res.ResponseTime,
		EventsFired:  sys.Eng.Fired(),
		FlowsStarted: res.Net.FlowsStarted,
		JobsFailed:   res.JobsFailed,
	}
	if res.Net.BytesTotal > 0 {
		out.CrossSiteFrac = res.Net.BytesCrossSite / res.Net.BytesTotal
	}
	return out
}

// scaleGridExperiment runs the preset as one trial under experiment id.
func scaleGridExperiment(id, desc string, p ScalePreset) Experiment {
	return declare(id, desc,
		single(fmt.Sprintf("nodes=%d", p.Target), p.Target, func(opts Options) ScaleGridResult { return ScaleGrid(opts, p) }),
		func(r ScaleGridResult) map[string]float64 {
			return map[string]float64{
				"response_s":      r.Response.Seconds(),
				"reached_nodes":   float64(r.Reached),
				"events_fired":    float64(r.EventsFired),
				"flows_started":   float64(r.FlowsStarted),
				"cross_site_frac": r.CrossSiteFrac,
				"jobs_failed":     float64(r.JobsFailed),
			}
		},
		func(w io.Writer, rows []ScaleGridResult) {
			r := rows[0]
			fmt.Fprintf(w, "%s, %d sites\n", p.Title, r.Sites)
			fmt.Fprintf(w, "target=%d nodes over %d sites (reached %d)\n", r.Target, r.Sites, r.Reached)
			fmt.Fprintf(w, "workload response: %.0f s  (jobs failed: %d)\n", r.Response.Seconds(), r.JobsFailed)
			fmt.Fprintf(w, "simulation: %d events fired, %d flows, %.0f%% of bytes cross-site\n",
				r.EventsFired, r.FlowsStarted, 100*r.CrossSiteFrac)
		})
}
