package experiments

import (
	"fmt"
	"io"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/sim"
)

// MegaGridResult is one scale-out run on the forty-site ~10,000-node grid.
type MegaGridResult struct {
	Target        int
	Sites         int
	Reached       int
	Response      sim.Time
	EventsFired   uint64
	FlowsStarted  int
	CrossSiteFrac float64 // fraction of network bytes that crossed a WAN link
	JobsFailed    int
}

// MegaGrid runs the Facebook workload on a ~10,000-node pool spread over
// the MegaGridSites preset — two orders of magnitude past the paper's 180
// nodes, and an order past LARGE-GRID. At this scale the pending-event set
// is tens of thousands of clustered periodic timers (tracker heartbeats,
// dead scans, node lifetimes), which is exactly the workload the
// timing-wheel engine was built for.
func MegaGrid(opts Options) MegaGridResult {
	opts = opts.WithDefaults()
	target := 10000
	sys := core.New(opts.tune(core.MegaGridConfig(target, grid.ChurnStable, opts.Seeds[0])))
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	out := MegaGridResult{
		Target:       target,
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

// PrintMegaGrid prints the scale-out run.
func PrintMegaGrid(w io.Writer, opts Options) {
	r := MegaGrid(opts)
	fmt.Fprintln(w, "MEGA-GRID: Facebook workload at ~10,000 nodes, 40 sites")
	fmt.Fprintf(w, "target=%d nodes over %d sites (reached %d)\n", r.Target, r.Sites, r.Reached)
	fmt.Fprintf(w, "workload response: %.0f s  (jobs failed: %d)\n", r.Response.Seconds(), r.JobsFailed)
	fmt.Fprintf(w, "simulation: %d events fired, %d flows, %.0f%% of bytes cross-site\n",
		r.EventsFired, r.FlowsStarted, 100*r.CrossSiteFrac)
}
