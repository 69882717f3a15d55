package experiments

import (
	"fmt"
	"io"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/sim"
)

// GigaGridResult is one scale-out run on the ~104-site ~100,000-node grid.
type GigaGridResult struct {
	Target        int
	Sites         int
	Reached       int
	Response      sim.Time
	EventsFired   uint64
	FlowsStarted  int
	CrossSiteFrac float64 // fraction of network bytes that crossed a WAN link
	JobsFailed    int
}

// GigaGrid runs the Facebook workload on a ~100,000-node pool spread over
// the GigaGridSites preset — three orders of magnitude past the paper's 180
// nodes and an order past MEGA-GRID: roughly a hundred sites feeding one
// event queue whose pending set holds a timer per worker.
func GigaGrid(opts Options) GigaGridResult {
	opts = opts.WithDefaults()
	target := 100000
	sys := core.New(opts.tune(core.GigaGridConfig(target, grid.ChurnStable, opts.Seeds[0])))
	res := sys.RunWorkload(sched(opts.Seeds[0], opts.Scale))
	out := GigaGridResult{
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

// PrintGigaGrid prints the scale-out run.
func PrintGigaGrid(w io.Writer, opts Options) {
	r := GigaGrid(opts)
	fmt.Fprintf(w, "GIGA-GRID: Facebook workload at ~100,000 nodes, %d sites\n", r.Sites)
	fmt.Fprintf(w, "target=%d nodes over %d sites (reached %d)\n", r.Target, r.Sites, r.Reached)
	fmt.Fprintf(w, "workload response: %.0f s  (jobs failed: %d)\n", r.Response.Seconds(), r.JobsFailed)
	fmt.Fprintf(w, "simulation: %d events fired, %d flows, %.0f%% of bytes cross-site\n",
		r.EventsFired, r.FlowsStarted, 100*r.CrossSiteFrac)
}
