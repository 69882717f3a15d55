package mapred

import (
	"fmt"
	"testing"

	"hog/internal/disk"
	"hog/internal/hdfs"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/topology"
)

// schedulerRun drives a 1008-node, 12-site MapReduce cluster through the
// scheduler's worst case: all input blocks live on 48 dedicated data nodes
// with zero map slots, so under delay scheduling every one of the ~960
// worker trackers holds a free slot whose every heartbeat probes all 24
// queued jobs — for the scan path, every map of every job, O(jobs x tasks x
// trackers) per wave — and declines the non-local work until LocalityWait
// expires near the end of the horizon, when remote launches flood out. The
// event stream is identical under both scheduler paths (they are
// bit-identical), so wall-clock differences are assignment-path cost alone.
// Returns total map attempts launched as the cross-path self-check.
func schedulerRun(scan bool) int {
	const (
		nSites      = 12
		perSite     = 84
		dataPerSite = 4 // slotless block hosts; the rest are workers
		nJobs       = 24
		nMaps       = 50
		blockLen    = 8e6
	)
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	dt := disk.NewTracker()
	nnCfg := hdfs.HOGConfig()
	nnCfg.Replication = 2
	nnCfg.BlockSize = blockLen
	nn := hdfs.NewNamenode(eng, net, dt, nnCfg)
	jtCfg := DefaultConfig()
	jtCfg.TrackerTimeout = 60 * sim.Second
	jtCfg.LocalityWait = 3 * sim.Minute
	jt := NewJobTracker(eng, net, nn, dt, jtCfg)
	if scan {
		useScanOracle(jt)
	}
	var nodes, workers []netmodel.NodeID
	for s := 0; s < nSites; s++ {
		dom := fmt.Sprintf("site%d.edu", s)
		sid := net.AddSite(dom, 300e6, 300e6)
		for i := 0; i < perSite; i++ {
			host := fmt.Sprintf("wn%d.%s", i, dom)
			id := net.AddNode(sid, host)
			nn.Register(id, host)
			if i < dataPerSite {
				dt.SetCapacity(id, 100e9)
				jt.RegisterTracker(id, host, topology.SiteFromHostname(host), 0, 1)
			} else {
				dt.SetCapacity(id, 1e6) // too small for a block: no replicas land here
				jt.RegisterTracker(id, host, topology.SiteFromHostname(host), 1, 1)
				workers = append(workers, id)
			}
			nodes = append(nodes, id)
		}
	}
	nn.Start()
	jt.Start()
	eng.Every(3*sim.Second, func() {
		for _, id := range nodes {
			nn.HeartbeatDatanode(nn.Datanode(id))
			jt.HeartbeatTracker(jt.Tracker(id))
		}
	})
	for i := 0; i < nJobs; i++ {
		name := fmt.Sprintf("sched%02d", i)
		nn.SeedFile("/in/"+name, nMaps*blockLen, 0)
		jt.Submit(JobConfig{Name: name, InputFile: "/in/" + name, Reduces: 1})
	}
	// Workers get real scratch space only after seeding pinned the input to
	// the data nodes.
	for _, id := range workers {
		dt.SetCapacity(id, 100e9)
	}
	eng.RunWhile(func() bool { return !jt.AllDone() && eng.Now() < 4*sim.Minute })
	started := 0
	for _, j := range jt.Jobs() {
		started += j.Counters().MapAttemptsStarted
	}
	return started
}

// quietSetup builds a 10,000-tracker, 40-site MapReduce cluster running 24
// jobs of 50 maps and one reduce each, and returns the run: three simulated
// minutes of heartbeats from every tracker. Every map computes for hours,
// so after the first wave places them no map completes, no straggler gate
// can open and no reduce reaches slowstart; every later beat has nothing to
// assign. This is the beat the earliest-assignable bound makes O(1): before
// it, each beat walked all 24 jobs once per kind. The run returns the map
// attempts launched, which must be every map.
func quietSetup() func() int {
	const (
		nSites   = 40
		perSite  = 250
		nJobs    = 24
		nMaps    = 50
		blockLen = 8e6
	)
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	dt := disk.NewTracker()
	nnCfg := hdfs.HOGConfig()
	nnCfg.Replication = 2
	nnCfg.BlockSize = blockLen
	nn := hdfs.NewNamenode(eng, net, dt, nnCfg)
	jtCfg := DefaultConfig()
	jtCfg.TrackerTimeout = 60 * sim.Second
	jt := NewJobTracker(eng, net, nn, dt, jtCfg)
	var nodes []netmodel.NodeID
	for s := 0; s < nSites; s++ {
		dom := fmt.Sprintf("site%d.edu", s)
		sid := net.AddSite(dom, 300e6, 300e6)
		for i := 0; i < perSite; i++ {
			host := fmt.Sprintf("wn%d.%s", i, dom)
			id := net.AddNode(sid, host)
			nn.Register(id, host)
			dt.SetCapacity(id, 100e9)
			jt.RegisterTracker(id, host, topology.SiteFromHostname(host), 1, 1)
			nodes = append(nodes, id)
		}
	}
	nn.Start()
	jt.Start()
	eng.Every(3*sim.Second, func() {
		for _, id := range nodes {
			nn.HeartbeatDatanode(nn.Datanode(id))
			jt.HeartbeatTracker(jt.Tracker(id))
		}
	})
	for i := 0; i < nJobs; i++ {
		name := fmt.Sprintf("quiet%02d", i)
		nn.SeedFile("/in/"+name, nMaps*blockLen, 0)
		jt.Submit(JobConfig{Name: name, InputFile: "/in/" + name, Reduces: 1, MapCostPerMB: sim.Hour})
	}
	return func() int {
		eng.RunUntil(3 * sim.Minute)
		started := 0
		for _, j := range jt.Jobs() {
			started += j.Counters().MapAttemptsStarted
		}
		if started != nJobs*nMaps {
			panic(fmt.Sprintf("quiet run launched %d map attempts, want %d", started, nJobs*nMaps))
		}
		return started
	}
}

// BenchmarkScheduler compares the indexed assignment path against the
// linear-scan oracle on a ~1000-node grid; both arms must launch the same
// number of map attempts. The scan arm is about a hundred times slower
// (12.6 s against 0.13 s on a 2-vCPU Xeon), so CI smoke-runs only
// Scheduler/indexed and Scheduler/quiet. The quiet arm (quietSetup) times
// heartbeats with nothing to assign; its setup is not timed.
func BenchmarkScheduler(b *testing.B) {
	b.Run("quiet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			run := quietSetup()
			b.StartTimer()
			run()
		}
	})
	want := -1
	for _, mode := range []struct {
		name string
		scan bool
	}{{"indexed", false}, {"scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := schedulerRun(mode.scan)
				if got == 0 {
					b.Fatal("no map attempts launched")
				}
				if want == -1 {
					want = got
				} else if got != want {
					b.Fatalf("paths diverge: %d map attempts vs %d", got, want)
				}
			}
		})
	}
}
