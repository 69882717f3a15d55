package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"time"

	"hog/internal/audit"
	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/workload"
)

// runStep is the simulated length of one RunTo step between StartWorkload
// and FinishWorkload.
const runStep = 60 * sim.Second

// outputs are a run's simulated results. They are deterministic for a given
// workload and seed, so they form the correctness check: a change that only
// speeds the simulator up must leave every field identical.
type outputs struct {
	WarmupUs   int64            `json:"warmup_us"` // simulated provisioning length (RunStart)
	ResponseUs int64            `json:"response_us"`
	JobsDigest string           `json:"jobs_digest"`
	JobsFailed int              `json:"jobs_failed"`
	Reached    int              `json:"reached"`
	Net        netmodel.Stats   `json:"net"`
	HDFS       hdfs.Stats       `json:"hdfs"`
	Grid       grid.Stats       `json:"grid"`
	EventsFP   uint64           `json:"events_fp"`
	RNG        []core.RNGStream `json:"rng"`
	Audit      *auditOutcome    `json:"audit,omitempty"`
}

// auditOutcome is chaos-repair's extra check: the auditor stayed silent and
// every injected fault was undone.
type auditOutcome struct {
	Violations int    `json:"violations"`
	Paired     bool   `json:"paired"`
	First      string `json:"first,omitempty"`
}

// digest hashes the outputs, so repetitions of one seed can be compared.
func (o outputs) digest() string {
	b, _ := json.Marshal(o) // plain data: Marshal cannot fail
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// timings are one run's host-time phases, in seconds.
type timings struct {
	Setup     float64 `json:"setup_s"`     // median over the run's set-ups
	Provision float64 `json:"provision_s"` // median over the run's StartWorkload calls
	Run       float64 `json:"run_s"`       // StartWorkload return to FinishWorkload return
	Wall      float64 `json:"wall_s"`      // Generate to FinishWorkload return
}

// runResult is what one run of a workload reports to the parent process.
type runResult struct {
	Out    outputs            `json:"out"`
	Times  timings            `json:"times"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// instance is a built system ready to start: the product of set-up.
type instance struct {
	sched  *workload.Schedule
	sys    *core.System
	log    *event.Log
	aud    *audit.Auditor
	sweeps []time.Duration
}

// setUp generates the workload, builds the system, and for chaos-repair
// attaches the auditor and applies the seeded fault schedule. Spans go to tr
// (nil when tracing is off).
func setUp(def workloadDef, seed int64, tr *tracer) (*instance, error) {
	in := &instance{}
	sp := tr.begin("Generate")
	in.sched = workload.Generate(seed, workload.Config{Scale: def.scale})
	tr.end(sp)

	sp = tr.begin("NewSystem")
	cfg := def.config(seed)
	in.log = event.NewLog()
	sys, err := core.NewSystem(cfg, in.log)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", def.name, err)
	}
	in.sys = sys
	if !def.chaos {
		return in, nil
	}

	sp = tr.begin("Apply")
	defer tr.end(sp)
	in.aud = audit.New()
	in.aud.Attach(sys.NN, sys.JT)
	sys.Subscribe(in.aud)
	sys.Eng.Every(sweepInterval, func() {
		sp := tr.begin("Sweep")
		t := time.Now()
		in.aud.Sweep(sys.Eng.Now())
		in.sweeps = append(in.sweeps, time.Since(t))
		tr.end(sp)
	})
	var sites []string
	for _, s := range cfg.Grid.Sites {
		sites = append(sites, s.Name)
	}
	sc, err := core.ScenarioFromSpec(chaosSpec(seed, sites, in.sched.Jobs))
	if err != nil {
		return nil, fmt.Errorf("chaos schedule: %w", err)
	}
	if err := sys.Apply(sc); err != nil {
		return nil, fmt.Errorf("apply chaos schedule: %w", err)
	}
	return in, nil
}

// provisionBudget and maxProvisions bound the extra provisions of an untraced
// run: a workload whose StartWorkload is short is provisioned on several
// fresh instances, so its provision_s median rests on more than one sample
// per run.
const (
	provisionBudget = time.Second
	maxProvisions   = 15
)

// runOnce performs one timed run of def at seed. An untraced run sets the
// workload up setups times, then provisions fresh instances with
// StartWorkload until provisionBudget or maxProvisions is reached; setup_s
// and provision_s are the medians, and the last instance goes on through
// RunTo steps and FinishWorkload. A traced run (tr non-nil) sets up and
// provisions once, and records spans and per-layer counters; the caller owns
// the CPU profile around it.
func runOnce(def workloadDef, seed int64, setups int, tr *tracer) (runResult, error) {
	var setupTimes, provTimes []float64
	var in *instance
	var t0, tStarted time.Time
	var ms0 runtime.MemStats
	var err error
	if tr != nil {
		runtime.ReadMemStats(&ms0)
		tr.start()
	}
	for provSum := 0.0; ; {
		t0 = time.Now()
		if in, err = setUp(def, seed, tr); err != nil {
			return runResult{}, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if len(setupTimes) < setups {
			continue
		}
		sp := tr.begin("StartWorkload")
		tStart := time.Now()
		if err := in.sys.StartWorkload(in.sched); err != nil {
			return runResult{}, err
		}
		tStarted = time.Now()
		tr.end(sp)
		provTimes = append(provTimes, tStarted.Sub(tStart).Seconds())
		provSum += provTimes[len(provTimes)-1]
		if tr != nil || len(provTimes) >= maxProvisions || provSum >= provisionBudget.Seconds() {
			break
		}
	}
	sys, sched := in.sys, in.sched

	pendingMax := sys.Eng.Pending()
	start, span, bound := sys.RunStart(), sched.Span(), sys.RunStart()+sys.Config().RunBound
	for t := start + runStep; t < bound; t += runStep {
		if sys.Eng.Now() > start+span && sys.JT.AllDone() {
			break
		}
		sp := tr.begin("RunTo")
		if err := sys.RunTo(t); err != nil {
			return runResult{}, err
		}
		tr.end(sp)
		pendingMax = max(pendingMax, sys.Eng.Pending())
	}
	sp := tr.begin("FinishWorkload")
	res := sys.FinishWorkload()
	tEnd := time.Now()
	tr.end(sp)

	r := runResult{Times: timings{
		Setup:     median(setupTimes),
		Provision: median(provTimes),
		Run:       tEnd.Sub(tStarted).Seconds(),
		Wall:      tEnd.Sub(t0).Seconds(),
	}}
	r.Out = collectOutputs(in, res)
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.Layers = layerCounters(in, res, pendingMax, tr, &ms0, &ms1)
	}
	return r, nil
}

// collectOutputs reads the deterministic results of a finished run. For
// chaos-repair it runs one last audit sweep over the end state.
func collectOutputs(in *instance, res *core.Result) outputs {
	sys := in.sys
	h := fnv.New64a()
	var b [8]byte
	for i, rt := range res.JobResponses {
		binary.LittleEndian.PutUint64(b[:], uint64(rt))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(res.JobBins[i]))
		h.Write(b[:])
	}
	o := outputs{
		WarmupUs:   int64(sys.RunStart()),
		ResponseUs: int64(res.ResponseTime),
		JobsDigest: fmt.Sprintf("%016x", h.Sum64()),
		JobsFailed: res.JobsFailed,
		Net:        res.Net,
		HDFS:       res.NN,
		Grid:       res.Pool,
		EventsFP:   in.log.Fingerprint(),
		RNG:        sys.RNGStreams(),
	}
	if sys.Pool != nil {
		o.Reached = sys.Pool.AliveCount()
	}
	if in.aud != nil {
		in.aud.Sweep(sys.Eng.Now())
		log := in.log
		a := &auditOutcome{
			Violations: in.aud.Count(),
			Paired: sys.PartitionedSites() == 0 && sys.PartitionedNodes() == 0 && sys.DegradedNodes() == 0 &&
				log.Count(event.PartitionStarted) == log.Count(event.PartitionHealed) &&
				log.Count(event.NodeDegraded) == log.Count(event.NodeRestored) &&
				log.Count(event.MasterCrashed) == log.Count(event.MasterRecovered),
		}
		if v := in.aud.Violations(); len(v) > 0 {
			a.First = v[0].String()
		}
		o.Audit = a
	}
	return o
}

// layerCounters gathers the traced run's per-layer counters from the layers'
// Stats/Counters, the engine, the event log, the auditor, and the runtime.
// Self times are added by the caller from the CPU profile.
func layerCounters(in *instance, res *core.Result, pendingMax int, tr *tracer, ms0, ms1 *runtime.MemStats) map[string]float64 {
	sys := in.sys
	var mc mapred.Counters
	completed := 0
	for _, j := range sys.JT.Jobs() {
		c := j.Counters()
		mc.MapAttemptsStarted += c.MapAttemptsStarted
		mc.MapAttemptsFailed += c.MapAttemptsFailed
		mc.ReduceAttemptsStarted += c.ReduceAttemptsStarted
		mc.ReduceAttemptsFailed += c.ReduceAttemptsFailed
		mc.SpeculativeMaps += c.SpeculativeMaps
		mc.SpeculativeReduces += c.SpeculativeReduces
		mc.FetchFailures += c.FetchFailures
		for l := range c.Locality {
			mc.Locality[l] += c.Locality[l]
		}
		completed += j.CompletedMaps() + j.CompletedReduces()
	}
	maps := 0
	for _, js := range in.sched.Jobs {
		maps += js.Maps
	}
	events := float64(sys.Eng.Fired())
	loopS := tr.total("StartWorkload") + tr.total("RunTo") + tr.total("FinishWorkload")
	var draws uint64
	for _, s := range sys.RNGStreams() {
		draws += s.Draws
	}
	attempts := mc.MapAttemptsStarted + mc.ReduceAttemptsStarted
	sweepMs := make([]float64, len(in.sweeps))
	for i, d := range in.sweeps {
		sweepMs[i] = float64(d.Nanoseconds()) / 1e6
	}
	m := map[string]float64{
		"workload.gen_s": tr.total("Generate"),
		"workload.jobs":  float64(len(in.sched.Jobs)),
		"workload.maps":  float64(maps),

		"core.new_s": tr.total("NewSystem"),

		"sim.events":       events,
		"sim.events_per_s": ratio(events, loopS),
		"sim.pending_max":  float64(pendingMax),
		"sim.rand_draws":   float64(draws),

		"grid.provisioned":     float64(res.Pool.Provisioned),
		"grid.preempted":       float64(res.Pool.Preempted + res.Pool.BatchPreempted),
		"grid.reached":         float64(sys.Pool.AliveCount()),
		"grid.provision_sim_s": sys.RunStart().Seconds(),

		"netmodel.flows":           float64(res.Net.FlowsStarted),
		"netmodel.flows_canceled":  float64(res.Net.FlowsCanceled),
		"netmodel.gb_moved":        res.Net.BytesTotal / 1e9,
		"netmodel.cross_site_frac": ratio(res.Net.BytesCrossSite, res.Net.BytesTotal),

		"hdfs.blocks_created":         float64(res.NN.BlocksCreated),
		"hdfs.replications":           float64(res.NN.ReplicationsDone),
		"hdfs.blocks_lost":            float64(res.NN.BlocksLost),
		"hdfs.write_replicas_skipped": float64(res.NN.WriteReplicasSkipped),
		"hdfs.corrupt_reads_detected": float64(res.NN.CorruptReadsDetected),
		"hdfs.pipeline_recoveries":    float64(res.NN.PipelineRecoveries),

		"mapred.map_attempts":        float64(mc.MapAttemptsStarted),
		"mapred.reduce_attempts":     float64(mc.ReduceAttemptsStarted),
		"mapred.attempts_failed":     float64(mc.MapAttemptsFailed + mc.ReduceAttemptsFailed),
		"mapred.speculative":         float64(mc.SpeculativeMaps + mc.SpeculativeReduces),
		"mapred.fetch_failures":      float64(mc.FetchFailures),
		"mapred.node_local_frac":     ratio(float64(mc.Locality[0]), float64(mc.Locality[0]+mc.Locality[1]+mc.Locality[2])),
		"mapred.useful_attempt_frac": ratio(float64(completed), float64(attempts)),

		"audit.sweeps":       float64(len(in.sweeps)),
		"audit.sweep_s":      tr.total("Sweep"),
		"audit.sweep_p50_ms": median(sweepMs),
		"audit.violations":   0,

		"event.count": float64(in.log.Total()),

		"runtime.alloc_mb":          float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		"runtime.mallocs_per_event": ratio(float64(ms1.Mallocs-ms0.Mallocs), events),
		"runtime.gc_count":          float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_ms":       float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
	}
	if in.aud != nil {
		m["audit.violations"] = float64(in.aud.Count())
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
