package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/sim"
	"hog/internal/workload"
)

func TestLayerOfChargesInnermostInternalFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "hog/internal/netmodel.(*Network).rebalance", "hog/internal/sim.(*Engine).step"}, "netmodel"},
		{[]string{"runtime.mapaccess2", "container/heap.Fix", "hog/internal/sim.(*Engine).Schedule", "hog/internal/mapred.(*JobTracker).assign"}, "sim"},
		// Unmeasured internal packages are charged to their measured caller.
		{[]string{"hog/internal/topology.(*Mapper).Site", "hog/internal/core.(*System).onJoin"}, "core"},
		{[]string{"hog/internal/hdfs.(*Namenode).checkDead.func1", "hog/internal/sim.(*Engine).step"}, "hdfs"},
		{[]string{"hog/internal/audit.(*Auditor).Sweep", "main.setUp.func1", "hog/internal/sim.tickerTick"}, "audit"},
		// Runtime-only and benchmark-only stacks go to runtime.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, "runtime"},
		{[]string{"main.runOnce", "main.main", "runtime.main"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	self := selfTimes([]cpuSample{
		{stack: cases[0].stack, ns: 10e6},
		{stack: cases[5].stack, ns: 20e6},
		{stack: cases[0].stack, ns: 10e6},
	})
	if self["netmodel"] != 0.02 || self["runtime"] != 0.02 || len(self) != len(layers) {
		t.Errorf("selfTimes = %v", self)
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseProfileDecodesRuntimeProfile(t *testing.T) {
	var buf strings.Builder
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			found = found || fn == "hog/hogperf.burnCPU"
		}
	}
	if !found || total < int64(100*time.Millisecond) {
		t.Errorf("decoded %d samples, %v CPU, burnCPU seen: %v", len(samples), time.Duration(total), found)
	}
}

func TestReferenceCheckRejectsTamperedOutputs(t *testing.T) {
	refs, err := loadRefs(refsJSON)
	if err != nil {
		t.Fatal(err)
	}
	good, ok := refs.lookup("mega-warmup", 1)
	if !ok {
		t.Fatal("no mega-warmup seed 1 reference")
	}
	if c := refs.seeds("mega-warmup"); c[cycleStart(c, 1)] != 1 {
		t.Errorf("--seed 1 does not start mega-warmup's cycle %v at seed 1", c)
	}
	tamper := []func(*outputs){
		func(o *outputs) { o.ResponseUs++ },
		func(o *outputs) { o.Net.FlowsStarted-- },
		func(o *outputs) { o.EventsFP ^= 1 },
		func(o *outputs) { o.RNG = append([]core.RNGStream(nil), o.RNG...); o.RNG[0].Draws++ },
	}
	runs := []childRun{{seed: 1, res: runResult{Out: good}}}
	for _, f := range tamper {
		bad := good
		f(&bad)
		runs = append(runs, childRun{seed: 1, res: runResult{Out: bad}})
	}
	if n := checkRuns("mega-warmup", runs, refs); n != len(tamper) {
		t.Errorf("checkRuns flagged %d runs, want %d", n, len(tamper))
	}
	if diff := diffOutputs(good, good); diff != "" {
		t.Errorf("identical outputs differ: %s", diff)
	}

	// A run of a seed with no reference fails, and so does a run whose
	// audit is not clean even when its outputs match.
	audited := good
	audited.Audit = &auditOutcome{Violations: 1, Paired: true}
	refs = refTable{"chaos-repair": {"1": audited}}
	runs = []childRun{{seed: 1, res: runResult{Out: audited}}, {seed: 2, res: runResult{Out: audited}}}
	if n := checkRuns("chaos-repair", runs, refs); n != 2 {
		t.Errorf("checkRuns flagged %d runs, want 2", n)
	}
}

// TestMegaReferenceIsBaselineRow pins that mega-warmup at seed 1 is the
// MEGA-GRID experiment the repository's results document records, so the
// benchmark drives the same program as hogbench.
func TestMegaReferenceIsBaselineRow(t *testing.T) {
	data, err := os.ReadFile("../BENCH_baseline.json")
	if err != nil {
		t.Skip("no results document:", err)
	}
	var doc struct {
		Experiments []struct {
			ID     string `json:"id"`
			Trials []struct {
				Seed    int64              `json:"seed"`
				Metrics map[string]float64 `json:"metrics"`
			} `json:"trials"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	refs, err := loadRefs(refsJSON)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := refs.lookup("mega-warmup", 1)
	if !ok {
		t.Fatal("no mega-warmup seed 1 reference")
	}
	for _, e := range doc.Experiments {
		if e.ID != "mega" {
			continue
		}
		m := e.Trials[0].Metrics
		if e.Trials[0].Seed != 1 ||
			float64(ref.ResponseUs)/1e6 != m["response_s"] ||
			float64(ref.Reached) != m["reached_nodes"] ||
			float64(ref.Net.FlowsStarted) != m["flows_started"] ||
			float64(ref.JobsFailed) != m["jobs_failed"] ||
			ref.Net.BytesCrossSite/ref.Net.BytesTotal != m["cross_site_frac"] {
			t.Errorf("mega-warmup seed 1 reference %+v does not match the MEGA row %v", ref, m)
		}
		return
	}
	t.Fatal("results document has no mega experiment")
}

// TestProvisionsOnlyThroughStartWorkload pins that a run warms the pool up
// exactly once. On a pool that cannot reach its target, warm-up lasts the
// whole provisioning bound; an AwaitNodes call before StartWorkload would
// re-arm the bound and double it, changing every result after it.
func TestProvisionsOnlyThroughStartWorkload(t *testing.T) {
	bound := 20 * sim.Minute
	def := workloadDef{
		name:  "short-pool",
		scale: 0.1,
		config: func(seed int64) core.Config {
			cfg := core.HOGConfig(60, grid.ChurnStable, seed)
			for i := range cfg.Grid.Sites {
				cfg.Grid.Sites[i].Capacity = 4
			}
			cfg.Grid.ProvisionBound = bound
			return cfg
		},
	}
	res, err := runOnce(def, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := sim.Time(res.Out.WarmupUs); w < bound || w >= 2*bound || res.Out.Reached >= 60 {
		t.Fatalf("benchmark run warmed up for %v and reached %d; want one %v bound below target", w, res.Out.Reached, bound)
	}

	sys, err := core.NewSystem(def.config(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.AwaitNodes()
	if err := sys.StartWorkload(workload.Generate(1, workload.Config{Scale: def.scale})); err != nil {
		t.Fatal(err)
	}
	if sys.RunStart() < 2*bound {
		t.Fatalf("AwaitNodes then StartWorkload warmed up for %v; the hazard this test pins is gone", sys.RunStart())
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsAreNamedWithUnits checks every metric's name and unit, that
// every layer reports its self time, and that BENCHMARK.json declares the
// same workloads and metrics the program prints.
func TestMetricsAreNamedWithUnits(t *testing.T) {
	seen := map[string]string{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", m.name, m.unit)
		}
		if _, dup := seen[m.name]; dup {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = m.unit
	}
	for _, l := range layers {
		if seen[l+".self_s"] != "s" {
			t.Errorf("layer %s has no self_s metric", l)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, want []metric) {
		if len(declared) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the program prints %d", len(declared), kind, len(want))
			return
		}
		for i, m := range want {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestChaosSpecIsSeededAndValid(t *testing.T) {
	cfg := core.HOGConfig(60, grid.ChurnUnstable, 1)
	var sites []string
	for _, s := range cfg.Grid.Sites {
		sites = append(sites, s.Name)
	}
	jobs := workload.Generate(1, workload.Config{Scale: 1}).Jobs
	a, b := chaosSpec(1, sites, jobs), chaosSpec(1, sites, jobs)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("chaosSpec is not a function of its seed")
	}
	for i := 1; i < len(a.Steps); i++ {
		if a.Steps[i].At <= a.Steps[i-1].At {
			t.Errorf("step %d at %v does not follow step %d at %v", i, a.Steps[i].At, i-1, a.Steps[i-1].At)
		}
	}
	sc, err := core.ScenarioFromSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Apply(sc); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3.0, 1.0], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, p := range parent {
		faster[i], slower[i] = p*0.8, p*1.3
	}
	pq := quartiles(parent)
	if v := verdict(parent, faster, pq, quartiles(faster), len(parent), len(parent), true, 0.1); v != "gain" {
		t.Errorf("20%% faster on every pair: %s", v)
	}
	if v := verdict(parent, slower, pq, quartiles(slower), 0, len(parent), true, 0.1); v != "regression" {
		t.Errorf("30%% slower: %s", v)
	}
	if v := verdict(parent, parent, pq, pq, 0, len(parent), true, 0.1); v != "no change" {
		t.Errorf("identical: %s", v)
	}
}
