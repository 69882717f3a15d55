package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hog/internal/experiments"
)

// tinyOpts keeps simulation trials cheap enough for unit tests.
func tinyOpts() experiments.Options {
	return experiments.Options{Scale: 0.1, Seeds: []int64{1, 2}, Nodes: []int{20, 40}}
}

// docBytes runs ids at the given worker count and returns the JSON document.
func docBytes(t *testing.T, ids []string, opts experiments.Options, workers int) []byte {
	t.Helper()
	doc, err := RunSuite(context.Background(), ids, opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSequentialParallelEquivalence is the harness's determinism contract:
// for a fixed seed set, the JSON document must be byte-identical whether
// trials ran on one worker or many.
func TestSequentialParallelEquivalence(t *testing.T) {
	ids := []string{"table1", "table2", "table3", "fig4", "fig5", "hod"}
	opts := tinyOpts()
	seq := docBytes(t, ids, opts, 1)
	par := docBytes(t, ids, opts, 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel document differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !json.Valid(seq) {
		t.Fatal("document is not valid JSON")
	}
	var doc Doc
	if err := json.Unmarshal(seq, &doc); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if doc.Schema != Schema || doc.SchemaVersion != SchemaVersion {
		t.Fatalf("schema header = %q v%d", doc.Schema, doc.SchemaVersion)
	}
	if len(doc.Experiments) != len(ids) {
		t.Fatalf("experiments = %d, want %d", len(doc.Experiments), len(ids))
	}
	// fig4 at 2 nodes x 2 seeds plus the cluster reference.
	for _, e := range doc.Experiments {
		if e.ID == "fig4" && len(e.Trials) != 5 {
			t.Fatalf("fig4 trials = %d, want 5", len(e.Trials))
		}
	}
}

// syntheticTrials builds n instrumented trials that record pool concurrency.
func syntheticTrials(n int, cur, max *int64, ran *int64) []Trial {
	trials := make([]Trial, n)
	for i := range trials {
		i := i
		trials[i] = Trial{
			Experiment: "synthetic", Point: "p", Seed: int64(i),
			run: func() (any, Metrics) {
				c := atomic.AddInt64(cur, 1)
				for {
					m := atomic.LoadInt64(max)
					if c <= m || atomic.CompareAndSwapInt64(max, m, c) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				atomic.AddInt64(cur, -1)
				atomic.AddInt64(ran, 1)
				return nil, Metrics{"i": float64(i)}
			},
		}
	}
	return trials
}

// TestWorkerPoolLimit asserts the pool never exceeds its worker bound and
// still executes and places every trial.
func TestWorkerPoolLimit(t *testing.T) {
	var cur, max, ran int64
	trials := syntheticTrials(12, &cur, &max, &ran)
	results := Run(trials, 3)
	if got := atomic.LoadInt64(&max); got > 3 {
		t.Fatalf("observed %d concurrent trials, want <= 3", got)
	}
	if ran != 12 || len(results) != 12 {
		t.Fatalf("ran %d trials, got %d results, want 12", ran, len(results))
	}
	for i, r := range results {
		if r.Metrics["i"] != float64(i) {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
	// Degenerate worker counts clamp instead of misbehaving.
	atomic.StoreInt64(&ran, 0)
	if got := Run(syntheticTrials(2, &cur, &max, &ran), 0); len(got) != 2 {
		t.Fatalf("workers=0 returned %d results", len(got))
	}
	if got := Run(nil, 4); len(got) != 0 {
		t.Fatalf("empty trial list returned %d results", len(got))
	}
}

// TestCancellation checks that canceling the context stops the pool after
// the in-flight trials and surfaces the context error.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	var once sync.Once
	trials := make([]Trial, 16)
	for i := range trials {
		trials[i] = Trial{
			Experiment: "synthetic", Point: "p",
			run: func() (any, Metrics) {
				once.Do(cancel) // first trial to run cancels the suite
				atomic.AddInt64(&ran, 1)
				time.Sleep(5 * time.Millisecond)
				return nil, Metrics{}
			},
		}
	}
	results, err := RunContext(ctx, trials, 2)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if results != nil {
		t.Fatal("canceled run returned results")
	}
	if got := atomic.LoadInt64(&ran); got >= 16 {
		t.Fatalf("cancel did not stop the pool: %d/16 trials ran", got)
	}
}

// TestAggregates verifies the per-point mean/min/max/std math across seeds.
func TestAggregates(t *testing.T) {
	results := []TrialResult{
		{Experiment: "x", Point: "a", Seed: 1, Metrics: Metrics{"response_s": 10}},
		{Experiment: "x", Point: "a", Seed: 2, Metrics: Metrics{"response_s": 14}},
		{Experiment: "x", Point: "b", Seed: 1, Metrics: Metrics{"response_s": 7}},
	}
	doc := BuildDoc([]Spec{{ID: "x", Desc: "synthetic"}}, tinyOpts(), results)
	if len(doc.Experiments) != 1 || len(doc.Experiments[0].Aggregates) != 2 {
		t.Fatalf("doc shape: %+v", doc.Experiments)
	}
	a := doc.Experiments[0].Aggregates[0]
	if a.Point != "a" {
		t.Fatalf("first aggregate point = %q (insertion order lost)", a.Point)
	}
	s := a.Metrics["response_s"]
	if s.N != 2 || s.Mean != 12 || s.Min != 10 || s.Max != 14 || math.Abs(s.Std-2) > 1e-12 {
		t.Fatalf("aggregate = %+v", s)
	}
}

// TestSelect covers id resolution: all, aliases, duplicates, unknowns.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Specs()) {
		t.Fatalf("all -> %d specs, err=%v", len(all), err)
	}
	alias, err := Select("table4")
	if err != nil || len(alias) != 1 || alias[0].ID != "fig5" {
		t.Fatalf("table4 alias -> %+v, err=%v", alias, err)
	}
	dup, err := Select("fig4", "fig4", "fig5")
	if err != nil || len(dup) != 2 {
		t.Fatalf("duplicate ids -> %d specs, err=%v", len(dup), err)
	}
	if _, err := Select("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := Select(); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// TestExpandMatrixShape checks the experiment x seed x nodes expansion.
func TestExpandMatrixShape(t *testing.T) {
	specs, _ := Select("fig4")
	trials := Expand(specs, tinyOpts())
	if len(trials) != 5 { // cluster + 2 nodes x 2 seeds
		t.Fatalf("fig4 trials = %d, want 5", len(trials))
	}
	seen := map[string]int{}
	for _, tr := range trials {
		seen[tr.Point]++
		if tr.Scale != 0.1 {
			t.Fatalf("trial scale = %v", tr.Scale)
		}
	}
	if seen["cluster"] != 1 || seen["nodes=20"] != 2 || seen["nodes=40"] != 2 {
		t.Fatalf("points = %v", seen)
	}
	// Defaults flow through Expand centrally.
	defTrials := Expand(specs, experiments.Options{Scale: 0.1, Seeds: []int64{1}})
	if len(defTrials) != 1+12 {
		t.Fatalf("defaulted fig4 trials = %d, want 13 (paper's 12 points + cluster)", len(defTrials))
	}
}

// TestSpecsComplete guards the registry: every experiment has a unique id,
// a description, cells, metrics and a text report.
func TestSpecsComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Specs() {
		if s.ID == "" || s.Desc == "" || s.Cells == nil || s.Metrics == nil || s.Report == nil {
			t.Errorf("incomplete spec %q: %+v", s.ID, s)
		}
		if seen[s.ID] {
			t.Errorf("duplicate spec id %q", s.ID)
		}
		seen[s.ID] = true
	}
	for alias, id := range Aliases() {
		if seen[alias] || !seen[id] {
			t.Errorf("alias %q -> %q must name a registry id and not shadow one", alias, id)
		}
	}
}

// TestWriteText pins the text reports of the two pure experiments byte for
// byte, at one and two workers, each followed by its blank line; a document
// without rows (decoded from JSON) renders a notice and the trial errors
// instead.
func TestWriteText(t *testing.T) {
	const want = `Table I: Facebook production workload bins
Bin  #Maps  %Jobs@FB  #Maps(bench)  #Jobs(bench)
  1  1            39%             1            38
  2  2            16%             2            16
  3  3-20         14%            10            14
  4  21-60         9%            50             8
  5  61-150        6%           100             6
  6  151-300       6%           200             6
  7  301-500       4%           400             4
  8  501-1500      4%           800             4
  9  >1501         3%          4800             4
generated schedule: 88 jobs, bins [38 16 14 8 6 6], span 1358s

Table II: truncated workload (bins 1-6, 88 jobs)
Bin  MapTasks  ReduceTasks  Jobs
  1         1            1    38
  2         2            1    16
  3        10            5    14
  4        50           10     8
  5       100           20     6
  6       200           30     6
total: 88 jobs, 2410 map tasks

`
	for _, workers := range []int{1, 2} {
		doc, err := RunSuite(context.Background(), []string{"table2", "table1"}, tinyOpts(), workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		doc.WriteText(&buf)
		if got := buf.String(); got != want {
			t.Fatalf("workers=%d: text report differs:\n--- got ---\n%s\n--- want ---\n%s", workers, got, want)
		}
	}

	decoded := &Doc{Experiments: []ExperimentResults{{
		ID: "table2", Description: "Table II: truncated workload",
		Trials: []TrialResult{{Experiment: "table2", Point: "workload", Error: "panic: boom"}},
	}}}
	var buf bytes.Buffer
	decoded.WriteText(&buf)
	const notice = "table2: Table II: truncated workload: no text report\n  workload seed=0: panic: boom\n\n"
	if buf.String() != notice {
		t.Fatalf("row-less document rendered %q, want %q", buf.String(), notice)
	}
}
