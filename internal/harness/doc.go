package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"hog/internal/experiments"
	"hog/internal/metrics"
)

// Schema identifies the results-document format; bump SchemaVersion on any
// incompatible change so CI trackers can reject documents they don't
// understand.
const (
	Schema        = "hog-results"
	SchemaVersion = 1
)

// OptionsDoc records the matrix inputs the document was produced from.
type OptionsDoc struct {
	Scale float64 `json:"scale"`
	Seeds []int64 `json:"seeds"`
	Nodes []int   `json:"nodes"`
}

// Aggregate summarizes one point's metrics across its trials (seeds).
type Aggregate struct {
	Point   string                          `json:"point"`
	Metrics map[string]metrics.FloatSummary `json:"metrics"`
}

// ExperimentResults groups one experiment's trials and per-point aggregates.
type ExperimentResults struct {
	ID          string        `json:"id"`
	Description string        `json:"description"`
	Trials      []TrialResult `json:"trials"`
	Aggregates  []Aggregate   `json:"aggregates"`
}

// Doc is the versioned results document. It deliberately carries no
// wall-clock timestamps or worker counts: for a fixed seed set the document
// is bit-identical however it was produced (sequential, parallel, CI,
// benchmark). Timing belongs on stderr and in CI logs, not in the artifact.
type Doc struct {
	Schema        string              `json:"schema"`
	SchemaVersion int                 `json:"schema_version"`
	Options       OptionsDoc          `json:"options"`
	Experiments   []ExperimentResults `json:"experiments"`
}

// BuildDoc assembles the document from executed trials, grouping by spec in
// spec order and aggregating per point across seeds.
func BuildDoc(specs []Spec, opts experiments.Options, results []TrialResult) *Doc {
	opts = opts.WithDefaults()
	doc := &Doc{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		Options:       OptionsDoc{Scale: opts.Scale, Seeds: opts.Seeds, Nodes: opts.Nodes},
	}
	byExp := map[string][]TrialResult{}
	for _, r := range results {
		byExp[r.Experiment] = append(byExp[r.Experiment], r)
	}
	for _, s := range specs {
		rs := byExp[s.ID]
		doc.Experiments = append(doc.Experiments, ExperimentResults{
			ID:          s.ID,
			Description: s.Desc,
			Trials:      rs,
			Aggregates:  aggregate(rs),
		})
	}
	return doc
}

// aggregate groups trials by point (in first-seen order) and summarizes
// every metric across the group's trials.
func aggregate(rs []TrialResult) []Aggregate {
	var out []Aggregate
	for _, group := range metrics.Group(rs, func(r TrialResult) string { return r.Point }) {
		keys := map[string][]float64{}
		for _, r := range group {
			for k, v := range r.Metrics {
				keys[k] = append(keys[k], v)
			}
		}
		agg := Aggregate{Point: group[0].Point, Metrics: map[string]metrics.FloatSummary{}}
		for k, vs := range keys {
			agg.Metrics[k] = metrics.SummarizeFloats(vs)
		}
		out = append(out, agg)
	}
	return out
}

// WriteJSON serializes the document as stable, indented JSON. Map keys
// marshal sorted, so the bytes are a deterministic function of the trial
// results alone.
func (d *Doc) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteText renders each experiment's text report from its trials' rows,
// followed by a blank line. An experiment with a trial that has no row — it
// panicked, or the document was decoded from JSON — gets a one-line notice
// and its trials' errors instead.
func (d *Doc) WriteText(w io.Writer) {
	for _, e := range d.Experiments {
		rows := make([]any, len(e.Trials))
		complete := true
		for i, t := range e.Trials {
			rows[i] = t.row
			complete = complete && t.row != nil
		}
		specs, err := Select(e.ID)
		if complete && err == nil {
			specs[0].Report(w, rows)
		} else {
			fmt.Fprintf(w, "%s: %s: no text report\n", e.ID, e.Description)
			for _, t := range e.Trials {
				if t.Error != "" {
					fmt.Fprintf(w, "  %s seed=%d: %s\n", t.Point, t.Seed, t.Error)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// RunSuite expands the named experiments, executes them on workers
// goroutines, and returns the assembled document: the one-call entry point
// cmd/hogbench, bench_test.go, and the hog facade share.
func RunSuite(ctx context.Context, ids []string, opts experiments.Options, workers int) (*Doc, error) {
	specs, err := Select(ids...)
	if err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	trials := Expand(specs, opts)
	results, err := RunContext(ctx, trials, workers)
	if err != nil {
		return nil, err
	}
	return BuildDoc(specs, opts, results), nil
}
