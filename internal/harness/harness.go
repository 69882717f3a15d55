// Package harness runs the paper's experiments as one trial matrix
// (experiment × seed × scale × nodes): it expands each experiment's cells
// into trials, executes them concurrently across a bounded worker pool,
// aggregates per-point statistics across seeds, and renders the results as
// a versioned JSON document or as the experiments' text reports.
//
// Every trial builds its own self-contained, deterministic core.System, so
// trials are safe to run concurrently and both renderings are bit-identical
// regardless of worker count or completion order: results are written into
// a slice indexed by trial position, never appended in completion order.
// docs/HARNESS.md records the schema and the determinism contract.
package harness

import (
	"fmt"

	"hog/internal/experiments"
)

// Metrics holds one trial's named scalar measurements. Keys serialize in
// sorted order (encoding/json), keeping documents byte-stable.
type Metrics map[string]float64

// Trial is one cell of the experiment matrix: a self-contained simulation
// run identified by its experiment, aggregation point, and seed.
type Trial struct {
	// Experiment is the owning experiment id (hogbench -list names).
	Experiment string
	// Point is the aggregation group within the experiment: trials sharing
	// a Point (across seeds) are summarized together.
	Point string
	// Seed is the simulation seed the trial runs under.
	Seed int64
	// Nodes is the target pool or cluster size, when meaningful.
	Nodes int
	// Scale is the workload scale factor.
	Scale float64

	// run executes the cell and returns its typed row with the row's
	// metrics.
	run func() (row any, m Metrics)
}

// Run executes the trial and returns its result.
func (t Trial) Run() TrialResult {
	row, m := t.run()
	return TrialResult{
		Experiment: t.Experiment,
		Point:      t.Point,
		Seed:       t.Seed,
		Nodes:      t.Nodes,
		Scale:      t.Scale,
		Metrics:    m,
		row:        row,
	}
}

// TrialResult is one executed trial: its matrix coordinates plus measured
// metrics.
type TrialResult struct {
	Experiment string  `json:"experiment"`
	Point      string  `json:"point"`
	Seed       int64   `json:"seed,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Metrics    Metrics `json:"metrics"`
	// Error is set when the trial panicked; Metrics is then nil. Absent
	// from JSON for clean trials, so healthy output is unchanged.
	Error string `json:"error,omitempty"`

	// row is the experiment's typed result the text report is rendered
	// from; nil when the trial panicked or the result was decoded from JSON.
	row any
}

// Spec is one experiment the harness knows how to expand into trials,
// declared in internal/experiments.
type Spec = experiments.Experiment

// Specs returns the full experiment registry in report order.
func Specs() []Spec { return experiments.All() }

// Aliases maps each extra -exp id onto the registry id it runs.
func Aliases() map[string]string {
	return map[string]string{"table4": "fig5"} // Table IV rides along with Figure 5
}

// Select resolves experiment ids ("all", an alias, or any registry id)
// into specs, preserving registry order and dropping duplicates.
func Select(ids ...string) ([]Spec, error) {
	all := Specs()
	want := map[string]bool{}
	for _, id := range ids {
		if id == "all" {
			for _, s := range all {
				want[s.ID] = true
			}
			continue
		}
		if target, ok := Aliases()[id]; ok {
			id = target
		}
		known := false
		for _, s := range all {
			if s.ID == id {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
		want[id] = true
	}
	var out []Spec
	for _, s := range all {
		if want[s.ID] {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: no experiments selected")
	}
	return out, nil
}

// Expand applies defaults once and expands the specs' cells into the flat
// trial matrix, in spec order.
func Expand(specs []Spec, opts experiments.Options) []Trial {
	opts = opts.WithDefaults()
	var trials []Trial
	for _, s := range specs {
		metrics := s.Metrics
		for _, c := range s.Cells(opts) {
			run := c.Run
			trials = append(trials, Trial{
				Experiment: s.ID, Point: c.Point, Seed: c.Seed, Nodes: c.Nodes, Scale: c.Scale,
				run: func() (any, Metrics) {
					row := run()
					return row, metrics(row)
				},
			})
		}
	}
	return trials
}
