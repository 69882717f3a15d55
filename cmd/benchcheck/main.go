// Command benchcheck compares two hog-results JSON documents (see
// docs/HARNESS.md) metric by metric and fails when the new run regresses
// past a tolerance — the CI gate that turns the committed BENCH_baseline.json
// into an accumulating benchmark trajectory.
//
// Usage:
//
//	benchcheck -old BENCH_baseline.json -new BENCH_suite.json [-tol 0.5] [-require giga,chaos]
//
// Every (experiment, point, seed, metric) present in both documents is
// compared as |new-old| <= tol * max(|old|, floor). The simulated metrics
// are deterministic for a fixed seed set, so in the steady state the gate
// passes with zero drift; the generous default tolerance exists so that
// deliberate model changes (new scheduling policy, recalibrated costs) can
// land without ceremony, while a rewrite that silently halves throughput or
// doubles failures trips it.
//
// Whole experiments may come and go — a document that covers only a subset
// of the baseline's experiments (the chaos job gates BENCH_chaos.json alone)
// is fine. But within an experiment both documents claim to cover, a row
// present in the baseline and absent from the new document is a silently
// dropped measurement and fails the gate, as does any -require experiment id
// missing from the new document.
//
// When the GITHUB_STEP_SUMMARY environment variable names a file (as it does
// inside a GitHub Actions step), a markdown comparison table is appended to
// it, so the per-experiment drift shows up on the workflow summary page.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"hog/internal/ordered"
)

type doc struct {
	Schema        string       `json:"schema"`
	SchemaVersion int          `json:"schema_version"`
	Experiments   []experiment `json:"experiments"`
}

type experiment struct {
	ID     string `json:"id"`
	Trials []struct {
		Point   string             `json:"point"`
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"trials"`
}

func load(path string) (*doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != "hog-results" {
		return nil, fmt.Errorf("%s: schema %q is not hog-results", path, d.Schema)
	}
	return &d, nil
}

// rows indexes one experiment's trial metrics by "point/seed=N/metric".
func rows(e experiment) map[string]float64 {
	out := make(map[string]float64)
	for _, t := range e.Trials {
		for k, v := range t.Metrics {
			out[fmt.Sprintf("%s/seed=%d/%s", t.Point, t.Seed, k)] = v
		}
	}
	return out
}

// regression is one metric that drifted past its limit.
type regression struct {
	Key                    string
	Old, New, Drift, Limit float64
}

// expRow is the per-experiment rollup the markdown table prints.
type expRow struct {
	ID                               string
	Compared, Failed, Missing, Added int
}

// report is the outcome of comparing two documents. Fatal conditions are
// regressions, rows missing within a shared experiment, required experiments
// absent from the new document, and an empty comparison.
type report struct {
	Exps            []expRow
	Regressions     []regression
	MissingRows     []string // rows dropped from an experiment both documents cover
	RequiredMissing []string // -require experiment ids absent from the new document
	BaselineOnly    []string // whole experiments absent from the new document (informational)
	NewOnly         []string // whole experiments absent from the baseline (informational)
	Compared        int
	Tol             float64
}

func (r *report) failed() int { return len(r.Regressions) }

func (r *report) ok() bool {
	return r.Compared > 0 && r.failed() == 0 && len(r.MissingRows) == 0 && len(r.RequiredMissing) == 0
}

// compare evaluates the new document against the baseline. Iteration order
// follows the baseline's experiment order with rows sorted, so output is
// deterministic.
func compare(oldDoc, newDoc *doc, tol, floor float64, require []string) *report {
	r := &report{Tol: tol}
	newExps := make(map[string]experiment, len(newDoc.Experiments))
	for _, e := range newDoc.Experiments {
		newExps[e.ID] = e
	}
	oldIDs := make(map[string]bool, len(oldDoc.Experiments))
	for _, oe := range oldDoc.Experiments {
		oldIDs[oe.ID] = true
		ne, ok := newExps[oe.ID]
		if !ok {
			r.BaselineOnly = append(r.BaselineOnly, oe.ID)
			continue
		}
		oldRows, newRows := rows(oe), rows(ne)
		row := expRow{ID: oe.ID}
		for _, k := range ordered.Keys(oldRows) {
			ov := oldRows[k]
			nv, ok := newRows[k]
			if !ok {
				row.Missing++
				r.MissingRows = append(r.MissingRows, oe.ID+"/"+k)
				continue
			}
			row.Compared++
			r.Compared++
			limit := tol * math.Max(math.Abs(ov), floor)
			if drift := math.Abs(nv - ov); drift > limit {
				row.Failed++
				r.Regressions = append(r.Regressions, regression{Key: oe.ID + "/" + k, Old: ov, New: nv, Drift: drift, Limit: limit})
			}
		}
		for k := range newRows {
			if _, ok := oldRows[k]; !ok {
				row.Added++
			}
		}
		r.Exps = append(r.Exps, row)
	}
	for _, ne := range newDoc.Experiments {
		if !oldIDs[ne.ID] {
			r.NewOnly = append(r.NewOnly, ne.ID)
		}
	}
	for _, id := range require {
		if _, ok := newExps[id]; !ok {
			r.RequiredMissing = append(r.RequiredMissing, id)
		}
	}
	return r
}

// print writes the plain-text report: one line per fatal condition, then the
// one-line rollup CI logs always show.
func (r *report) print(w io.Writer) {
	for _, g := range r.Regressions {
		fmt.Fprintf(w, "REGRESSION %s: old=%.6g new=%.6g (drift %.6g > %.6g)\n", g.Key, g.Old, g.New, g.Drift, g.Limit)
	}
	for _, k := range r.MissingRows {
		fmt.Fprintf(w, "MISSING ROW %s: present in baseline, absent from new document\n", k)
	}
	for _, id := range r.RequiredMissing {
		fmt.Fprintf(w, "MISSING EXPERIMENT %s: required but absent from new document\n", id)
	}
	fmt.Fprintf(w, "benchcheck: %d compared, %d failed, %d rows missing, baseline-only %v, new-only %v (tol %.0f%%)\n",
		r.Compared, r.failed(), len(r.MissingRows), r.BaselineOnly, r.NewOnly, 100*r.Tol)
	if r.Compared == 0 {
		fmt.Fprintln(w, "benchcheck: no overlapping metrics; baseline needs refreshing")
	}
}

// markdown writes the GitHub step-summary table: a per-experiment rollup and,
// when something tripped, the offending rows.
func (r *report) markdown(w io.Writer, oldPath, newPath string) {
	verdict := "✅ pass"
	if !r.ok() {
		verdict = "❌ fail"
	}
	fmt.Fprintf(w, "### benchcheck: `%s` vs `%s` — %s\n\n", oldPath, newPath, verdict)
	fmt.Fprintf(w, "| experiment | compared | failed | missing | new-only rows |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|\n")
	for _, e := range r.Exps {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d |\n", e.ID, e.Compared, e.Failed, e.Missing, e.Added)
	}
	fmt.Fprintln(w)
	if len(r.Regressions) > 0 {
		fmt.Fprintf(w, "| regression | old | new | drift | limit |\n|---|---:|---:|---:|---:|\n")
		for _, g := range r.Regressions {
			fmt.Fprintf(w, "| %s | %.6g | %.6g | %.6g | %.6g |\n", g.Key, g.Old, g.New, g.Drift, g.Limit)
		}
		fmt.Fprintln(w)
	}
	if len(r.MissingRows) > 0 {
		fmt.Fprintf(w, "**Rows missing from the new document:** %s\n\n", strings.Join(r.MissingRows, ", "))
	}
	if len(r.RequiredMissing) > 0 {
		fmt.Fprintf(w, "**Required experiments missing:** %s\n\n", strings.Join(r.RequiredMissing, ", "))
	}
	if len(r.BaselineOnly) > 0 {
		fmt.Fprintf(w, "Baseline-only experiments (not gated): %s\n\n", strings.Join(r.BaselineOnly, ", "))
	}
}

// appendSummary appends the markdown report to path — the file GitHub names
// via GITHUB_STEP_SUMMARY, which may already hold earlier steps' sections.
func appendSummary(path string, r *report, oldPath, newPath string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	r.markdown(f, oldPath, newPath)
	return f.Close()
}

func main() {
	oldPath := flag.String("old", "", "baseline hog-results document")
	newPath := flag.String("new", "", "candidate hog-results document")
	tol := flag.Float64("tol", 0.5, "allowed relative drift per metric")
	floor := flag.Float64("floor", 1.0, "absolute scale floor so near-zero metrics aren't all noise")
	require := flag.String("require", "", "comma-separated experiment ids that must be present in the new document")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -old and -new are required")
		os.Exit(2)
	}
	oldDoc, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	newDoc, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	var req []string
	for _, id := range strings.Split(*require, ",") {
		if id = strings.TrimSpace(id); id != "" {
			req = append(req, id)
		}
	}
	r := compare(oldDoc, newDoc, *tol, *floor, req)
	r.print(os.Stdout)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if err := appendSummary(path, r, *oldPath, *newPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck: step summary:", err)
		}
	}
	if !r.ok() {
		os.Exit(1)
	}
}
