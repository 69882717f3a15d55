package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestTrialPanicIsolation asserts that a panicking trial yields an
// error-carrying result row while every other trial — before and after it,
// sequential or pooled — still runs and lands in its slot.
func TestTrialPanicIsolation(t *testing.T) {
	mkTrials := func() []Trial {
		trials := make([]Trial, 5)
		for i := range trials {
			i := i
			if i == 2 {
				trials[i] = Trial{
					Experiment: "synthetic", Point: "boom", Seed: int64(i),
					run: func() (any, Metrics) { panic("trial exploded") },
				}
				continue
			}
			trials[i] = Trial{
				Experiment: "synthetic", Point: "ok", Seed: int64(i),
				run: func() (any, Metrics) { return nil, Metrics{"i": float64(i)} },
			}
		}
		return trials
	}
	for _, workers := range []int{1, 3} {
		results := Run(mkTrials(), workers)
		if len(results) != 5 {
			t.Fatalf("workers=%d: got %d results, want 5", workers, len(results))
		}
		for i, r := range results {
			if i == 2 {
				if !strings.Contains(r.Error, "trial exploded") {
					t.Fatalf("workers=%d: panicking trial error = %q", workers, r.Error)
				}
				if r.Point != "boom" || r.Seed != 2 {
					t.Fatalf("workers=%d: panicking trial lost its coordinates: %+v", workers, r)
				}
				continue
			}
			if r.Error != "" {
				t.Fatalf("workers=%d: clean trial %d has error %q", workers, i, r.Error)
			}
			if r.Metrics["i"] != float64(i) {
				t.Fatalf("workers=%d: result %d out of order: %+v", workers, i, r)
			}
		}
	}
}

// TestCleanTrialJSONUnchanged pins that the error field stays out of the
// JSON encoding of healthy trials — existing output comparisons depend on
// byte-identical rows.
func TestCleanTrialJSONUnchanged(t *testing.T) {
	b, err := json.Marshal(TrialResult{Experiment: "e", Point: "p", Metrics: Metrics{"m": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "error") {
		t.Fatalf("clean trial JSON mentions error: %s", b)
	}
}
