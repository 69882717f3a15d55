package snapshot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rngAllowlist names every file allowed to import math/rand, with the named
// stream (or generator) each belongs to. The snapshot census records each
// simulator stream's (seed, draws) position, so a new rand source anywhere
// else would either have to join this list (and the core.RNGStreams
// registry) or break this test — there is no way to grow an untracked
// source of nondeterminism silently.
var rngAllowlist = map[string]string{
	"internal/sim/engine.go":         "the engine stream (core.RNGStreams \"engine\")",
	"internal/sim/rngsource.go":      "the CountingSource wrapper itself",
	"internal/sim/dist.go":           "distributions sampling the engine stream (no own source)",
	"internal/sim/shuffle.go":        "Fisher–Yates shuffles drawing from the engine's CountingSource (no own source)",
	"internal/workload/workload.go":  "pre-sim schedule generator (output rides in snapshots as data)",
	"internal/experiments/chaos.go":  "pre-sim chaos-schedule generator (seeded, generation-time only)",
	"internal/experiments/chaos2.go": "pre-sim beyond-crash-stop schedule generator (seeded, generation-time only)",
	"internal/core/faults.go":        "the gray heartbeat-loss stream (core.RNGStreams \"gray\", counted)",
}

// TestNoHiddenRandSources walks every Go file in the module and fails if a
// file outside the allowlist imports math/rand. The simulator has exactly
// one RNG stream (the engine's counting source); snapshot restore verifies
// its position after replay, and that guarantee only holds while this sweep
// stays clean.
func TestNoHiddenRandSources(t *testing.T) {
	root := "../.."
	var offenders []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if name == ".git" || name == "testdata" || name == "examples" {
				return filepath.SkipDir
			}
			return nil
		}
		// Test files drive the simulator from outside; their own input
		// generation cannot leak into a simulation run.
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !strings.Contains(string(data), `"math/rand"`) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if _, ok := rngAllowlist[rel]; !ok {
			offenders = append(offenders, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Fatalf("files import math/rand outside the named-stream allowlist: %v\n"+
			"Either route the randomness through the engine stream (sim.Engine.Rand), or register "+
			"a named stream in core.RNGStreams and add the file here with a justification.", offenders)
	}
}
