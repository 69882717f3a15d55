package hog

import (
	"hog/internal/core"
	"hog/internal/snapshot"
)

// Deterministic snapshot/restore and what-if forking (docs/SNAPSHOT.md).
//
// A snapshot is a versioned, self-contained byte container capturing a
// system's reproduction recipe — configuration, scenario specs, workload
// schedule, and clock — plus a layer-by-layer census of the live state.
// Restore rebuilds the system and deterministically replays it to the
// snapshot instant, then verifies the census section by section; from there
// the run continues exactly as the original would have, event for event.

// SnapshotVersion is the container format version this build reads and
// writes. Restore rejects other versions with a descriptive error.
const SnapshotVersion = snapshot.Version

// ScenarioSpec is the declarative, JSON-serialisable form of a Scenario, as
// stored in snapshots and accepted by `hogsim serve`'s /fork endpoint. Build
// one from a Scenario with its Spec method; turn it back into a Scenario
// with ScenarioFromSpec.
type ScenarioSpec = core.ScenarioSpec

// ScenarioFromSpec rebuilds a Scenario from its declarative spec, checking
// every step's arguments.
func ScenarioFromSpec(spec ScenarioSpec) (*Scenario, error) {
	return core.ScenarioFromSpec(spec)
}

// Snapshot captures sys into a versioned snapshot container. The system must
// be freshly built or mid-workload (StartWorkload + RunTo); finished runs
// and diverged fork branches cannot be snapshotted.
func Snapshot(sys *System) ([]byte, error) { return snapshot.Save(sys) }

// Restore rebuilds the system a snapshot captured and replays it to the
// snapshot instant. The restored run is byte-identical to the original from
// that point on: same events in the same order, same results document.
// Observers passed here see the replayed history from the first node join.
// Restore fails with a descriptive error on corrupt or truncated
// containers, foreign versions, and any post-replay census mismatch.
func Restore(data []byte, obs ...Observer) (*System, error) {
	return snapshot.Restore(data, obs...)
}

// Fork restores one system per divergence from a single snapshot: a nil
// divergence is a control branch continuing unchanged; a non-nil Scenario is
// applied at the snapshot instant (timed steps anchor there, not at the
// workload start). Every branch replays the identical history up to the
// fork, so branch deltas are attributable to the divergence alone.
func Fork(data []byte, divergences []*Scenario, obs ...Observer) ([]*System, error) {
	return snapshot.Fork(data, divergences, obs...)
}
