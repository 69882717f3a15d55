// Package snapshot captures a running HOG simulation into a versioned,
// deterministic binary blob and restores it into an identical live system —
// the foundation for what-if forking (one expensive warm-up, N divergent
// branches) and the hogsim service mode.
//
// A snapshot is generative: it records the system's complete recipe —
// normalized config, workload schedule, applied scenarios, and the exact
// instant reached — plus a cross-layer census of the live state (engine
// clock/sequence/RNG position and per-layer digests of grid, network, HDFS,
// MapReduce, and disk state). Restore rebuilds the system from the recipe
// and deterministically replays it to the recorded instant, then verifies
// the replayed state against the census field by field: because the engine
// fires events in a fixed (at, seq) order, the restored system is not
// approximately equal but *the same state*, and every later event fires
// identically — restored runs are byte-identical to uninterrupted ones.
// The census turns any violation of that contract (a hidden rand source, a
// nondeterministic map walk) into a loud, named error instead of silent
// drift. The cost model is explicit: restore re-executes the events up to
// the snapshot instant, trading restore time for a compact encoding and an
// end-to-end determinism check; see docs/SNAPSHOT.md for the
// materialized-state alternative.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"hog/internal/core"
	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/workload"
)

// Version is the current snapshot encoding version. A snapshot is readable
// only by the version that wrote it: the payload embeds live config structs,
// so any change to them (or to replay semantics) must bump this. v2 added
// the beyond-crash-stop fault model: Config.MasterRetryTotal, the counted
// "gray" RNG stream in the engine census, and the partition/gray/corruption
// scenario verbs and census fields. v3 dropped the engine selectors
// (heap_scheduler, sequential_engine, shards) and the network's global
// rebalance knob from the config: the simulator has one event engine and
// one rebalancer. v4 dropped the JobTracker's ScanScheduler field: the
// indexed scheduler is the only assignment path. v5 carries core.Config
// as itself: distributions are the plain sim.Dist{Offset, Mean}, so the
// hand-kept config mirror is gone; the top-level Policies block and
// HDFS.SiteAware are gone too (policies are named only on the subsystem
// configs, and "flat" placement replaces SiteAware=false).
const Version = 5

// magic identifies a HOG snapshot; the trailing NUL pins the length to 8.
var magic = [8]byte{'H', 'O', 'G', 'S', 'N', 'A', 'P', 0}

// Sentinel errors for the failure classes a reader distinguishes.
var (
	// ErrNotSnapshot: the data does not begin with the snapshot magic.
	ErrNotSnapshot = errors.New("snapshot: not a HOG snapshot (bad magic)")
	// ErrVersion: written by a different encoding version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrTruncated: shorter than its header claims.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt: checksum mismatch.
	ErrCorrupt = errors.New("snapshot: payload checksum mismatch")
	// ErrReplayDiverged: the deterministic replay did not reproduce the
	// recorded census — the snapshot was taken on a different build, or
	// something nondeterministic crept into the simulator.
	ErrReplayDiverged = errors.New("snapshot: replay diverged from recorded census")
)

// EngineCensus digests the simulation engine: the clock, the event sequence
// counter (a strict order signature — every scheduled event draws one), and
// every named RNG stream's position.
type EngineCensus struct {
	Now     sim.Time         `json:"now"`
	Seq     uint64           `json:"seq"`
	Streams []core.RNGStream `json:"streams"`
}

// Census is the cross-layer state digest recorded at Save time and
// re-verified after the Restore replay.
type Census struct {
	Engine  EngineCensus    `json:"engine"`
	Grid    *grid.Census    `json:"grid,omitempty"` // nil for static clusters
	Net     netmodel.Census `json:"net"`
	Disk    disk.Census     `json:"disk"`
	HDFS    hdfs.Census     `json:"hdfs"`
	MapRed  mapred.Census   `json:"mapred"`
	Zombies int             `json:"zombies"`
}

// TakeCensus digests a live system's state across every layer.
func TakeCensus(sys *core.System) Census {
	c := Census{
		Engine: EngineCensus{
			Now:     sys.Eng.Now(),
			Seq:     sys.Eng.SeqCount(),
			Streams: sys.RNGStreams(),
		},
		Net:     sys.Net.Census(),
		Disk:    sys.Disk.Census(),
		HDFS:    sys.NN.Census(),
		MapRed:  sys.JT.Census(),
		Zombies: sys.Zombies(),
	}
	if sys.Pool != nil {
		g := sys.Pool.Census()
		c.Grid = &g
	}
	return c
}

// payload is the JSON body of a snapshot.
type payload struct {
	Config    core.Config         `json:"config"`
	Schedule  *workload.Schedule  `json:"schedule,omitempty"`
	Scenarios []core.ScenarioSpec `json:"scenarios,omitempty"`
	Phase     core.RunPhase       `json:"phase"`
	Start     sim.Time            `json:"start"`
	Now       sim.Time            `json:"now"`
	Census    Census              `json:"census"`
}

// Save captures sys into a self-contained snapshot. The system must be
// freshly built (time zero) or mid-workload (between StartWorkload/RunTo
// calls); a finished run has nothing left to fork, and a diverged fork
// branch (ApplyDivergence) is not reproducible from its recipe, so both are
// rejected.
func Save(sys *core.System) ([]byte, error) {
	switch sys.Phase() {
	case core.PhaseFinished:
		return nil, errors.New("snapshot: cannot save a finished run (nothing left to fork)")
	case core.PhaseBuilt:
		if sys.Eng.Now() != 0 {
			return nil, errors.New("snapshot: system advanced before StartWorkload; save at time zero or mid-workload")
		}
	}
	if sys.Diverged() {
		return nil, errors.New("snapshot: cannot save a diverged fork branch (its history is not reproducible from its recipe)")
	}
	p := payload{
		Config:    sys.Config(),
		Scenarios: sys.ScenarioSpecs(),
		Phase:     sys.Phase(),
		Now:       sys.Eng.Now(),
		Census:    TakeCensus(sys),
	}
	if sys.Phase() == core.PhaseStarted {
		p.Schedule = sys.RunSchedule()
		p.Start = sys.RunStart()
	}
	body, err := json.Marshal(&p)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding payload: %w", err)
	}
	return frame(body), nil
}

// frame wraps a payload in the container: magic, version, length, body,
// FNV-64a checksum — all fixed-width little-endian.
func frame(body []byte) []byte {
	out := make([]byte, 0, len(magic)+4+8+len(body)+8)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	h := fnv.New64a()
	h.Write(body)
	out = binary.LittleEndian.AppendUint64(out, h.Sum64())
	return out
}

// unframe validates the container and returns the payload body.
func unframe(data []byte) ([]byte, error) {
	if len(data) < len(magic)+4+8 {
		if len(data) >= len(magic) && !bytes.Equal(data[:len(magic)], magic[:]) {
			return nil, ErrNotSnapshot
		}
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), len(magic)+4+8)
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, ErrNotSnapshot
	}
	ver := binary.LittleEndian.Uint32(data[8:12])
	if ver != Version {
		return nil, fmt.Errorf("%w: snapshot is v%d, this build reads v%d", ErrVersion, ver, Version)
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	rest := data[20:]
	// Compare without adding to n: a crafted length near 2^64 would wrap.
	if n > uint64(len(rest)) || uint64(len(rest))-n < 8 {
		return nil, fmt.Errorf("%w: header claims %d payload bytes plus an 8-byte checksum, %d bytes present", ErrTruncated, n, len(rest))
	}
	body := rest[:n]
	want := binary.LittleEndian.Uint64(rest[n : n+8])
	h := fnv.New64a()
	h.Write(body)
	if got := h.Sum64(); got != want {
		return nil, fmt.Errorf("%w: have %016x, want %016x", ErrCorrupt, got, want)
	}
	return body, nil
}

// Restore rebuilds a live system from a snapshot. The system is
// reconstructed from its recipe and deterministically replayed to the
// recorded instant; the replayed state is then verified against the
// recorded cross-layer census, so a successful Restore guarantees the
// returned system is in exactly the saved state — every subsequent event
// fires identically to the uninterrupted run. Observers are subscribed
// before construction and therefore see the full replayed event history
// from time zero (see docs/SNAPSHOT.md).
func Restore(data []byte, obs ...event.Observer) (*core.System, error) {
	body, err := unframe(data)
	if err != nil {
		return nil, err
	}
	var p payload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("snapshot: decoding payload: %w", err)
	}
	sys, err := core.NewSystem(p.Config, obs...)
	if err != nil {
		return nil, fmt.Errorf("snapshot: rebuilding system: %w", err)
	}
	for _, ss := range p.Scenarios {
		sc, err := core.ScenarioFromSpec(ss)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if err := sys.Apply(sc); err != nil {
			return nil, fmt.Errorf("snapshot: re-applying scenario: %w", err)
		}
	}
	if p.Phase == core.PhaseStarted {
		if p.Schedule == nil {
			return nil, errors.New("snapshot: mid-run snapshot carries no schedule")
		}
		if err := sys.StartWorkload(p.Schedule); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if err := sys.RunTo(p.Now); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	if err := verifyCensus(p.Census, TakeCensus(sys)); err != nil {
		return nil, err
	}
	return sys, nil
}

// verifyCensus compares the recorded and replayed censuses section by
// section, naming the diverging layer and showing both digests.
func verifyCensus(want, got Census) error {
	sections := []struct {
		name       string
		want, have any
	}{
		{"engine", want.Engine, got.Engine},
		{"grid", want.Grid, got.Grid},
		{"net", want.Net, got.Net},
		{"disk", want.Disk, got.Disk},
		{"hdfs", want.HDFS, got.HDFS},
		{"mapred", want.MapRed, got.MapRed},
		{"zombies", want.Zombies, got.Zombies},
	}
	for _, s := range sections {
		wj, err := json.Marshal(s.want)
		if err != nil {
			return fmt.Errorf("snapshot: encoding %s census: %w", s.name, err)
		}
		gj, err := json.Marshal(s.have)
		if err != nil {
			return fmt.Errorf("snapshot: encoding %s census: %w", s.name, err)
		}
		if !bytes.Equal(wj, gj) {
			return fmt.Errorf("%w: %s layer\n  saved:    %s\n  replayed: %s", ErrReplayDiverged, s.name, wj, gj)
		}
	}
	return nil
}

// Fork restores len(divergences) independent systems from one snapshot.
// Each non-nil entry is applied to its branch as a divergence scenario,
// anchored at the snapshot instant — the what-if primitive: one warm-up,
// N branches replaying the same day under different fault schedules. A nil
// entry restores an unmodified control branch. Branches share nothing;
// each is replayed and verified independently.
func Fork(data []byte, divergences []*core.Scenario, obs ...event.Observer) ([]*core.System, error) {
	if len(divergences) == 0 {
		return nil, errors.New("snapshot: Fork needs at least one branch")
	}
	out := make([]*core.System, len(divergences))
	for i, div := range divergences {
		sys, err := Restore(data, obs...)
		if err != nil {
			return nil, fmt.Errorf("branch %d: %w", i, err)
		}
		if div != nil {
			if err := sys.ApplyDivergence(div); err != nil {
				return nil, fmt.Errorf("snapshot: branch %d: %w", i, err)
			}
		}
		out[i] = sys
	}
	return out, nil
}
