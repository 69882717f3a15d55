// Package event defines the typed event stream emitted by the simulated
// system: a flat Event union covering the worker-node lifecycle (join,
// preemption, death, zombies), HDFS data events (block loss, re-replication),
// MapReduce progress (job and task lifecycle with map locality), and
// injected faults (site outages, pool retargets).
//
// Events are delivered synchronously through a Bus the subsystems share.
// Emission is pull-free and allocation-free: Event is a value struct, and
// every emission site is guarded by Bus.Active() so an unsubscribed run pays
// one nil/len check per would-be event and nothing else. Observers must not
// mutate the simulation — the bus hands them facts, not control; the
// determinism contract (same seed, same event sequence) holds exactly
// because emission consumes no randomness and schedules nothing.
package event

import (
	"encoding/binary"
	"hash/fnv"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

// Type discriminates the Event union.
type Type uint8

// Event types.
const (
	// JobSubmitted fires when a job enters the JobTracker queue.
	JobSubmitted Type = iota
	// JobFinished fires when a job succeeds or fails (Detail holds the state).
	JobFinished
	// TaskLaunched fires when a map or reduce attempt starts; for maps,
	// Locality records the placement level achieved.
	TaskLaunched
	// TaskFinished fires when a task completes durably (winning attempt).
	TaskFinished
	// NodeJoined fires when a worker's daemons report in.
	NodeJoined
	// NodePreempted fires when the grid takes a worker back (Detail holds
	// the preemption kind: lifetime, batch, released, killed).
	NodePreempted
	// NodeDead fires when the namenode declares a datanode dead after its
	// heartbeat timeout.
	NodeDead
	// ZombieDetected fires when a preemption leaves daemons running without
	// a working directory (paper §IV.D.1).
	ZombieDetected
	// BlockLost fires when the last replica of a block disappears.
	BlockLost
	// ReplicationDone fires when a re-replication transfer lands a copy.
	ReplicationDone
	// SiteOutage fires when a scenario takes a whole site down (Value holds
	// the number of workers lost).
	SiteOutage
	// PoolRetarget fires when the pool's target size changes (Value holds
	// the new target).
	PoolRetarget
	// MasterCrashed fires when a master daemon loses its soft state (Detail
	// names the master: "namenode" or "jobtracker").
	MasterCrashed
	// MasterRecovered fires when a crashed master restarts (Detail names
	// the master: "namenode" or "jobtracker").
	MasterRecovered
	// SafeModeEntered fires when a restarted namenode begins rebuilding its
	// block map from datanode block reports.
	SafeModeEntered
	// SafeModeExited fires when the namenode reaches its reported-replica
	// threshold (or times out) and resumes normal service (Value holds the
	// number of blocks reported during safe mode).
	SafeModeExited
	// TrackerReregistered fires when a task tracker re-registers with a
	// recovered JobTracker after detecting the crash.
	TrackerReregistered
	// PartitionStarted fires when a scenario installs a network partition
	// (Site or Node names the cut target; Detail holds the cut directions:
	// "full", "in", or "out").
	PartitionStarted
	// PartitionHealed fires when a partition is removed (same target fields
	// as PartitionStarted).
	PartitionHealed
	// NodeDegraded fires when a gray failure is injected on a worker (Detail
	// describes it, e.g. "disk-slow 4x" or "heartbeat-loss 0.30").
	NodeDegraded
	// NodeRestored fires when a gray degradation is lifted from a worker.
	NodeRestored
	// NodeRecovered fires when a partitioned worker, declared dead by the
	// masters, re-registers after the partition heals (Value holds the number
	// of block replicas restored to the namenode's map).
	NodeRecovered
	// ReplicaCorrupted fires when a scenario silently corrupts a block
	// replica on a datanode (the namenode does not know yet).
	ReplicaCorrupted
	// CorruptReadDetected fires when a reader's checksum verification catches
	// a corrupt replica and fails over to another copy.
	CorruptReadDetected
	// ReplicaInvalidated fires when the namenode drops a corrupt replica from
	// its block map and queues the block for re-replication.
	ReplicaInvalidated
	// PipelineRecovered fires when a write pipeline drops an unreachable or
	// dead hop mid-write and continues with the surviving targets.
	PipelineRecovered
	// MasterGiveUp fires when a worker exhausts its total master-retry budget
	// and stops retrying (Detail names the master: "namenode" or
	// "jobtracker").
	MasterGiveUp

	// NumTypes is the number of event types (for per-type tables).
	NumTypes
)

// String names the type.
func (t Type) String() string {
	switch t {
	case JobSubmitted:
		return "job-submitted"
	case JobFinished:
		return "job-finished"
	case TaskLaunched:
		return "task-launched"
	case TaskFinished:
		return "task-finished"
	case NodeJoined:
		return "node-joined"
	case NodePreempted:
		return "node-preempted"
	case NodeDead:
		return "node-dead"
	case ZombieDetected:
		return "zombie-detected"
	case BlockLost:
		return "block-lost"
	case ReplicationDone:
		return "replication-done"
	case SiteOutage:
		return "site-outage"
	case PoolRetarget:
		return "pool-retarget"
	case MasterCrashed:
		return "master-crashed"
	case MasterRecovered:
		return "master-recovered"
	case SafeModeEntered:
		return "safe-mode-entered"
	case SafeModeExited:
		return "safe-mode-exited"
	case TrackerReregistered:
		return "tracker-reregistered"
	case PartitionStarted:
		return "partition-started"
	case PartitionHealed:
		return "partition-healed"
	case NodeDegraded:
		return "node-degraded"
	case NodeRestored:
		return "node-restored"
	case NodeRecovered:
		return "node-recovered"
	case ReplicaCorrupted:
		return "replica-corrupted"
	case CorruptReadDetected:
		return "corrupt-read-detected"
	case ReplicaInvalidated:
		return "replica-invalidated"
	case PipelineRecovered:
		return "pipeline-recovered"
	case MasterGiveUp:
		return "master-give-up"
	}
	return "unknown"
}

// TaskKind distinguishes map from reduce in task events.
type TaskKind uint8

// Task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

// String names the kind.
func (k TaskKind) String() string {
	if k == ReduceTask {
		return "reduce"
	}
	return "map"
}

// Event is one fact about the run. It is a flat union: Type selects which
// fields are meaningful; unused numeric fields are -1 and unused strings
// empty, so an Event is comparable and hashable field-by-field.
type Event struct {
	// Time is the simulated instant of the event.
	Time sim.Time
	// Type discriminates the union.
	Type Type
	// Node is the worker involved, or -1.
	Node netmodel.NodeID
	// Site names the grid site involved, or "".
	Site string
	// Job is the job id for job/task events, or -1.
	Job int
	// Task is the task index within the job for task events, or -1.
	Task int
	// Kind is the task kind for task events.
	Kind TaskKind
	// Locality is the map placement level (0 node-local, 1 site-local,
	// 2 remote) for TaskLaunched map events, or -1.
	Locality int8
	// Block is the HDFS block id for block events, or -1.
	Block int64
	// Value carries a type-specific count: workers lost for SiteOutage,
	// the new target for PoolRetarget; otherwise -1.
	Value int
	// Detail carries a type-specific label: the job name for JobSubmitted,
	// the final state for JobFinished, the preemption kind for NodePreempted.
	Detail string
}

// At returns an Event of the given type at the given instant with every
// optional numeric field set to its -1 "absent" value; emitters fill in the
// fields their type defines.
func At(t Type, now sim.Time) Event {
	return Event{Time: now, Type: t, Node: -1, Job: -1, Task: -1, Locality: -1, Block: -1, Value: -1}
}

// Observer receives events. Implementations must treat events as read-only
// facts and must not call back into the simulation.
type Observer interface {
	HandleEvent(Event)
}

// ObserverFunc adapts a function to Observer.
type ObserverFunc func(Event)

// HandleEvent implements Observer.
func (f ObserverFunc) HandleEvent(e Event) { f(e) }

// Bus fans events out to subscribed observers. The zero value and the nil
// bus are valid, inactive buses, so subsystems can carry an optional *Bus
// field with no wiring required when nobody listens.
type Bus struct {
	obs []Observer
}

// Active reports whether any observer is subscribed. Emission sites guard on
// it so an unsubscribed run does not even build the Event value.
func (b *Bus) Active() bool { return b != nil && len(b.obs) > 0 }

// Subscribe adds an observer. Observers are invoked in subscription order.
func (b *Bus) Subscribe(o Observer) { b.obs = append(b.obs, o) }

// Emit delivers e to every observer, synchronously, in subscription order.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	for _, o := range b.obs {
		o.HandleEvent(e)
	}
}

// Log is a bundled Observer that records events, optionally filtered to a
// set of types, and maintains per-type counts over everything it saw (counts
// are kept even for filtered-out types).
//
// Retained events live in fixed-size chunks rather than one growing slice: a
// 10,000-node warm-up retains tens of thousands of events, and doubling a
// multi-megabyte slice leaves the old copy as garbage each time, so the
// process's peak memory would depend on where the collector happened to run.
type Log struct {
	keep   uint64 // bitmask of types to retain; keepAll short-circuits
	all    bool
	chunks [][]Event
	n      int // retained events across chunks
	counts [NumTypes]int
}

// logChunk is the number of events per chunk, about 24 KiB.
const logChunk = 256

// NewLog returns a collector. With no arguments it retains every event;
// otherwise only the listed types are retained (counts still cover all).
func NewLog(types ...Type) *Log {
	l := &Log{all: len(types) == 0}
	for _, t := range types {
		l.keep |= 1 << t
	}
	return l
}

// HandleEvent implements Observer.
func (l *Log) HandleEvent(e Event) {
	if e.Type < NumTypes {
		l.counts[e.Type]++
	}
	if l.all || l.keep&(1<<e.Type) != 0 {
		k := len(l.chunks)
		if k == 0 || len(l.chunks[k-1]) == logChunk {
			l.chunks = append(l.chunks, make([]Event, 0, logChunk))
			k++
		}
		l.chunks[k-1] = append(l.chunks[k-1], e)
		l.n++
	}
}

// Events returns a copy of the retained events in emission order.
func (l *Log) Events() []Event {
	out := make([]Event, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// Len returns the number of retained events.
func (l *Log) Len() int { return l.n }

// Count returns how many events of type t were observed (filtered or not).
func (l *Log) Count(t Type) int {
	if t >= NumTypes {
		return 0
	}
	return l.counts[t]
}

// Total returns the number of observed events across all types.
func (l *Log) Total() int {
	n := 0
	for _, c := range l.counts {
		n += c
	}
	return n
}

// Fingerprint hashes the retained event sequence — every field of every
// event, in order — into a single value. Two runs with the same seed must
// produce identical fingerprints; the determinism tests assert exactly that.
func (l *Log) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	ws := func(s string) {
		wi(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, c := range l.chunks {
		for i := range c {
			e := &c[i]
			wi(int64(e.Time))
			wi(int64(e.Type))
			wi(int64(e.Node))
			ws(e.Site)
			wi(int64(e.Job))
			wi(int64(e.Task))
			wi(int64(e.Kind))
			wi(int64(e.Locality))
			wi(e.Block)
			wi(int64(e.Value))
			ws(e.Detail)
		}
	}
	return h.Sum64()
}
