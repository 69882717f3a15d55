// Package disk tracks per-node scratch-disk usage shared between HDFS block
// replicas and MapReduce intermediate output.
//
// The paper's §IV.D.2 ("Disk Overflow") observes that the high replication
// factor plus slow WAN reduces let intermediate map output accumulate until
// worker nodes run out of disk and fail. Modelling that failure mode requires
// a single accounting of both consumers per node, which this package
// provides.
package disk

import "hog/internal/netmodel"

// Tracker accounts disk space per node. It is driven from the simulation
// loop and is not safe for concurrent use. Node IDs are dense small
// integers (netmodel hands them out sequentially), so the accounting lives
// in flat slices: an array load is far cheaper than a map probe at
// 10k-node scale.
type Tracker struct {
	capacity []float64
	used     []float64
	// roomMark and onRoom are the watch WatchRoom installs.
	roomMark float64
	onRoom   func(n netmodel.NodeID, room bool)
	// OnOverflow, if set, is invoked when a Reserve fails; HOG wires this
	// to the "worker node out of disk" failure path.
	OnOverflow func(n netmodel.NodeID, requested float64)
	overflows  int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// grow ensures the accounting arrays cover node n.
func (t *Tracker) grow(n netmodel.NodeID) {
	if int(n) < len(t.capacity) {
		return
	}
	need := int(n) + 1
	if need < 2*len(t.capacity) {
		need = 2 * len(t.capacity)
	}
	cap2 := make([]float64, need)
	used2 := make([]float64, need)
	copy(cap2, t.capacity)
	copy(used2, t.used)
	t.capacity, t.used = cap2, used2
}

// WatchRoom has the tracker call onRoom(n, room) after every change to a
// node's capacity or usage that moves Free(n) >= mark, with room its new
// value, so a watcher can keep a per-node "room for mark bytes" bit
// without computing free space; it reads a node's starting value from
// Free. HDFS watches its block size. A tracker has one watch; a new one
// replaces it.
func (t *Tracker) WatchRoom(mark float64, onRoom func(n netmodel.NodeID, room bool)) {
	t.roomMark, t.onRoom = mark, onRoom
}

// room reports whether node n has room for the watched mark; false when
// nothing watches.
func (t *Tracker) room(n netmodel.NodeID) bool {
	return t.onRoom != nil && t.Free(n) >= t.roomMark
}

// noteRoom tells the watcher of a change to node n that moved room(n) from
// had.
func (t *Tracker) noteRoom(n netmodel.NodeID, had bool) {
	if t.onRoom != nil && t.room(n) != had {
		t.onRoom(n, !had)
	}
}

// SetCapacity registers (or updates) a node's scratch capacity in bytes.
func (t *Tracker) SetCapacity(n netmodel.NodeID, bytes float64) {
	t.grow(n)
	had := t.room(n)
	t.capacity[n] = bytes
	t.noteRoom(n, had)
}

// Capacity returns the node's capacity (0 for unknown nodes).
func (t *Tracker) Capacity(n netmodel.NodeID) float64 {
	if int(n) >= len(t.capacity) {
		return 0
	}
	return t.capacity[n]
}

// Used returns the bytes currently reserved on the node.
func (t *Tracker) Used(n netmodel.NodeID) float64 {
	if int(n) >= len(t.used) {
		return 0
	}
	return t.used[n]
}

// Free returns capacity minus used, never negative.
func (t *Tracker) Free(n netmodel.NodeID) float64 {
	if int(n) >= len(t.capacity) {
		return 0
	}
	f := t.capacity[n] - t.used[n]
	if f < 0 {
		return 0
	}
	return f
}

// Utilization returns used/capacity in [0,1]; 0 for unknown or zero-capacity
// nodes.
func (t *Tracker) Utilization(n netmodel.NodeID) float64 {
	if int(n) >= len(t.capacity) {
		return 0
	}
	c := t.capacity[n]
	if c <= 0 {
		return 0
	}
	return t.used[n] / c
}

// Reserve claims bytes on the node. It returns false — and fires OnOverflow —
// if the claim does not fit; no space is consumed in that case.
func (t *Tracker) Reserve(n netmodel.NodeID, bytes float64) bool {
	if bytes < 0 {
		panic("disk: negative reservation")
	}
	t.grow(n)
	had := t.room(n)
	if t.used[n]+bytes > t.capacity[n] {
		t.overflows++
		if t.OnOverflow != nil {
			t.OnOverflow(n, bytes)
		}
		return false
	}
	t.used[n] += bytes
	t.noteRoom(n, had)
	return true
}

// Release returns bytes to the node. Releasing more than is used clamps to
// zero: a node whose data was already cleared may receive late releases.
func (t *Tracker) Release(n netmodel.NodeID, bytes float64) {
	if bytes < 0 {
		panic("disk: negative release")
	}
	t.grow(n)
	had := t.room(n)
	t.used[n] -= bytes
	if t.used[n] < 0 {
		t.used[n] = 0
	}
	t.noteRoom(n, had)
}

// Clear drops all usage on a node (the site wiped the working directory
// after preemption) but keeps its capacity registered.
func (t *Tracker) Clear(n netmodel.NodeID) {
	t.grow(n)
	had := t.room(n)
	t.used[n] = 0
	t.noteRoom(n, had)
}

// Overflows returns the number of failed reservations so far.
func (t *Tracker) Overflows() int { return t.overflows }
