package sim

import (
	"container/heap"
	"math"
	"math/bits"
)

// Hierarchical timing wheel (Varghese & Lauer), the engine's event queue.
// Six levels of 64 slots each cover the 64^6 µs (~19.1 h) block of virtual
// time around the wheel cursor; events in a later block wait in an
// overflow heap and are promoted as the cursor approaches. Scheduling and
// canceling are O(1); firing pays amortized O(levels) cursor movement
// instead of the heap's O(log pending) — the win that matters when
// thousands of periodic heartbeat and scan timers keep the pending set
// large.
//
// Placement follows the kernel-timer rule: an event is filed at the level
// of the highest base-64 digit where its timestamp differs from the cursor,
// in the slot named by the event's digit at that level. That keeps every
// occupied slot unambiguous (one slot, one time window) and strictly ahead
// of the cursor, because a stored event always shares all digits above its
// level with the cursor.
//
// Ordering contract: events fire in exactly (at, seq) order, bit-identical
// to the binary heap. Level-0 slots span a single microsecond, so a ready
// bucket holds only events of one instant and firing picks the minimum
// seq; settle never advances the cursor past an occupied slot's window
// start, cascading higher-level slots down (ties prefer the higher level)
// before any same-instant level-0 bucket fires.
const (
	wheelSlotBits = 6
	wheelSlots    = 1 << wheelSlotBits
	wheelSlotMask = wheelSlots - 1
	wheelLevels   = 6
	wheelBits     = wheelSlotBits * wheelLevels

	overflowLevel int8 = wheelLevels
	maxTime       Time = math.MaxInt64
)

// eventHeap is a binary min-heap of events by (at, seq), maintaining each
// event's index for heap.Fix/Remove. The wheel keeps its overflow in one.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// wheelQ implements evqueue on the hierarchical wheel plus overflow heap.
type wheelQ struct {
	base  Time // cursor: all stored events have at >= base
	count int  // events stored in wheel buckets (including canceled)

	occ   [wheelLevels]uint64 // per-level slot occupancy bitmaps
	slots [wheelLevels][wheelSlots][]*event

	over eventHeap // events whose top digits differ from the cursor's

	// settle caches the location of the global minimum: a level-0 bucket
	// whose events all share at == readyTime. Buckets keep their backing
	// arrays when drained (per-bucket free lists), so steady-state ticking
	// allocates nothing.
	readyValid bool
	readyTime  Time
	readySlot  int
}

func newWheelQ() *wheelQ { return &wheelQ{} }

func (w *wheelQ) size() int { return w.count + len(w.over) }

// push files ev at the level of its highest digit differing from the
// cursor; events beyond the cursor's top-level block go to the overflow
// heap. Callers guarantee at >= base (the engine never schedules in the
// past, and the cursor never passes now).
func (w *wheelQ) push(ev *event) {
	if w.readyValid && ev.at < w.readyTime {
		w.readyValid = false
	}
	diff := uint64(ev.at ^ w.base)
	if diff>>wheelBits != 0 {
		heap.Push(&w.over, ev)
		ev.level = overflowLevel
		return
	}
	l := 0
	if diff != 0 {
		l = (bits.Len64(diff) - 1) / wheelSlotBits
	}
	slot := int(ev.at>>(wheelSlotBits*l)) & wheelSlotMask
	b := w.slots[l][slot]
	ev.level = int8(l)
	ev.slot = int16(slot)
	ev.index = len(b)
	w.slots[l][slot] = append(b, ev)
	w.occ[l] |= 1 << slot
	w.count++
}

// unlink removes a stored event from its bucket or the overflow heap.
func (w *wheelQ) unlink(ev *event) {
	if ev.level == overflowLevel {
		heap.Remove(&w.over, ev.index)
	} else {
		l, slot := int(ev.level), int(ev.slot)
		b := w.slots[l][slot]
		last := len(b) - 1
		if ev.index != last {
			moved := b[last]
			b[ev.index] = moved
			moved.index = ev.index
		}
		b[last] = nil
		w.slots[l][slot] = b[:last]
		if last == 0 {
			w.occ[l] &^= 1 << slot
		}
		w.count--
		ev.index = -1
	}
	w.readyValid = false
}

// update relocates ev after Reschedule changed its at and seq. The old
// location fields (level, slot, index) still describe where it is stored.
func (w *wheelQ) update(ev *event) {
	w.unlink(ev)
	w.push(ev)
}

// settle advances the cursor — cascading higher-level slots and promoting
// overflow events — until the globally earliest event sits in a level-0
// bucket, then caches that bucket. It never advances the cursor past limit,
// so a bounded RunUntil leaves the wheel able to accept events between the
// last fire and the deadline. Returns whether a minimum exists with
// readyTime <= limit.
//
// Every cursor advance is to the minimum candidate window start, which is a
// lower bound on every stored event: the cursor can therefore never skip an
// event, and — because an advance stays at or below each level's earliest
// occupied window — the digit-sharing placement invariant survives every
// advance without re-filing untouched slots.
func (w *wheelQ) settle(limit Time) bool {
	if w.readyValid {
		return w.readyTime <= limit
	}
	for {
		if w.count == 0 && len(w.over) == 0 {
			return false
		}
		// Earliest candidate across levels: the lowest occupied slot (slots
		// never trail the cursor digit, so slot order is time order); its
		// window start is a lower bound for every event it holds, exact at
		// level 0 where a slot spans a single µs. Ties prefer higher levels
		// so same-instant events always merge down before firing.
		bestLevel := -1
		var bestTime Time
		bestSlot := 0
		for l := 0; l < wheelLevels; l++ {
			if w.occ[l] == 0 {
				continue
			}
			shift := uint(wheelSlotBits * l)
			s := bits.TrailingZeros64(w.occ[l])
			span := Time(1) << shift
			align := w.base &^ (span*wheelSlots - 1)
			start := align + Time(s)*span
			if bestLevel < 0 || start <= bestTime {
				bestLevel, bestTime, bestSlot = l, start, s
			}
		}
		promote := false
		if len(w.over) > 0 && (bestLevel < 0 || w.over[0].at <= bestTime) {
			promote, bestTime = true, w.over[0].at
		}
		if bestTime > limit && (promote || bestLevel != 0) {
			return false // lower bound already beyond limit; min is too
		}
		if promote {
			w.base = bestTime
			for len(w.over) > 0 && uint64(w.over[0].at^w.base)>>wheelBits == 0 {
				w.push(heap.Pop(&w.over).(*event))
			}
			continue
		}
		if bestLevel == 0 {
			w.readyValid, w.readyTime, w.readySlot = true, bestTime, bestSlot
			return bestTime <= limit
		}
		// Cascade: advance the cursor to the slot's window start and re-file
		// its events; each now shares its level digit with the cursor, so
		// each lands at a strictly lower level. The bucket keeps its backing
		// array for reuse.
		w.base = bestTime
		b := w.slots[bestLevel][bestSlot]
		w.slots[bestLevel][bestSlot] = b[:0]
		w.occ[bestLevel] &^= 1 << bestSlot
		w.count -= len(b)
		for i, ev := range b {
			w.push(ev) // strictly lower level: never appends to b itself
			b[i] = nil
		}
	}
}

func (w *wheelQ) peek(limit Time) (Time, bool) {
	if !w.settle(limit) {
		return 0, false
	}
	return w.readyTime, true
}

// pop removes and returns the minimum-(at, seq) event. All events in the
// ready bucket share the same at, so the minimum seq decides.
func (w *wheelQ) pop() *event {
	if !w.settle(maxTime) {
		return nil
	}
	b := w.slots[0][w.readySlot]
	mi := 0
	for i := 1; i < len(b); i++ {
		if b[i].seq < b[mi].seq {
			mi = i
		}
	}
	ev := b[mi]
	last := len(b) - 1
	if mi != last {
		b[mi] = b[last]
		b[mi].index = mi
	}
	b[last] = nil
	w.slots[0][w.readySlot] = b[:last]
	w.count--
	if last == 0 {
		w.occ[0] &^= 1 << w.readySlot
		w.readyValid = false
	}
	ev.index = -1
	return ev
}
