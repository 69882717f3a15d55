// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue. All model code
// (network transfers, heartbeats, task executions, preemptions) runs as
// callbacks scheduled on the engine; two runs with the same seed and the
// same schedule of calls produce byte-identical results. Determinism is
// what makes the paper's three-runs-per-point evaluation reproducible: each
// "run" is just a different seed.
//
// The event queue is a hierarchical timing wheel (wheel.go), which makes
// schedule/cancel O(1) for the near-future timers that dominate grid
// simulations. It fires events in exact (at, seq) order; the package's
// tests pin that order against a plain binary heap kept there as the
// oracle.
package sim

import "math/rand"

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant so ordering is insertion order, never map order.
// Events are pooled: gen is bumped on every recycle so stale Timer handles
// from a previous use of the same event cannot observe or mutate it.
//
// The callback is either fn, or the pre-bound pair (afn, arg). The bound
// form lets recurring work — ticker fires, heartbeat loops — schedule
// without allocating a fresh closure per event; see ScheduleArg.
type event struct {
	at       Time
	seq      uint64
	fn       func()
	afn      func(any)
	arg      any
	canceled bool
	index    int // position in the queue (heap index or bucket offset), -1 once popped
	level    int8
	slot     int16
	gen      uint64
}

// Timer is a handle to a scheduled event that can be canceled or moved.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its original scheduling
// (the pooled event has not been recycled for another callback).
func (t *Timer) live() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Cancel prevents the timer's callback from running. Canceling an already
// fired or already canceled timer is a no-op. Cancel is safe to call from
// inside event callbacks.
func (t *Timer) Cancel() {
	if !t.live() || t.ev.canceled {
		return
	}
	t.ev.canceled = true
	if t.ev.index >= 0 {
		t.e.pending--
	}
}

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool {
	return t.live() && !t.ev.canceled && t.ev.index >= 0
}

// Reschedule moves a pending timer to absolute time at, adjusting the event
// queue in place (no tombstone is left behind, unlike Cancel + re-Schedule).
// The timer is given a fresh tie-breaking sequence number, so rescheduling
// to an instant shared with other events behaves exactly like canceling and
// scheduling anew. Rescheduling into the past or rescheduling a fired or
// canceled timer panics: both are model bugs.
func (t *Timer) Reschedule(at Time) {
	if !t.Active() {
		panic("sim: Reschedule of inactive timer")
	}
	if at < t.e.now {
		panic("sim: Reschedule in the past")
	}
	t.ev.at = at
	t.ev.seq = t.e.seq
	t.e.seq++
	t.e.q.update(t.ev)
}

// evqueue orders pending events by (at, seq). The engine always runs on the
// timing wheel; the interface lets this package's tests run the same
// schedules on the binary-heap oracle. Canceled events stay queued as
// tombstones and are returned by pop like any other event; the engine
// skips and recycles them. peek must not have observable side effects
// beyond internal reorganisation bounded by limit (the wheel advances its
// cursor at most to limit, never past a pending event).
type evqueue interface {
	push(ev *event)
	update(ev *event) // relocate after at/seq changed
	peek(limit Time) (Time, bool)
	pop() *event
	size() int
}

// Engine is a discrete-event simulator. All model code runs sequentially on
// the engine's loop — callbacks are never concurrent with each other — and
// the Engine API is not safe for concurrent use.
type Engine struct {
	now     Time
	q       evqueue
	seq     uint64
	rng     *rand.Rand
	src     *CountingSource
	stopped bool
	fired   uint64
	pending int      // live count of scheduled, non-canceled events
	free    []*event // recycled events awaiting reuse
}

// New returns an engine with its clock at zero and a deterministic random
// source seeded with seed.
func New(seed int64) *Engine {
	// The counting wrapper forwards rand.NewSource's stream unchanged, so
	// every pre-existing run stays bit-identical; the draw count it maintains
	// is what snapshots record as the stream position (see CountingSource).
	src := NewCountingSource(seed)
	return &Engine{q: newWheelQ(), rng: rand.New(src), src: src}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. All stochastic model
// decisions must draw from this source to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of scheduled (non-canceled) events. It is O(1):
// the engine keeps a live counter instead of scanning the queue.
func (e *Engine) Pending() int { return e.pending }

// Fired returns the number of events executed so far; useful as a progress
// and complexity metric in benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Seed returns the seed the engine's random source was created with.
func (e *Engine) Seed() int64 { return e.src.SeedValue() }

// RandDraws returns the number of values drawn from the engine's random
// source so far — the stream's position, recorded by snapshots and verified
// on restore (a replay that lands on a different count consumed randomness
// the original run did not).
func (e *Engine) RandDraws() uint64 { return e.src.Draws() }

// SeqCount returns the number of tie-breaking sequence numbers issued so
// far. Together with Now, Fired, and Pending it pins the engine's scheduling
// state for the snapshot census.
func (e *Engine) SeqCount() uint64 { return e.seq }

// alloc takes an event from the free list, or allocates one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped event to the free list. Bumping gen invalidates
// every outstanding Timer handle to this scheduling.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.canceled = false
	ev.gen++
	e.free = append(e.free, ev)
}

// scheduleInto fills a caller-provided Timer handle with a fresh scheduling,
// so recurring callers (tickers) pay no per-event Timer allocation.
func (e *Engine) scheduleInto(t *Timer, at Time, fn func(), afn func(any), arg any) {
	if at < e.now {
		panic("sim: Schedule in the past")
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	e.seq++
	e.q.push(ev)
	e.pending++
	t.e, t.ev, t.gen = e, ev, ev.gen
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: it is
// always a model bug, and silently reordering events would corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) *Timer {
	t := &Timer{}
	e.scheduleInto(t, at, fn, nil, nil)
	return t
}

// ScheduleArg runs fn(arg) at absolute time at. It is the pre-bound form of
// Schedule for recurring callbacks: binding the receiver through arg instead
// of a closure means a heartbeat or ticker that reschedules itself allocates
// nothing per event.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) *Timer {
	t := &Timer{}
	e.scheduleInto(t, at, nil, fn, arg)
	return t
}

// After runs fn d after the current time. Negative d panics via Schedule.
func (e *Engine) After(d Time, fn func()) *Timer {
	return e.Schedule(e.now+d, fn)
}

// AfterArg runs fn(arg) d after the current time; the pre-bound form of
// After (see ScheduleArg).
func (e *Engine) AfterArg(d Time, fn func(any), arg any) *Timer {
	return e.ScheduleArg(e.now+d, fn, arg)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty or Stop is
// called. It returns the time of the last executed event.
func (e *Engine) Run() Time {
	e.stopped = false
	for e.q.size() > 0 && !e.stopped {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if _, ok := e.q.peek(deadline); !ok {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunUntilWhile executes events with timestamps <= deadline while cond()
// holds; cond is evaluated before each event. Unlike RunUntil the clock is
// left at the last executed event, never advanced to the deadline: a later
// continuation of the run (RunWhile, another RunUntilWhile) then fires
// exactly the event sequence an uninterrupted run would have fired, which is
// the property mid-run snapshots rely on.
func (e *Engine) RunUntilWhile(deadline Time, cond func() bool) {
	e.stopped = false
	for !e.stopped && cond() {
		if _, ok := e.q.peek(deadline); !ok {
			break
		}
		e.step()
	}
}

// RunWhile executes events while cond() holds and the queue is non-empty.
// cond is evaluated before each event.
func (e *Engine) RunWhile(cond func() bool) {
	e.stopped = false
	for e.q.size() > 0 && !e.stopped && cond() {
		e.step()
	}
}

func (e *Engine) step() {
	ev := e.q.pop()
	if ev == nil {
		return
	}
	if ev.canceled {
		e.recycle(ev)
		return
	}
	e.pending--
	e.now = ev.at
	e.fired++
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.recycle(ev)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Ticker schedules fn to run every interval until stopped. Each tick reuses
// the ticker's own pre-bound callback and embedded Timer handle, so a
// running ticker allocates nothing per fire — the periodic heartbeats and
// scan loops that dominate grid simulations ride the event free list alone.
type Ticker struct {
	e        *Engine
	interval Time
	fn       func()
	stopped  bool
	t        Timer
}

// Stop cancels all future ticks.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.t.Cancel()
}

// tickerTick fires one tick and schedules the next; fn runs before the next
// tick is scheduled, so fn may stop the ticker to prevent further ticks.
func tickerTick(x any) {
	tk := x.(*Ticker)
	if tk.stopped {
		return
	}
	tk.fn()
	if !tk.stopped {
		tk.e.scheduleInto(&tk.t, tk.e.now+tk.interval, nil, tickerTick, tk)
	}
}

// Every creates a Ticker invoking fn at the given period, starting interval
// from now.
func (e *Engine) Every(interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every with non-positive interval")
	}
	tk := &Ticker{e: e, interval: interval, fn: fn}
	e.scheduleInto(&tk.t, e.now+interval, nil, tickerTick, tk)
	return tk
}
