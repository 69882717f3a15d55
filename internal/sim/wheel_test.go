package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// forBothEngines runs f against the engine on its timing wheel and on the
// binary-heap oracle: the two queues must be indistinguishable.
func forBothEngines(t *testing.T, f func(t *testing.T, newEngine func() *Engine)) {
	t.Helper()
	for _, q := range []struct {
		name string
		new  func(seed int64) *Engine
	}{{"wheel", New}, {"heap", newHeapEngine}} {
		t.Run(q.name, func(t *testing.T) { f(t, func() *Engine { return q.new(1) }) })
	}
}

// fingerprintRun drives one engine through a randomized schedule of
// schedules, cancels, reschedules, tickers and bounded runs — including
// far-future events that overflow the wheel — and hashes the exact firing
// sequence (time, marker). The op stream comes from its own rand source, so
// it is identical for both engines by construction; the hash then certifies
// the firing order is too.
func fingerprintRun(newEngine func(seed int64) *Engine, seed int64) uint64 {
	r := rand.New(rand.NewSource(seed))
	e := newEngine(seed)
	h := fnv.New64a()
	record := func(marker int) {
		var buf [16]byte
		now := uint64(e.Now())
		m := uint64(marker)
		for i := 0; i < 8; i++ {
			buf[i] = byte(now >> (8 * i))
			buf[8+i] = byte(m >> (8 * i))
		}
		h.Write(buf[:])
	}
	var timers []*Timer
	var tickers []*Ticker
	nextMarker := 0
	finishing := false
	var mutate func()
	mutate = func() {
		for k := 0; k < 4; k++ {
			switch r.Intn(12) {
			case 0, 1, 2: // near-future event that keeps the churn going
				m := nextMarker
				nextMarker++
				d := Time(r.Int63n(int64(10 * Minute)))
				timers = append(timers, e.After(d, func() {
					record(m)
					if nextMarker < 4000 {
						mutate()
					}
				}))
			case 3, 4: // same-instant event (tie-order coverage)
				m := nextMarker
				nextMarker++
				timers = append(timers, e.After(0, func() { record(m) }))
			case 5: // spans several wheel levels
				m := nextMarker
				nextMarker++
				d := Time(r.Int63n(int64(18 * Hour)))
				timers = append(timers, e.After(d, func() { record(m) }))
			case 6: // beyond the wheel horizon: overflow heap territory
				m := nextMarker
				nextMarker++
				d := 20*Hour + Time(r.Int63n(int64(30*Hour)))
				timers = append(timers, e.After(d, func() { record(m) }))
			case 7, 8: // cancel a random timer
				if len(timers) > 0 {
					timers[r.Intn(len(timers))].Cancel()
				}
			case 9, 10: // reschedule a random live timer in either direction
				if len(timers) > 0 {
					tm := timers[r.Intn(len(timers))]
					if tm.Active() {
						tm.Reschedule(e.Now() + Time(r.Int63n(int64(25*Hour))))
					}
				}
			case 11: // ticker churn: start one, sometimes stop one
				if len(tickers) > 0 && r.Intn(2) == 0 {
					tickers[r.Intn(len(tickers))].Stop()
				} else if len(tickers) < 20 && !finishing {
					m := nextMarker
					nextMarker++
					iv := Time(1+r.Int63n(int64(3*Minute))) * 17
					tickers = append(tickers, e.Every(iv, func() { record(m) }))
				}
			}
		}
	}
	e.After(0, mutate)
	// Mix bounded and unbounded execution so RunUntil's deadline handling is
	// part of the fingerprint.
	for i := 0; i < 10; i++ {
		e.RunUntil(e.Now() + Time(r.Int63n(int64(2*Hour))))
	}
	// Drain: no new tickers from here on, stop the live ones, run dry. The
	// drain phase still fires remaining one-shot events, including the
	// far-future overflow population.
	finishing = true
	for _, tk := range tickers {
		tk.Stop()
	}
	e.Run()
	record(-1) // final clock position
	return h.Sum64()
}

// TestEngineFingerprintEquivalence pins the engine's ordering contract: the
// timing wheel fires exactly the same events at exactly the same times in
// exactly the same order as the binary-heap oracle, across randomized
// schedules that cover cancels, reschedules, tickers, ties, and overflow.
func TestEngineFingerprintEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		oracle := fingerprintRun(newHeapEngine, seed)
		if got := fingerprintRun(New, seed); got != oracle {
			t.Fatalf("seed %d: wheel fingerprint %016x != heap fingerprint %016x", seed, got, oracle)
		}
	}
}

// TestRescheduleAcrossWheelLevels moves timers across every wheel level
// boundary — microseconds to hours — in both directions and checks the
// firing order.
func TestRescheduleAcrossWheelLevels(t *testing.T) {
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var order []string
		a := e.Schedule(10*Microsecond, func() { order = append(order, "a") })
		b := e.Schedule(2*Hour, func() { order = append(order, "b") })
		c := e.Schedule(5*Second, func() { order = append(order, "c") })
		a.Reschedule(3 * Hour)         // level 0 → near the top of the wheel
		b.Reschedule(20 * Millisecond) // high level → level ~2
		c.Reschedule(30 * Hour)        // mid level → overflow
		d := e.Schedule(time500ms, func() { order = append(order, "d") })
		_ = d
		e.Run()
		want := "[b d a c]"
		if got := fmt.Sprint(order); got != want {
			t.Fatalf("order = %v, want %v", got, want)
		}
		if e.Pending() != 0 {
			t.Fatalf("pending = %d after run", e.Pending())
		}
	})
}

const time500ms = 500 * Millisecond

// TestOverflowCancelBeforePromotion cancels far-future events while they
// still sit in the overflow heap — before the wheel cursor ever gets close
// enough to promote them — and checks they neither fire nor leak.
func TestOverflowCancelBeforePromotion(t *testing.T) {
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := 0
		far1 := e.Schedule(25*Hour, func() { fired++ })
		far2 := e.Schedule(40*Hour, func() { fired++ })
		kept := e.Schedule(30*Hour, func() { fired++ })
		far1.Cancel()
		if far1.Active() || !far2.Active() {
			t.Fatal("cancel state wrong before promotion")
		}
		if e.Pending() != 2 {
			t.Fatalf("pending = %d, want 2", e.Pending())
		}
		// Advance within the wheel's first block, then cancel the second
		// far event mid-run, still pre-promotion.
		e.Schedule(Hour, func() { far2.Cancel() })
		e.RunUntil(2 * Hour)
		if e.Pending() != 1 {
			t.Fatalf("pending = %d after mid-run cancel, want 1", e.Pending())
		}
		end := e.Run()
		if fired != 1 {
			t.Fatalf("fired = %d, want only the kept event", fired)
		}
		if end != 30*Hour || !(!kept.Active()) {
			t.Fatalf("end = %v, want 30h", end)
		}
	})
}

// TestOverflowRescheduleToNear reschedules an overflow event into the near
// future and a near event into overflow; both must fire exactly once at
// their final times.
func TestOverflowRescheduleToNear(t *testing.T) {
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var fires []Time
		far := e.Schedule(30*Hour, func() { fires = append(fires, e.Now()) })
		near := e.Schedule(Second, func() { fires = append(fires, e.Now()) })
		far.Reschedule(2 * Second)
		near.Reschedule(25 * Hour)
		e.Run()
		if len(fires) != 2 || fires[0] != 2*Second || fires[1] != 25*Hour {
			t.Fatalf("fires = %v, want [2s 25h]", fires)
		}
	})
}

// TestSameInstantAtBucketBoundary schedules events for the same instant
// from very different distances — some land in level-0 buckets, some park
// at high wheel levels or overflow first — and checks FIFO tie order
// survives the cascades. The instants sit exactly on 64^k µs boundaries,
// where cascading is busiest.
func TestSameInstantAtBucketBoundary(t *testing.T) {
	boundaries := []Time{
		1 << (6 * 1), // level-1 boundary (64 µs)
		1 << (6 * 2), // level-2 boundary (4096 µs)
		1 << (6 * 3), // level-3 boundary
		1 << (6 * 4), // level-4 boundary
		3 << (6 * 4), // mid-range multiple
	}
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		for _, at := range boundaries {
			e := newEngine()
			var got []int
			// Scheduled far in advance: parks at a high level.
			e.Schedule(at, func() { got = append(got, 0) })
			// Stepping stones pull the cursor forward so later schedules of
			// the same instant file at progressively lower levels.
			e.Schedule(at/2, func() {
				e.Schedule(at, func() { got = append(got, 1) })
			})
			e.Schedule(at-1, func() {
				e.Schedule(at, func() { got = append(got, 2) })
			})
			e.Run()
			if fmt.Sprint(got) != "[0 1 2]" {
				t.Fatalf("at boundary %d: order %v, want [0 1 2]", at, got)
			}
		}
	})
}

// TestTickerStopRestart stops a ticker, verifies silence, then starts a
// replacement and verifies it ticks on its own schedule — under both
// engines, since tickers are the wheel's hottest recurring clients.
func TestTickerStopRestart(t *testing.T) {
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		first, second := 0, 0
		tk := e.Every(Second, func() { first++ })
		e.RunUntil(3 * Second)
		tk.Stop()
		e.RunUntil(10 * Second)
		if first != 3 {
			t.Fatalf("first ticker ticked %d times, want 3", first)
		}
		tk2 := e.Every(2*Second, func() { second++ })
		e.RunUntil(20 * Second)
		tk2.Stop()
		e.RunUntil(30 * Second)
		if second != 5 {
			t.Fatalf("second ticker ticked %d times, want 5", second)
		}
		if e.Pending() != 0 {
			t.Fatalf("pending = %d after both stops", e.Pending())
		}
	})
}

// TestTickerRestartFromCallback stops and replaces a ticker from inside its
// own callback — the reentrant pattern model code uses for backoff.
func TestTickerRestartFromCallback(t *testing.T) {
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var ticks []Time
		var tk *Ticker
		tk = e.Every(Second, func() {
			ticks = append(ticks, e.Now())
			if len(ticks) == 2 {
				tk.Stop()
				tk = e.Every(5*Second, func() {
					ticks = append(ticks, e.Now())
					if len(ticks) == 4 {
						tk.Stop()
					}
				})
			}
		})
		e.Run()
		want := []Time{Second, 2 * Second, 7 * Second, 12 * Second}
		if len(ticks) != len(want) {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
		for i := range want {
			if ticks[i] != want[i] {
				t.Fatalf("ticks = %v, want %v", ticks, want)
			}
		}
	})
}

// TestScheduleArgFiresLikeSchedule pins the pre-bound form to the closure
// form: same times, same order, argument delivered.
func TestScheduleArgFiresLikeSchedule(t *testing.T) {
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		e.ScheduleArg(2*Second, func(x any) { got = append(got, x.(int)) }, 2)
		e.AfterArg(Second, func(x any) { got = append(got, x.(int)) }, 1)
		e.Schedule(3*Second, func() { got = append(got, 3) })
		e.Run()
		if fmt.Sprint(got) != "[1 2 3]" {
			t.Fatalf("got %v", got)
		}
	})
}

// TestRunUntilThenScheduleBehindCursor advances the clock with RunUntil past
// stretches of empty time, then schedules between the deadline and the next
// pending event — the case where a naive wheel cursor would have overshot.
func TestRunUntilThenScheduleBehindCursor(t *testing.T) {
	forBothEngines(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var fires []Time
		e.Schedule(10*Hour, func() { fires = append(fires, e.Now()) })
		e.RunUntil(Hour) // idle advance: next event far beyond the deadline
		if e.Now() != Hour {
			t.Fatalf("now = %v, want 1h", e.Now())
		}
		// Must land between the deadline and the parked 10h event.
		e.Schedule(2*Hour, func() { fires = append(fires, e.Now()) })
		e.Run()
		if len(fires) != 2 || fires[0] != 2*Hour || fires[1] != 10*Hour {
			t.Fatalf("fires = %v, want [2h 10h]", fires)
		}
	})
}

// TestRunUntilAcrossWindows slices a run with RunUntil deadlines that fall
// before, exactly on, and between event instants, one of them on a
// level-3 slot-window boundary (64^3 µs). The sliced wheel run must fire
// the same instants as one uninterrupted run of the heap oracle, and each
// RunUntil must leave the clock on its deadline.
func TestRunUntilAcrossWindows(t *testing.T) {
	schedule := func(e *Engine, fires *[]Time) {
		rec := func() { *fires = append(*fires, e.Now()) }
		for i := 1; i <= 12; i++ {
			e.Schedule(Time(i)*37*Millisecond, rec)
		}
	}
	var want []Time
	oracle := newHeapEngine(1)
	schedule(oracle, &want)
	oracle.Run()

	var got []Time
	e := New(1)
	schedule(e, &got)
	deadlines := []Time{30 * Millisecond, 37 * Millisecond, 101 * Millisecond, 137 * Millisecond, 1 << (3 * wheelSlotBits), 300 * Millisecond}
	for _, d := range deadlines {
		e.RunUntil(d)
		if e.Now() != d {
			t.Fatalf("now = %v after RunUntil(%v)", e.Now(), d)
		}
	}
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fires %v, want %v", got, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}
