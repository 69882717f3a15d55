package sim

import "testing"

// engineTimerRun drives a bare engine through the timer population a
// MEGA-GRID simulation carries: tens of thousands of clustered periodic
// tickers (worker heartbeats with microsecond skew, master scan loops) plus
// a churn of one-shot timers that get rescheduled and canceled (flow
// completions, node lifetimes, speculative launches). This is the pure
// event-queue workload: wall-clock differences between the wheel and the
// heap here are queue cost and nothing else.
func engineTimerRun(newEngine func(seed int64) *Engine, nTimers int) uint64 {
	e := newEngine(1)
	for i := 0; i < nTimers; i++ {
		iv := 3*Second + Time(i%997)*Millisecond/10
		e.Every(iv, func() {})
	}
	var churn func()
	var live []*Timer
	churn = func() {
		r := e.Rand()
		for k := 0; k < 8; k++ {
			switch r.Intn(4) {
			case 0:
				live = append(live, e.After(Time(r.Int63n(int64(20*Minute))), func() {}))
			case 1:
				if n := len(live); n > 0 {
					live[r.Intn(n)].Cancel()
				}
			default:
				if n := len(live); n > 0 {
					if tm := live[r.Intn(n)]; tm.Active() {
						tm.Reschedule(e.Now() + Time(r.Int63n(int64(10*Minute))))
					}
				}
			}
		}
		e.After(50*Millisecond, churn)
	}
	e.After(0, churn)
	e.RunUntil(2 * Minute)
	return e.Fired()
}

// BenchmarkEngine compares the timing-wheel event queue against the
// binary-heap oracle on the bare-engine timer workload at MEGA-GRID
// pending-set sizes. The wheel's acceptance bar is wheel <= heap/1.3 ns/op
// at 20k pending timers.
func BenchmarkEngine(b *testing.B) {
	want := uint64(0)
	for _, mode := range []struct {
		name string
		new  func(seed int64) *Engine
	}{{"wheel", New}, {"heap", newHeapEngine}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := engineTimerRun(mode.new, 20000)
				if got == 0 {
					b.Fatal("no events fired")
				}
				if want == 0 {
					want = got
				} else if got != want {
					b.Fatalf("engines diverge: %d events vs %d", got, want)
				}
			}
		})
	}
}
