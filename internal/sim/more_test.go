package sim

import (
	"testing"
	"testing/quick"
)

// Property: RunUntil in pieces is equivalent to one long RunUntil for
// ticker-driven state (time decomposition).
func TestRunUntilDecompositionProperty(t *testing.T) {
	f := func(cutRaw uint8) bool {
		cut := Time(cutRaw%99+1) * Second
		run := func(split bool) int {
			e := New(1)
			count := 0
			e.Every(Second, func() { count++ })
			if split {
				e.RunUntil(cut)
				e.RunUntil(100 * Second)
			} else {
				e.RunUntil(100 * Second)
			}
			return count
		}
		return run(true) == run(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(Millisecond, recurse)
		}
	}
	e.After(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
	if e.Now() != 99*Millisecond {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestTimerCancelIdempotent(t *testing.T) {
	e := New(1)
	tm := e.After(Second, func() {})
	tm.Cancel()
	tm.Cancel() // must not panic
	var nilTimer *Timer
	nilTimer.Cancel() // nil-safe
	if nilTimer.Active() {
		t.Fatal("nil timer active")
	}
	e.Run()
}

func TestStopThenRunResumes(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(Second, func() {
		count++
		if count == 3 {
			e.Stop()
		}
	})
	e.RunUntil(10 * Second)
	if count != 3 {
		t.Fatalf("count = %d after stop", count)
	}
	// Run resumes from where Stop left off.
	e.RunUntil(10 * Second)
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

// Property: exponential sampling is memoryless-ish: the mean of samples
// conditioned on exceeding a threshold is threshold + mean (within noise).
func TestExponentialMemoryless(t *testing.T) {
	e := New(5)
	d := Dist{Mean: 10 * Second}
	thr := 5 * Second
	var condSum float64
	n := 0
	for i := 0; i < 200000; i++ {
		v := d.Sample(e.Rand())
		if v > thr {
			condSum += float64(v - thr)
			n++
		}
	}
	condMean := condSum / float64(n)
	want := float64(10 * Second)
	if condMean < 0.95*want || condMean > 1.05*want {
		t.Fatalf("conditional mean %.0f, want ~%.0f", condMean, want)
	}
}
