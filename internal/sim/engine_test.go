package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(3*Second, func() { got = append(got, 3) })
	e.Schedule(1*Second, func() { got = append(got, 1) })
	e.Schedule(2*Second, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3*Second {
		t.Fatalf("end = %v, want 3s", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v not FIFO", got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New(1)
	var at Time
	e.After(5*Second, func() {
		at = e.Now()
		e.After(2*Second, func() { at = e.Now() })
	})
	e.Run()
	if at != 7*Second {
		t.Fatalf("nested After fired at %v, want 7s", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.After(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(0, func() {})
	})
	e.Run()
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("timer should be inactive after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestCancelFromCallback(t *testing.T) {
	e := New(1)
	fired := false
	var tm *Timer
	e.Schedule(Second, func() { tm.Cancel() })
	tm = e.Schedule(Second, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("timer canceled at same instant still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(Second, func() { count++ })
	e.RunUntil(10 * Second)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if e.Now() != 10*Second {
		t.Fatalf("now = %v, want 10s", e.Now())
	}
	if e.Pending() == 0 {
		t.Fatal("ticker should still be pending after RunUntil")
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New(1)
	e.RunUntil(42 * Second)
	if e.Now() != 42*Second {
		t.Fatalf("now = %v, want 42s", e.Now())
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := New(1)
	count := 0
	var tk *Ticker
	tk = e.Every(Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(Second, func() {
		count++
		if count == 5 {
			e.Stop()
		}
	})
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestRunWhile(t *testing.T) {
	e := New(1)
	count := 0
	e.Every(Second, func() { count++ })
	e.RunWhile(func() bool { return count < 7 })
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := New(seed)
		var fires []Time
		var spawn func()
		spawn = func() {
			fires = append(fires, e.Now())
			if len(fires) < 50 {
				e.After(Dist{Mean: Second}.Sample(e.Rand()), spawn)
			}
		}
		e.After(0, spawn)
		e.Run()
		return fires
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

// Property: any batch of scheduled times executes in sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := New(1)
		var fired []Time
		for _, o := range offsets {
			e.Schedule(Time(o)*Millisecond, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset of timers fires exactly the complement.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(offsets []uint16, mask []bool) bool {
		e := New(1)
		fired := make([]bool, len(offsets))
		timers := make([]*Timer, len(offsets))
		for i, o := range offsets {
			i := i
			timers[i] = e.Schedule(Time(o)*Millisecond, func() { fired[i] = true })
		}
		for i := range timers {
			if i < len(mask) && mask[i] {
				timers[i].Cancel()
			}
		}
		e.Run()
		for i := range fired {
			canceled := i < len(mask) && mask[i]
			if fired[i] == canceled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %d", Seconds(1.5))
	}
	if got := (90 * Second).Seconds(); got != 90 {
		t.Fatalf("Seconds() = %v", got)
	}
	if Milliseconds(2.5) != 2500*Microsecond {
		t.Fatalf("Milliseconds(2.5) = %d", Milliseconds(2.5))
	}
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Fatalf("String() = %q", s)
	}
}

func TestDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	dists := []struct {
		name string
		d    Dist
		mean Time
	}{
		{"constant", Dist{Offset: 3 * Second}, 3 * Second},
		{"exponential", Dist{Mean: 3 * Second}, 3 * Second},
		{"shifted", Dist{Offset: Second, Mean: 2 * Second}, 3 * Second},
	}
	for _, tc := range dists {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := tc.d.Sample(r)
			if v < tc.d.Offset {
				t.Fatalf("%s produced sample %v below its offset", tc.name, v)
			}
			sum += float64(v)
		}
		mean, want := sum/n, float64(tc.mean)
		if mean < 0.9*want || mean > 1.1*want {
			t.Errorf("%s empirical mean %.0f, want ~%.0f", tc.name, mean, want)
		}
	}
	// Each sample is Offset plus one scaled ExpFloat64: one value drawn per
	// sample, even when Mean is zero.
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	d := Dist{Offset: 45 * Second, Mean: 90 * Second}
	for i := 0; i < 100; i++ {
		if got, want := d.Sample(a), 45*Second+Time(b.ExpFloat64()*float64(90*Second)); got != want {
			t.Fatalf("sample %d = %v, want %v", i, got, want)
		}
	}
	Dist{Offset: Second}.Sample(a)
	b.ExpFloat64()
	if a.Int63() != b.Int63() {
		t.Fatal("a zero-mean sample did not draw exactly one value")
	}
	if !(Dist{}).IsZero() || (Dist{Offset: 1}).IsZero() || (Dist{Mean: 1}).IsZero() {
		t.Fatal("IsZero must hold only for the zero value")
	}
}

func TestEveryInvalidInterval(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	e.Every(0, func() {})
}

func TestFiredCounter(t *testing.T) {
	e := New(1)
	for i := 0; i < 5; i++ {
		e.After(Time(i)*Second, func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("fired = %d, want 5", e.Fired())
	}
}
