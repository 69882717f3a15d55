package event

import (
	"testing"

	"hog/internal/sim"
)

func TestNilAndEmptyBus(t *testing.T) {
	var nilBus *Bus
	if nilBus.Active() {
		t.Fatal("nil bus reports active")
	}
	nilBus.Emit(At(NodeJoined, 0)) // must not panic
	b := &Bus{}
	if b.Active() {
		t.Fatal("empty bus reports active")
	}
	b.Subscribe(NewLog())
	if !b.Active() {
		t.Fatal("subscribed bus reports inactive")
	}
}

func TestBusDeliversInSubscriptionOrder(t *testing.T) {
	b := &Bus{}
	var order []int
	b.Subscribe(ObserverFunc(func(Event) { order = append(order, 1) }))
	b.Subscribe(ObserverFunc(func(Event) { order = append(order, 2) }))
	b.Emit(At(JobSubmitted, 5*sim.Second))
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v", order)
	}
}

func TestLogFilterAndCounts(t *testing.T) {
	l := NewLog(BlockLost)
	l.HandleEvent(At(BlockLost, sim.Second))
	l.HandleEvent(At(NodeJoined, 2*sim.Second))
	l.HandleEvent(At(BlockLost, 3*sim.Second))
	if l.Len() != 2 {
		t.Fatalf("retained %d events, want 2 (filtered to BlockLost)", l.Len())
	}
	// Counts cover every observed event, filtered or not.
	if l.Count(BlockLost) != 2 || l.Count(NodeJoined) != 1 || l.Count(SiteOutage) != 0 {
		t.Fatalf("counts wrong: lost=%d joined=%d", l.Count(BlockLost), l.Count(NodeJoined))
	}
	if l.Total() != 3 {
		t.Fatalf("total = %d, want 3", l.Total())
	}
}

func TestLogAcrossChunks(t *testing.T) {
	l := NewLog()
	const n = 3*logChunk + 5
	for i := 0; i < n; i++ {
		e := At(TaskLaunched, sim.Time(i))
		e.Task = i
		l.HandleEvent(e)
	}
	evs := l.Events()
	if l.Len() != n || len(evs) != n {
		t.Fatalf("Len = %d, len(Events) = %d, want %d", l.Len(), len(evs), n)
	}
	for i, e := range evs {
		if e.Task != i || e.Time != sim.Time(i) {
			t.Fatalf("event %d = task %d at %v, want emission order", i, e.Task, e.Time)
		}
	}
	evs[0].Task = -7
	if l.Events()[0].Task != 0 {
		t.Fatal("mutating the Events result changed the log")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	mk := func(mutate func(*Event)) uint64 {
		l := NewLog()
		e := At(TaskLaunched, 7*sim.Second)
		e.Job, e.Task, e.Node, e.Locality, e.Site = 3, 9, 12, 1, "UCSDT2"
		if mutate != nil {
			mutate(&e)
		}
		l.HandleEvent(e)
		return l.Fingerprint()
	}
	base := mk(nil)
	if base != mk(nil) {
		t.Fatal("identical sequences fingerprint differently")
	}
	for name, mut := range map[string]func(*Event){
		"time":     func(e *Event) { e.Time++ },
		"type":     func(e *Event) { e.Type = TaskFinished },
		"node":     func(e *Event) { e.Node++ },
		"site":     func(e *Event) { e.Site = "MIT_CMS" },
		"locality": func(e *Event) { e.Locality = 2 },
		"detail":   func(e *Event) { e.Detail = "x" },
	} {
		if mk(mut) == base {
			t.Fatalf("fingerprint insensitive to %s", name)
		}
	}
	if NewLog().Fingerprint() == base {
		t.Fatal("empty log shares fingerprint with non-empty log")
	}
}

func TestTypeNames(t *testing.T) {
	seen := map[string]bool{}
	for ty := Type(0); ty < NumTypes; ty++ {
		name := ty.String()
		if name == "unknown" || name == "" {
			t.Fatalf("type %d has no name", ty)
		}
		if seen[name] {
			t.Fatalf("duplicate type name %q", name)
		}
		seen[name] = true
	}
	if NumTypes.String() != "unknown" {
		t.Fatal("out-of-range type should be unknown")
	}
}
