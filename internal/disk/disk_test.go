package disk

import (
	"testing"
	"testing/quick"

	"hog/internal/netmodel"
)

func TestReserveRelease(t *testing.T) {
	tr := NewTracker()
	n := netmodel.NodeID(1)
	tr.SetCapacity(n, 100)
	if !tr.Reserve(n, 60) {
		t.Fatal("reserve within capacity failed")
	}
	if tr.Used(n) != 60 || tr.Free(n) != 40 {
		t.Fatalf("used/free = %v/%v", tr.Used(n), tr.Free(n))
	}
	if tr.Utilization(n) != 0.6 {
		t.Fatalf("utilization = %v", tr.Utilization(n))
	}
	tr.Release(n, 20)
	if tr.Used(n) != 40 {
		t.Fatalf("used = %v after release", tr.Used(n))
	}
}

func TestOverflow(t *testing.T) {
	tr := NewTracker()
	n := netmodel.NodeID(2)
	tr.SetCapacity(n, 100)
	var fired []float64
	tr.OnOverflow = func(id netmodel.NodeID, req float64) {
		if id != n {
			t.Errorf("overflow on wrong node %d", id)
		}
		fired = append(fired, req)
	}
	if tr.Reserve(n, 150) {
		t.Fatal("overflow reserve succeeded")
	}
	if tr.Used(n) != 0 {
		t.Fatal("failed reserve consumed space")
	}
	if len(fired) != 1 || fired[0] != 150 {
		t.Fatalf("overflow callback = %v", fired)
	}
	if tr.Overflows() != 1 {
		t.Fatalf("overflows = %d", tr.Overflows())
	}
}

func TestUnknownNode(t *testing.T) {
	tr := NewTracker()
	n := netmodel.NodeID(3)
	if tr.Capacity(n) != 0 || tr.Utilization(n) != 0 || tr.Free(n) != 0 {
		t.Fatal("unknown node should read as zero")
	}
	if tr.Reserve(n, 1) {
		t.Fatal("reserve on zero-capacity node succeeded")
	}
}

func TestClearAndClampedRelease(t *testing.T) {
	tr := NewTracker()
	n := netmodel.NodeID(4)
	tr.SetCapacity(n, 100)
	tr.Reserve(n, 80)
	tr.Clear(n)
	if tr.Used(n) != 0 {
		t.Fatal("clear did not zero usage")
	}
	tr.Release(n, 50) // late release after wipe must clamp
	if tr.Used(n) != 0 {
		t.Fatalf("used went negative: %v", tr.Used(n))
	}
}

func TestNegativeOpsPanic(t *testing.T) {
	tr := NewTracker()
	tr.SetCapacity(1, 10)
	for _, f := range []func(){
		func() { tr.Reserve(1, -1) },
		func() { tr.Release(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative byte op did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: any sequence of successful reserves and matching releases leaves
// used in [0, capacity].
func TestAccountingProperty(t *testing.T) {
	f := func(ops []int16) bool {
		tr := NewTracker()
		n := netmodel.NodeID(0)
		tr.SetCapacity(n, 1000)
		var held []float64
		for _, op := range ops {
			if op >= 0 {
				b := float64(op)
				if tr.Reserve(n, b) {
					held = append(held, b)
				}
			} else if len(held) > 0 {
				tr.Release(n, held[len(held)-1])
				held = held[:len(held)-1]
			}
			if tr.Used(n) < 0 || tr.Used(n) > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a watcher that starts from Free and applies every WatchRoom
// report holds exactly Free(n) >= mark for every node, through capacity
// changes, successful and failed reserves, releases and clears, on nodes
// inside and past the tables, including a mark of zero; and every report
// is a change.
func TestWatchRoomTracksFree(t *testing.T) {
	f := func(mark uint8, ops []uint16) bool {
		tr := NewTracker()
		m := float64(mark % 64)
		room := make(map[netmodel.NodeID]bool)
		for id := netmodel.NodeID(0); id < 12; id++ {
			room[id] = tr.Free(id) >= m
		}
		ok := true
		tr.WatchRoom(m, func(n netmodel.NodeID, r bool) {
			if room[n] == r {
				ok = false // a report that changes nothing
			}
			room[n] = r
		})
		for _, op := range ops {
			n := netmodel.NodeID(op % 12)
			v := float64(op >> 4 % 90)
			switch op >> 12 % 4 {
			case 0:
				tr.SetCapacity(n, v)
			case 1:
				tr.Reserve(n, v)
			case 2:
				tr.Release(n, v)
			default:
				tr.Clear(n)
			}
			for id, r := range room {
				if r != (tr.Free(id) >= m) {
					return false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
