package liveness

import (
	"slices"
	"testing"

	"hog/internal/netmodel"
	"hog/internal/sim"
)

// node is a master-side record as the masters keep one: an ID and the
// embedded ledger entry.
type node struct {
	id   netmodel.NodeID
	live Record
}

func newNodes(ids ...netmodel.NodeID) []*node {
	out := make([]*node, len(ids))
	for i, id := range ids {
		out[i] = &node{id: id}
	}
	return out
}

// checkSlots verifies that every quiet member's record points back at its
// slot and that no steady record is in the quiet set.
func checkSlots[T any](t *testing.T, l *Ledger[T]) {
	t.Helper()
	for i, m := range l.quiet {
		if int(m.rec.slot) != i {
			t.Fatalf("member %d (node %d) records slot %d", i, m.id, m.rec.slot)
		}
		if m.rec.steady {
			t.Fatalf("steady node %d sits in the quiet set", m.id)
		}
	}
}

func ids(ns []*node) []netmodel.NodeID {
	out := make([]netmodel.NodeID, len(ns))
	for i, n := range ns {
		out[i] = n.id
	}
	return out
}

func TestSettleOnlyWhenHeardNow(t *testing.T) {
	cases := []struct {
		name   string
		beatAt sim.Time // -1: no beat after the add at 1
		at     sim.Time
		want   bool
	}{
		{"added now", -1, 1, true},
		{"added earlier", -1, 2, false},
		{"beat now", 2, 2, true},
		{"beat earlier", 2, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Ledger[*node]
			n := newNodes(7)[0]
			l.Add(&n.live, n.id, n, 1)
			if tc.beatAt >= 0 {
				l.Beat(&n.live, tc.beatAt)
			}
			if got := l.Settle(&n.live, tc.at); got != tc.want {
				t.Fatalf("Settle at %v = %v, want %v", tc.at, got, tc.want)
			}
			wantQuiet := 1
			if tc.want {
				wantQuiet = 0
			}
			if quiet := l.Work().Quiet; quiet != wantQuiet {
				t.Fatalf("quiet set %d after Settle = %v", quiet, tc.want)
			}
			// A steady record stays settled whenever it is asked again.
			if tc.want && !l.Settle(&n.live, tc.at+100) {
				t.Fatal("a steady record refused to settle")
			}
		})
	}
}

func TestQuiesceFreezesAtLatest(t *testing.T) {
	cases := []struct {
		name    string
		stampAt sim.Time // -1: no explicit stamp while steady
		tick    sim.Time
		want    sim.Time
	}{
		{"tick after settle", -1, 9, 9},
		{"no tick since settle", -1, 3, 4},
		{"stamp after tick", 12, 9, 12},
		{"stamp before tick", 6, 9, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Ledger[*node]
			n := newNodes(1)[0]
			l.Add(&n.live, n.id, n, 4)
			if !l.Settle(&n.live, 4) {
				t.Fatal("did not settle")
			}
			l.Tick(tc.tick)
			if tc.stampAt >= 0 {
				l.Stamp(&n.live, tc.stampAt)
			}
			if got := l.Last(&n.live); got != tc.want {
				t.Fatalf("steady Last = %v, want %v", got, tc.want)
			}
			l.Quiesce(&n.live, n.id, n)
			l.Tick(100) // a quiet record no longer follows the tick
			if got := l.Last(&n.live); got != tc.want {
				t.Fatalf("quiesced Last = %v, want %v", got, tc.want)
			}
			if l.Work().Quiet != 1 {
				t.Fatalf("quiet set %d after Quiesce, want 1", l.Work().Quiet)
			}
			checkSlots(t, &l)
		})
	}
}

func TestQuietSetSwapDelete(t *testing.T) {
	// Each case settles or drops the listed positions, in order, out of
	// six added records, and checks every remaining slot.
	cases := []struct {
		name   string
		settle []int
		drop   []int
	}{
		{"first", []int{0}, nil},
		{"last", []int{5}, nil},
		{"middle then last", []int{2, 5}, nil},
		{"all", []int{0, 1, 2, 3, 4, 5}, nil},
		{"drops", nil, []int{3, 0, 4}},
		{"mixed", []int{1, 4}, []int{5, 2}},
		{"drop twice", nil, []int{3, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Ledger[*node]
			ns := newNodes(10, 11, 12, 13, 14, 15)
			for _, n := range ns {
				l.Add(&n.live, n.id, n, 0)
			}
			out := map[netmodel.NodeID]bool{}
			for _, i := range tc.settle {
				l.Settle(&ns[i].live, 0)
				out[ns[i].id] = true
				checkSlots(t, &l)
			}
			for _, i := range tc.drop {
				l.Drop(&ns[i].live)
				out[ns[i].id] = true
				checkSlots(t, &l)
			}
			if want := len(ns) - len(out); l.Work().Quiet != want {
				t.Fatalf("quiet set %d, want %d", l.Work().Quiet, want)
			}
			for _, n := range ns {
				if in := n.live.slot >= 0; in == out[n.id] {
					t.Fatalf("node %d: slot %d, taken out %v", n.id, n.live.slot, out[n.id])
				}
			}
		})
	}
}

func TestExpiredVictims(t *testing.T) {
	var l Ledger[*node]
	ns := newNodes(5, 3, 9, 1, 7)
	for i, n := range ns {
		l.Add(&n.live, n.id, n, sim.Time(i)) // 5@0 3@1 9@2 1@3 7@4
	}
	cases := []struct {
		now, timeout sim.Time
		want         []netmodel.NodeID
	}{
		{10, 10, nil}, // nobody silent for more than 10
		{11, 10, []netmodel.NodeID{5}},
		{13, 10, []netmodel.NodeID{3, 5, 9}},
		{100, 10, []netmodel.NodeID{1, 3, 5, 7, 9}},
	}
	for _, tc := range cases {
		if got := ids(l.Expired(tc.now, tc.timeout)); !slices.Equal(got, tc.want) {
			t.Fatalf("Expired(%v, %v) = %v, want %v", tc.now, tc.timeout, got, tc.want)
		}
	}
	// The victim set is fixed when Expired returns: dropping the victims
	// swap-deletes them out of the quiet set, which leaves it as it was.
	victims := l.Expired(13, 10)
	for _, v := range victims {
		l.Drop(&v.live)
	}
	if got := ids(victims); !slices.Equal(got, []netmodel.NodeID{3, 5, 9}) {
		t.Fatalf("victims changed while they were dropped: %v", got)
	}
	if w := l.Work(); w.Scans != 5 || w.Scanned != 25 || w.Quiet != 2 {
		t.Fatalf("work %+v, want 5 scans of 5 records and 2 quiet", w)
	}
	checkSlots(t, &l)
}

func TestGraceStamp(t *testing.T) {
	var l Ledger[*node]
	n := newNodes(4)[0]
	l.Add(&n.live, n.id, n, 0)
	// A master back at 50 grace-stamps its records, so its next scan does
	// not charge the node for the outage.
	l.Stamp(&n.live, 50)
	if v := l.Expired(80, 30); len(v) != 0 {
		t.Fatalf("grace-stamped node expired at 80: %v", ids(v))
	}
	if v := l.Expired(81, 30); len(v) != 1 {
		t.Fatal("grace-stamped node did not expire a full timeout after the stamp")
	}
	// A stamp reaches a steady record too, and Settle accepts it.
	l.Stamp(&n.live, 90)
	if !l.Settle(&n.live, 90) || l.Last(&n.live) != 90 {
		t.Fatalf("stamped record: steady %v, Last %v", n.live.steady, l.Last(&n.live))
	}
	l.Stamp(&n.live, 95)
	if l.Last(&n.live) != 95 {
		t.Fatalf("steady stamp: Last %v, want 95", l.Last(&n.live))
	}
}

// fuzzHB is the tick interval of FuzzLedger's clock; every timeout it draws
// is at least this, as the masters' lazy mode requires.
const fuzzHB = 4

// FuzzLedger applies a random sequence of ledger operations to eight nodes
// and checks Last and Expired against a naive model that stamps every
// record on every beat and scans every record, as the eager heartbeat loop
// does. The clock ticks at least every fuzzHB, and a steady node beats on
// each tick, the promise a caller makes at Settle.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 1, 3, 0, 2, 0, 6, 3, 5, 4, 6, 0, 7, 9})
	f.Add([]byte{0, 2, 1, 2, 3, 2, 5, 7, 6, 6, 2, 2, 4, 2, 7, 0, 6, 9, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type model struct {
			in, steady bool
			last       sim.Time
		}
		var l Ledger[int]
		// IDs out of index order, so victim order is the ledger's doing.
		ns := newNodes(6, 2, 7, 0, 5, 1, 4, 3)
		ms := make([]model, len(ns))
		var now, tick sim.Time
		doTick := func() {
			tick = now
			for i := range ms {
				if ms[i].in && ms[i].steady {
					ms[i].last = now
				}
			}
			l.Tick(now)
		}
		for len(ops) >= 2 {
			op, arg := ops[0]%8, int(ops[1])
			ops = ops[2:]
			i := arg % len(ns)
			n, m := ns[i], &ms[i]
			switch op {
			case 0: // add a node that is not in the ledger
				if !m.in {
					l.Add(&n.live, n.id, i, now)
					*m = model{in: true, last: now}
				}
			case 1: // a quiet node beats
				if m.in && !m.steady {
					l.Beat(&n.live, now)
					m.last = now
				}
			case 2: // grace stamp
				if m.in {
					l.Stamp(&n.live, now)
					m.last = now
				}
			case 3:
				if m.in {
					got := l.Settle(&n.live, now)
					if want := m.steady || m.last == now; got != want {
						t.Fatalf("node %d: Settle = %v, want %v", n.id, got, want)
					}
					m.steady = got
				}
			case 4:
				if m.in {
					l.Quiesce(&n.live, n.id, i)
					m.steady = false
				}
			case 5:
				if m.in {
					l.Drop(&n.live)
					m.in, m.steady = false, false
				}
			case 6: // advance the clock, ticking on the way
				for step := sim.Time(arg%(2*fuzzHB) + 1); step > 0; {
					d := min(step, tick+fuzzHB-now)
					now += d
					step -= d
					if now == tick+fuzzHB {
						doTick()
					}
				}
			case 7:
				timeout := fuzzHB + sim.Time(arg%16)
				var want []netmodel.NodeID
				for j, mj := range ms {
					if mj.in && now-mj.last > timeout {
						want = append(want, ns[j].id)
					}
				}
				slices.Sort(want)
				var got []netmodel.NodeID
				for _, j := range l.Expired(now, timeout) {
					got = append(got, ns[j].id)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("Expired(%v, %v) = %v, eager scan %v", now, timeout, got, want)
				}
			}
			quiet := 0
			for j, mj := range ms {
				if got := l.Last(&ns[j].live); got != mj.last {
					t.Fatalf("node %d: Last = %v, eager %v", ns[j].id, got, mj.last)
				}
				if mj.in && !mj.steady {
					quiet++
				}
			}
			if got := l.Work().Quiet; got != quiet {
				t.Fatalf("quiet set %d, model %d", got, quiet)
			}
			checkSlots(t, &l)
		}
	})
}
