package hdfs

import (
	"cmp"
	"slices"
	"testing"

	"hog/internal/netmodel"
	"hog/internal/ordered"
)

// The tests of ordered.Set live here, beside its busiest user: a block's
// replica, pending and corrupt sets are ordered.Set[netmodel.NodeID], an
// int32-based ID. Each case also runs over int, the element type of the
// scheduler's task-index sets.

type setOp struct {
	add  bool
	id   int
	want bool // Add: was absent; Remove: was present
}

// applySetOps runs ops on an empty set of T and checks each result and the
// final members against want.
func applySetOps[T cmp.Ordered](t *testing.T, conv func(int) T, ops []setOp, want []int) {
	t.Helper()
	var s ordered.Set[T]
	for _, o := range ops {
		var got bool
		if o.add {
			got = s.Add(conv(o.id))
		} else {
			got = s.Remove(conv(o.id))
		}
		if got != o.want {
			t.Fatalf("%T: add=%v %d returned %v, want %v", s, o.add, o.id, got, o.want)
		}
	}
	var w ordered.Set[T]
	for _, id := range want {
		w = append(w, conv(id))
	}
	if !slices.Equal(s, w) || (want == nil) != (s == nil) {
		t.Fatalf("%T = %#v, want %#v", s, s, w)
	}
	if s.Len() != len(want) {
		t.Fatalf("%T: Len = %d, want %d", s, s.Len(), len(want))
	}
	for _, m := range w {
		if !s.Has(m) {
			t.Fatalf("%T: Has(%v) = false for a member", s, m)
		}
	}
}

func TestNodeSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []setOp
		want []int
	}{
		{"empty", nil, nil},
		{"ascending", []setOp{{true, 1, true}, {true, 2, true}, {true, 3, true}}, []int{1, 2, 3}},
		{"descending", []setOp{{true, 9, true}, {true, 4, true}, {true, 0, true}}, []int{0, 4, 9}},
		{"duplicate add", []setOp{{true, 5, true}, {true, 5, false}}, []int{5}},
		{"remove absent", []setOp{{true, 5, true}, {false, 6, false}}, []int{5}},
		{"remove middle", []setOp{{true, 1, true}, {true, 7, true}, {true, 3, true}, {false, 3, true}}, []int{1, 7}},
		{"remove last member", []setOp{{true, 2, true}, {false, 2, true}, {false, 2, false}}, nil},
		{"negative IDs", []setOp{{true, 0, true}, {true, -3, true}, {true, -1, true}}, []int{-3, -1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			applySetOps(t, func(i int) netmodel.NodeID { return netmodel.NodeID(i) }, tc.ops, tc.want)
			applySetOps(t, func(i int) int { return i }, tc.ops, tc.want)
		})
	}
}

// checkSetOp applies one fuzz operation to s and to the map model and
// checks the result, Len, Has over the whole key range, and that the walk
// is strictly ascending and visits only members of the model.
func checkSetOp[T cmp.Ordered](t *testing.T, s *ordered.Set[T], model map[T]bool, op byte, conv func(byte) T) {
	t.Helper()
	x := conv(op & 0x0f)
	var got, want bool
	if op&0x80 == 0 {
		got, want = s.Add(x), !model[x]
		model[x] = true
	} else {
		got, want = s.Remove(x), model[x]
		delete(model, x)
	}
	if got != want {
		t.Fatalf("%T: op %#x returned %v, model %v", *s, op, got, want)
	}
	if s.Len() != len(model) || (len(model) == 0) != (*s == nil) {
		t.Fatalf("%T: Len %d (nil %v), model %d", *s, s.Len(), *s == nil, len(model))
	}
	for i, m := range *s {
		if i > 0 && (*s)[i-1] >= m {
			t.Fatalf("%T: walk not ascending: %v", *s, *s)
		}
		if !model[m] {
			t.Fatalf("%T: walk visits %v, not in the model", *s, m)
		}
	}
	for probe := byte(0); probe < 16; probe++ {
		if p := conv(probe); s.Has(p) != model[p] {
			t.Fatalf("%T: Has(%v) = %v, model %v", *s, p, s.Has(p), model[p])
		}
	}
}

// FuzzNodeSet drives an ordered.Set of node IDs and one of ints, each
// beside a map model, with the same operations: each input byte is one Add
// (high bit clear) or Remove (high bit set) of a member in [0, 16), so
// members collide often. The int set maps the byte to a negative value, so
// its walk order is the reverse of the node set's. After every operation
// each set must agree with its model on the result, Len and Has, and walk
// its members in strictly ascending order.
func FuzzNodeSet(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0x81, 1, 0x83})
	f.Add([]byte{5, 5, 0x85, 0x85})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var nodes ordered.Set[netmodel.NodeID]
		var ints ordered.Set[int]
		nodeModel, intModel := map[netmodel.NodeID]bool{}, map[int]bool{}
		for _, op := range ops {
			checkSetOp(t, &nodes, nodeModel, op, func(b byte) netmodel.NodeID { return netmodel.NodeID(b) })
			checkSetOp(t, &ints, intModel, op, func(b byte) int { return -int(b) })
		}
	})
}
