package hdfs

import (
	"slices"
	"testing"

	"hog/internal/netmodel"
)

func TestNodeSet(t *testing.T) {
	type op struct {
		add  bool
		id   netmodel.NodeID
		want bool // Add: was absent; Remove: was present
	}
	for _, tc := range []struct {
		name string
		ops  []op
		want []netmodel.NodeID
	}{
		{"empty", nil, nil},
		{"ascending", []op{{true, 1, true}, {true, 2, true}, {true, 3, true}}, []netmodel.NodeID{1, 2, 3}},
		{"descending", []op{{true, 9, true}, {true, 4, true}, {true, 0, true}}, []netmodel.NodeID{0, 4, 9}},
		{"duplicate add", []op{{true, 5, true}, {true, 5, false}}, []netmodel.NodeID{5}},
		{"remove absent", []op{{true, 5, true}, {false, 6, false}}, []netmodel.NodeID{5}},
		{"remove middle", []op{{true, 1, true}, {true, 7, true}, {true, 3, true}, {false, 3, true}}, []netmodel.NodeID{1, 7}},
		{"remove last member", []op{{true, 2, true}, {false, 2, true}, {false, 2, false}}, nil},
		{"negative IDs", []op{{true, 0, true}, {true, -3, true}, {true, -1, true}}, []netmodel.NodeID{-3, -1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s nodeSet
			for _, o := range tc.ops {
				var got bool
				if o.add {
					got = s.Add(o.id)
				} else {
					got = s.Remove(o.id)
				}
				if got != o.want {
					t.Fatalf("add=%v %d returned %v, want %v", o.add, o.id, got, o.want)
				}
			}
			if !slices.Equal(s, tc.want) || (tc.want == nil) != (s == nil) {
				t.Fatalf("set = %#v, want %#v", s, tc.want)
			}
			if s.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(tc.want))
			}
			for _, id := range tc.want {
				if !s.Has(id) {
					t.Fatalf("Has(%d) = false for a member", id)
				}
			}
		})
	}
}

// FuzzNodeSet drives a nodeSet and a map model with the same operations:
// each input byte is one Add (high bit clear) or Remove (high bit set) of a
// node ID in [0, 16), so members collide often. After every operation the
// set must agree with the model on the result, Len and Has, and walk its
// members in strictly ascending order.
func FuzzNodeSet(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0x81, 1, 0x83})
	f.Add([]byte{5, 5, 0x85, 0x85})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s nodeSet
		model := map[netmodel.NodeID]bool{}
		for _, op := range ops {
			id := netmodel.NodeID(op & 0x0f)
			var got, want bool
			if op&0x80 == 0 {
				got, want = s.Add(id), !model[id]
				model[id] = true
			} else {
				got, want = s.Remove(id), model[id]
				delete(model, id)
			}
			if got != want {
				t.Fatalf("op %#x returned %v, model %v", op, got, want)
			}
			if s.Len() != len(model) || (len(model) == 0) != (s == nil) {
				t.Fatalf("Len %d (nil %v), model %d", s.Len(), s == nil, len(model))
			}
			for i, m := range s {
				if i > 0 && s[i-1] >= m {
					t.Fatalf("walk not ascending: %v", s)
				}
				if !model[m] {
					t.Fatalf("walk visits %d, not in the model", m)
				}
			}
			for probe := netmodel.NodeID(0); probe < 16; probe++ {
				if s.Has(probe) != model[probe] {
					t.Fatalf("Has(%d) = %v, model %v", probe, s.Has(probe), model[probe])
				}
			}
		}
	})
}
