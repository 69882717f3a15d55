// Package ordered holds the sorted-slice set behind the simulator's
// deterministic walks, and a map's keys in sorted order. Go map iteration
// order is random, so every set the model walks while it draws randomness,
// fires hooks or emits events is kept in ascending order instead, and
// ranging over it needs no sort.
package ordered

import (
	"cmp"
	"slices"
)

// Set is a set kept as an ascending slice, nil when empty. Ranging over it
// visits its members in order. Membership is a binary search; the sets the
// simulator keeps are short or filled in ascending order (a block's
// replicas, a datanode's inventory, a job's task indices), so an insert is
// mostly an append.
type Set[T cmp.Ordered] []T

// Len returns the number of members.
func (s Set[T]) Len() int { return len(s) }

// Has reports whether x is a member.
func (s Set[T]) Has(x T) bool {
	_, ok := slices.BinarySearch(s, x)
	return ok
}

// Add inserts x and reports whether it was absent.
func (s *Set[T]) Add(x T) bool {
	i, ok := slices.BinarySearch(*s, x)
	if ok {
		return false
	}
	*s = slices.Insert(*s, i, x)
	return true
}

// Remove deletes x and reports whether it was present.
func (s *Set[T]) Remove(x T) bool {
	i, ok := slices.BinarySearch(*s, x)
	if !ok {
		return false
	}
	if len(*s) == 1 {
		*s = nil
	} else {
		*s = slices.Delete(*s, i, i+1)
	}
	return true
}

// Keys returns the keys of m in ascending order.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
