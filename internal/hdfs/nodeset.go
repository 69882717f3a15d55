package hdfs

import (
	"slices"

	"hog/internal/netmodel"
)

// nodeSet is a set of datanode IDs kept as an ascending slice, nil when
// empty. A block's replica, pending and corrupt sets hold about as many
// entries as the replication factor, so a binary search over a short slice
// is cheaper than a map, and ranging over the set visits its members in ID
// order: every walk that draws randomness or fires a hook is deterministic
// without a sort.
type nodeSet []netmodel.NodeID

// Len returns the number of members.
func (s nodeSet) Len() int { return len(s) }

// Has reports whether id is a member.
func (s nodeSet) Has(id netmodel.NodeID) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

// Add inserts id and reports whether it was absent.
func (s *nodeSet) Add(id netmodel.NodeID) bool {
	i, ok := slices.BinarySearch(*s, id)
	if ok {
		return false
	}
	*s = slices.Insert(*s, i, id)
	return true
}

// Remove deletes id and reports whether it was present.
func (s *nodeSet) Remove(id netmodel.NodeID) bool {
	i, ok := slices.BinarySearch(*s, id)
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
