package ordered

import (
	"slices"
	"testing"
)

// The set's tests are in internal/hdfs (nodeset_test.go), beside the
// replica sets that are its busiest user.

func TestKeys(t *testing.T) {
	if got := Keys(map[string]int{}); len(got) != 0 {
		t.Fatalf("Keys of an empty map = %v", got)
	}
	got := Keys(map[string]bool{"fifo": true, "fair": false, "capacity": true})
	if want := []string{"capacity", "fair", "fifo"}; !slices.Equal(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if got := Keys(map[int]struct{}{3: {}, -1: {}, 2: {}}); !slices.Equal(got, []int{-1, 2, 3}) {
		t.Fatalf("Keys = %v, want [-1 2 3]", got)
	}
}
