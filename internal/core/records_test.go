package core

import (
	"testing"
	"unsafe"

	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
)

// TestPerNodeRecordSizes pins the size of the records every layer keeps per
// node on 64-bit platforms. No layer frees them when a node dies, so a
// mega-scale run retains one of each for every node it ever provisioned,
// about 20k; a field that grows one shows here first. A deliberate change
// updates the figure and says why.
func TestPerNodeRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"grid.Node", unsafe.Sizeof(grid.Node{}), 72},
		{"hdfs.DatanodeInfo", unsafe.Sizeof(hdfs.DatanodeInfo{}), 80},
		{"mapred.TaskTracker", unsafe.Sizeof(mapred.TaskTracker{}), 96},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
