package hdfs_test

// The placement invariants property lives in internal/audit as
// CheckSeededFilePlacement so the unit test here and the chaos runner in
// internal/experiments enforce the same contract. This external test file
// builds the namenode through the exported API only — exactly what the
// audit package sees.

import (
	"testing"
	"testing/quick"

	"hog/internal/audit"
	"hog/internal/disk"
	"hog/internal/hdfs"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// Property: a freshly seeded file satisfies every placement invariant — full
// replication on distinct alive nodes, and cross-site spread whenever the
// replication factor allows it — for any factor in [1,10] and any seed.
func TestPlacementInvariantsProperty(t *testing.T) {
	domains := []string{"fnal.gov", "wc1-fnal.gov", "ucsd.edu", "aglt2.org", "mit.edu"}
	f := func(replRaw, seedRaw uint8) bool {
		repl := int(replRaw)%10 + 1
		eng := sim.New(int64(seedRaw) + 100)
		net := netmodel.New(eng, netmodel.Config{})
		dt := disk.NewTracker()
		nn := hdfs.NewNamenode(eng, net, dt, hdfs.Config{Replication: repl})
		for _, dom := range domains {
			sid := net.AddSite(dom, 300e6, 300e6)
			for i := 0; i < 3; i++ {
				id := net.AddNode(sid, "wn."+dom)
				dt.SetCapacity(id, 10e9)
				nn.Register(id, "wn."+dom)
			}
		}
		nn.Start()
		nn.SeedFile("/p", hdfs.DefaultBlockSize, repl)
		if err := audit.CheckSeededFilePlacement(nn, "/p"); err != nil {
			t.Logf("repl=%d seed=%d: %v", repl, seedRaw, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
