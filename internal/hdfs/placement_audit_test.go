package hdfs_test

// The placement invariants property lives in internal/audit as
// CheckSeededFilePlacement so the unit test here and the chaos runner in
// internal/experiments enforce the same contract. This external test file
// builds the namenode through the exported API only — exactly what the
// audit package sees — plus the export_test.go hooks.

import (
	"slices"
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

// TestReplicatedNowhereFires drops every copy of a block without declaring
// it lost: the audit sweep must report that block, once, and nothing else.
func TestReplicatedNowhereFires(t *testing.T) {
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	dt := disk.NewTracker()
	nn := hdfs.NewNamenode(eng, net, dt, hdfs.Config{Replication: 2})
	sid := net.AddSite("a.edu", 1e9, 1e9)
	for _, host := range []string{"n0.a.edu", "n1.a.edu"} {
		id := net.AddNode(sid, host)
		dt.SetCapacity(id, 1e9)
		nn.Register(id, host)
	}
	f := nn.SeedFile("/in", 2*hdfs.DefaultBlockSize, 2)
	a := audit.New()
	a.Attach(nn, nil)
	a.Sweep(1)
	if a.Count() != 0 {
		t.Fatalf("a fully replicated file raised %v", a.Violations())
	}
	b := nn.Block(f.Blocks[1])
	for _, id := range slices.Clone(b.Replicas()) {
		nn.ForgetReplica(b.ID, id)
	}
	a.Sweep(2)
	if a.Count() != 1 || a.Violations()[0].Rule != "replicated-nowhere" {
		t.Fatalf("want one replicated-nowhere violation, got %d: %v", a.Count(), a.Violations())
	}
}
