package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hog/internal/disk"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// spreadOracle is spreadAcrossSites before its queues were capped: every
// candidate position is queued at its site, so the greedy loop can run until
// the candidates run out. It reads and dirties nn.siteCounts as the real one
// does, and keeps its queues to itself.
func spreadOracle(nn *Namenode, cands []*DatanodeInfo, skipIx int, n int, targets []netmodel.NodeID) []netmodel.NodeID {
	queues := make([][]int32, len(nn.siteCands))
	remaining := 0
	for i, d := range cands {
		if i == skipIx {
			continue
		}
		queues[d.siteIx] = append(queues[d.siteIx], int32(i))
		remaining++
	}
	heads := make([]int, len(queues))
	for len(targets) < n && remaining > 0 {
		bestSite := -1
		bestCount := int(^uint(0) >> 1)
		bestPos := int32(0)
		for s := range queues {
			if heads[s] >= len(queues[s]) {
				continue
			}
			c := nn.siteCounts[s]
			if c < bestCount || (c == bestCount && queues[s][heads[s]] < bestPos) {
				bestSite, bestCount, bestPos = s, c, queues[s][heads[s]]
			}
		}
		nn.siteCounts[bestSite]++
		heads[bestSite]++
		remaining--
		targets = append(targets, cands[bestPos].ID)
	}
	return targets
}

// newSiteNamenode registers datanodes spread at random over sites sites,
// with IDs 0..nodes-1; placement-only tests need no network or disks.
func newSiteNamenode(r *rand.Rand, sites, nodes int) *Namenode {
	eng := sim.New(1)
	nn := NewNamenode(eng, netmodel.New(eng, netmodel.Config{}), disk.NewTracker(), Config{})
	for id := 0; id < nodes; id++ {
		nn.Register(netmodel.NodeID(id), fmt.Sprintf("wn%d.s%d.org", id, r.Intn(sites)))
	}
	return nn
}

// TestSpreadAcrossSitesMatchesOracle compares the capped spread with the
// uncapped oracle over random candidate lists, site counts, seed counts, n,
// pre-chosen targets and skipped positions.
func TestSpreadAcrossSitesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		nn := newSiteNamenode(r, 1+r.Intn(12), 1+r.Intn(60))
		cands := slices.Clone(nn.datanodes)
		r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		cands = cands[:r.Intn(len(cands)+1)]
		skipIx := -1
		var pre []netmodel.NodeID
		if len(cands) > 0 && r.Intn(2) == 0 {
			skipIx = r.Intn(len(cands))
			pre = append(pre, cands[skipIx].ID)
		}
		n := r.Intn(14)
		seed := make([]int, len(nn.siteCounts))
		for s := range seed {
			seed[s] = r.Intn(4)
		}
		copy(nn.siteCounts, seed)
		want := spreadOracle(nn, cands, skipIx, n, slices.Clone(pre))
		copy(nn.siteCounts, seed)
		got := nn.spreadAcrossSites(cands, skipIx, n, slices.Clone(pre))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d sites, %d candidates, n=%d, skip %d): got %v, oracle %v",
				trial, len(seed), len(cands), n, skipIx, got, want)
		}
	}
}

// TestPlacementScanBoundUnderChurn churns datanodes (deaths, partition-heal
// recoveries, fresh joins) between placement scans and requires each scan to
// visit at most the live datanodes plus the deaths since the previous scan,
// with the placeable list's invariant holding after every step.
func TestPlacementScanBoundUnderChurn(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	eng := sim.New(5)
	dt := disk.NewTracker()
	nn := NewNamenode(eng, netmodel.New(eng, netmodel.Config{}), dt, Config{})
	next := 0
	join := func() {
		id := netmodel.NodeID(next)
		next++
		dt.SetCapacity(id, 10e9)
		nn.Register(id, fmt.Sprintf("wn%d.s%d.org", id, r.Intn(8)))
	}
	for i := 0; i < 400; i++ {
		join()
	}
	check := func(step string) {
		t.Helper()
		if err := nn.CheckLiveList(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	for round := 0; round < 200; round++ {
		deaths := 0
		for k := r.Intn(20); k > 0; k-- {
			switch d := nn.datanodes[r.Intn(len(nn.datanodes))]; {
			case d.Alive:
				if r.Intn(3) == 0 {
					nn.MarkPhysicallyLost(d.ID)
				}
				nn.ForceDead(d.ID)
				deaths++
				check("death")
			case !d.physLost:
				nn.RecoverDatanode(d.ID)
				check("recovery")
			default:
				join()
				check("join")
			}
		}
		live := len(nn.AliveDatanodes())
		before := nn.PlaceWork()
		nn.gatherCandidates(DefaultBlockSize, nil)
		after := nn.PlaceWork()
		if after.Calls != before.Calls+1 {
			t.Fatalf("round %d: %d calls counted for one scan", round, after.Calls-before.Calls)
		}
		if s := after.Scanned - before.Scanned; s > int64(live+deaths) {
			t.Fatalf("round %d: scan visited %d entries, %d live + %d deaths since the last", round, s, live, deaths)
		}
		if g := after.Gathered - before.Gathered; g != int64(live) {
			t.Fatalf("round %d: gathered %d candidates, %d live datanodes with room", round, g, live)
		}
		if len(nn.placeable) != live {
			t.Fatalf("round %d: the scan left %d entries for %d live datanodes", round, len(nn.placeable), live)
		}
		check("scan")
	}
}

// BenchmarkPlacement times placement at mega scale after heavy churn: 10k
// datanodes over 40 sites, every other one dead, choosing ten targets for a
// new write and seven recovery targets for a three-replica block per
// iteration.
func BenchmarkPlacement(b *testing.B) {
	eng := sim.New(1)
	dt := disk.NewTracker()
	nn := NewNamenode(eng, netmodel.New(eng, netmodel.Config{}), dt, Config{Replication: 3})
	for id := netmodel.NodeID(0); id < 10000; id++ {
		dt.SetCapacity(id, 40e9)
		nn.Register(id, fmt.Sprintf("wn%d.s%d.org", id, id%40))
	}
	blk := nn.Block(nn.SeedFile("/bench", DefaultBlockSize, 3).Blocks[0])
	for id := netmodel.NodeID(1); id < 10000; id += 2 {
		if !blk.replicas.Has(id) {
			nn.MarkPhysicallyLost(id)
			nn.ForceDead(id)
		}
	}
	start := nn.PlaceWork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := nn.chooseTargets(netmodel.NodeID(2*(i%5000)), DefaultBlockSize, 10); len(got) != 10 {
			b.Fatalf("write placement chose %d targets", len(got))
		}
		if got := nn.chooseReplicationTargets(blk, 7); len(got) != 7 {
			b.Fatalf("recovery placement chose %d targets", len(got))
		}
	}
	b.StopTimer()
	w := nn.PlaceWork()
	b.ReportMetric(float64(w.Scanned-start.Scanned)/float64(w.Calls-start.Calls), "scanned/call")
}
