package hdfs

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hog/internal/disk"
	"hog/internal/netmodel"
	"hog/internal/ordered"
	"hog/internal/sim"
)

// spreadOracle is spreadAcrossSites before its queues were capped, over
// datanode records: every candidate position is queued at its site, so the
// greedy loop can run until the candidates run out. It reads and dirties
// nn.siteCounts as the real one does, finds a node's site through the site
// name, and keeps its queues to itself.
func spreadOracle(nn *Namenode, cands []*DatanodeInfo, skipIx int, n int, targets []netmodel.NodeID) []netmodel.NodeID {
	queues := make([][]int32, len(nn.siteCands))
	remaining := 0
	for i, d := range cands {
		if i == skipIx {
			continue
		}
		s := nn.siteIx[d.Site]
		queues[s] = append(queues[s], int32(i))
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

// TestSpreadAcrossSitesMatchesOracle compares the capped spread over
// candidate IDs with the uncapped oracle over the same candidates' records,
// over random candidate lists, site counts, seed counts, n, pre-chosen
// targets and skipped positions.
func TestSpreadAcrossSitesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		nn := newSiteNamenode(r, 1+r.Intn(12), 1+r.Intn(60))
		cands := slices.Clone(nn.datanodes)
		r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		cands = cands[:r.Intn(len(cands)+1)]
		ids := make([]int32, len(cands))
		for i, d := range cands {
			ids[i] = int32(d.ID)
		}
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
		got := nn.spreadAcrossSites(ids, skipIx, n, slices.Clone(pre))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d sites, %d candidates, n=%d, skip %d): got %v, oracle %v",
				trial, len(seed), len(cands), n, skipIx, got, want)
		}
	}
}

// placeOracle is placement as it was before its dense tables: a list of
// datanode records in ID order, compacted as the scan passes dead ones; the
// recovering block's holders stamped with a fresh placement epoch up front;
// the disk tracker's Free called per candidate; the candidates shuffled
// with rand.Shuffle through the engine's *rand.Rand; and the three
// policies' target rules over the records. It wraps a namenode whose own
// placement must not run (the oracle keeps its own list), and counts its
// scans into that namenode's PlaceWork.
type placeOracle struct {
	nn        *Namenode
	placeable []*DatanodeInfo
	marks     map[netmodel.NodeID]uint64
	epoch     uint64
	cands     []*DatanodeInfo
}

func (o *placeOracle) insert(d *DatanodeInfo) {
	i, found := slices.BinarySearchFunc(o.placeable, d.ID, func(e *DatanodeInfo, id netmodel.NodeID) int {
		return cmp.Compare(e.ID, id)
	})
	if !found {
		o.placeable = slices.Insert(o.placeable, i, d)
	}
}

func (o *placeOracle) register(id netmodel.NodeID, host string) {
	o.insert(o.nn.Register(id, host))
}

func (o *placeOracle) recoverDatanode(id netmodel.NodeID) {
	o.nn.RecoverDatanode(id)
	if d := o.nn.Datanode(id); d != nil && d.Alive {
		o.insert(d)
	}
}

func (o *placeOracle) gather(size float64, b *BlockInfo) []*DatanodeInfo {
	nn := o.nn
	o.epoch++
	if b != nil {
		for _, set := range [2][]netmodel.NodeID{b.replicas, b.pending} {
			for _, id := range set {
				if nn.Datanode(id) != nil {
					o.marks[id] = o.epoch
				}
			}
		}
	}
	cands := o.cands[:0]
	list := o.placeable
	kept := 0
	for i, d := range list {
		if !d.Alive {
			continue
		}
		if kept != i {
			list[kept] = d
		}
		kept++
		if d.gray || o.marks[d.ID] == o.epoch {
			continue
		}
		if nn.disk.Free(d.ID) >= size {
			cands = append(cands, d)
		}
	}
	clear(list[kept:])
	o.placeable = list[:kept]
	nn.placeWork.Calls++
	nn.placeWork.Scanned += int64(len(list))
	nn.placeWork.Gathered += int64(len(cands))
	o.cands = cands
	nn.eng.Rand().Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands
}

func (o *placeOracle) writerFirst(writer netmodel.NodeID, size float64) ([]*DatanodeInfo, []netmodel.NodeID, int) {
	cands := o.gather(size, nil)
	if w := o.nn.Datanode(writer); w != nil && w.Alive && o.nn.disk.Free(writer) >= size {
		for i := range cands {
			if cands[i].ID == writer {
				return cands, []netmodel.NodeID{writer}, i
			}
		}
	}
	return cands, nil, -1
}

// firstN takes the first n candidates after skipping skipIx.
func firstN(cands []*DatanodeInfo, skipIx, n int, targets []netmodel.NodeID) []netmodel.NodeID {
	for i := 0; len(targets) < n && i < len(cands); i++ {
		if i != skipIx {
			targets = append(targets, cands[i].ID)
		}
	}
	return targets
}

func (o *placeOracle) chooseTargets(writer netmodel.NodeID, size float64, n int) []netmodel.NodeID {
	nn := o.nn
	if n <= 0 {
		return nil
	}
	switch nn.place.Name() {
	case PlacementGrid:
		cands, targets, skipIx := o.writerFirst(writer, size)
		if len(cands) == 0 {
			return nil
		}
		clear(nn.siteCounts)
		for _, id := range targets {
			nn.siteCounts[nn.siteIx[nn.Datanode(id).Site]]++
		}
		return spreadOracle(nn, cands, skipIx, n, targets)
	case PlacementFlat:
		cands, targets, skipIx := o.writerFirst(writer, size)
		return firstN(cands, skipIx, n, targets)
	default:
		return firstN(o.gather(size, nil), -1, n, nil)
	}
}

func (o *placeOracle) replicationTargets(b *BlockInfo, n int) []netmodel.NodeID {
	nn := o.nn
	if n <= 0 {
		return nil
	}
	cands := o.gather(b.Size, b)
	if nn.place.Name() != PlacementGrid {
		return firstN(cands, -1, n, nil)
	}
	if len(cands) == 0 {
		return nil
	}
	clear(nn.siteCounts)
	for _, set := range [2][]netmodel.NodeID{b.replicas, b.pending} {
		for _, id := range set {
			if d := nn.Datanode(id); d != nil {
				nn.siteCounts[nn.siteIx[d.Site]]++
			}
		}
	}
	return spreadOracle(nn, cands, -1, n, nil)
}

// TestPlacementMatchesOracle drives two namenodes built alike through the
// same seeded churn — joins (some with no disk capacity registered), deaths
// with and without the hardware lost, partition-heal recoveries, gray
// flags set and cleared, disks filled to under a block of free space and
// drained again — one placing through the dense tables, the other through
// placeOracle. After every placement call — new writes from live, dead,
// gray, full and unregistered writers, and recoveries of blocks with
// replica and pending sets drawn from live, dead and unregistered IDs, at
// sizes of zero, half a block, a block and two blocks — both must return
// the same targets, have drawn the same number of values from their
// engines, and count the same scan work. It runs under each placement
// policy.
func TestPlacementMatchesOracle(t *testing.T) {
	for _, policy := range PlacementPolicyNames() {
		t.Run(policy, func(t *testing.T) {
			const seed = 9
			r := rand.New(rand.NewSource(seed))
			cfg := Config{PlacementPolicy: policy}
			engA, engB := sim.New(seed), sim.New(seed)
			dtA, dtB := disk.NewTracker(), disk.NewTracker()
			nn := NewNamenode(engA, netmodel.New(engA, netmodel.Config{}), dtA, cfg)
			o := &placeOracle{nn: NewNamenode(engB, netmodel.New(engB, netmodel.Config{}), dtB, cfg), marks: map[netmodel.NodeID]uint64{}}
			both := func(f func(nn *Namenode, dt *disk.Tracker)) {
				f(nn, dtA)
				f(o.nn, dtB)
			}
			next := netmodel.NodeID(0)
			join := func() {
				id := next
				next++
				if r.Intn(10) != 0 {
					both(func(_ *Namenode, dt *disk.Tracker) { dt.SetCapacity(id, 4*DefaultBlockSize) })
				}
				host := fmt.Sprintf("wn%d.s%d.org", id, r.Intn(6))
				nn.Register(id, host)
				o.register(id, host)
			}
			for i := 0; i < 120; i++ {
				join()
			}
			anyID := func() netmodel.NodeID { return netmodel.NodeID(r.Intn(int(next) + 3)) }
			sizes := []float64{0, DefaultBlockSize / 2, DefaultBlockSize, 2 * DefaultBlockSize}
			set := func() ordered.Set[netmodel.NodeID] {
				var s ordered.Set[netmodel.NodeID]
				for k := r.Intn(5); k > 0; k-- {
					s.Add(anyID())
				}
				return s
			}
			calls, excluded := 0, 0
			for round := 0; round < 1500; round++ {
				switch op := r.Intn(10); {
				case op == 0:
					join()
				case op <= 2:
					id := anyID()
					if r.Intn(3) == 0 {
						both(func(nn *Namenode, _ *disk.Tracker) { nn.MarkPhysicallyLost(id) })
					}
					both(func(nn *Namenode, _ *disk.Tracker) { nn.ForceDead(id) })
				case op == 3:
					id := anyID()
					nn.RecoverDatanode(id)
					o.recoverDatanode(id)
				case op == 4:
					id, gray := anyID(), r.Intn(2) == 0
					both(func(nn *Namenode, _ *disk.Tracker) { nn.SetNodeGray(id, gray) })
				case op == 5:
					// Leave the node under one block of free space, or at
					// exactly one block.
					id, left := anyID(), sizes[r.Intn(3)]
					both(func(_ *Namenode, dt *disk.Tracker) {
						if f := dt.Free(id); f > left {
							dt.Reserve(id, f-left)
						}
					})
				case op == 6:
					id, bytes := anyID(), sizes[r.Intn(len(sizes))]
					both(func(_ *Namenode, dt *disk.Tracker) { dt.Release(id, bytes) })
				default:
					var got, want []netmodel.NodeID
					n := r.Intn(12)
					if r.Intn(2) == 0 {
						writer, size := anyID(), sizes[r.Intn(len(sizes))]
						got = nn.chooseTargets(writer, size, n)
						want = o.chooseTargets(writer, size, n)
					} else {
						b := &BlockInfo{Size: sizes[r.Intn(len(sizes))], replicas: set(), pending: set()}
						for _, id := range b.replicas {
							b.pending.Remove(id)
						}
						excluded += b.replicas.Len() + b.pending.Len()
						got = nn.chooseReplicationTargets(b, n)
						want = o.replicationTargets(b, n)
					}
					calls++
					if !slices.Equal(got, want) {
						t.Fatalf("round %d: targets %v, oracle %v", round, got, want)
					}
					if a, b := engA.RandDraws(), engB.RandDraws(); a != b {
						t.Fatalf("round %d: %d draws, oracle %d", round, a, b)
					}
					if a, b := nn.PlaceWork(), o.nn.PlaceWork(); a != b {
						t.Fatalf("round %d: place work %+v, oracle %+v", round, a, b)
					}
				}
				if err := nn.CheckLiveList(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if w := nn.PlaceWork(); calls < 400 || excluded < 400 || w.Gathered < 10000 || w.Scanned == w.Gathered {
				t.Fatalf("%d calls excluding %d holders, place work %+v: the churn exercised too little", calls, excluded, w)
			}
		})
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
			t.Fatalf("round %d: the scan left %d IDs for %d live datanodes", round, len(nn.placeable), live)
		}
		check("scan")
	}
}

// BenchmarkPlacement times placement at mega scale after heavy churn: 10k
// datanodes over 40 sites, every other one dead, choosing ten targets for a
// new write and seven recovery targets for a three-replica block per
// iteration. In the short arm every tenth live datanode has under one block
// of free space, so the scan computes free space for those instead of
// reading the room flag. ns/candidate is the time per candidate gathered.
func BenchmarkPlacement(b *testing.B) {
	for _, arm := range []struct {
		name  string
		short int // every short-th live datanode is short of room; 0 for none
	}{{"roomy", 0}, {"short", 10}} {
		b.Run(arm.name, func(b *testing.B) {
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
			if arm.short > 0 {
				for i, d := range nn.AliveDatanodes() {
					if i%arm.short == 0 {
						dt.Reserve(d.ID, dt.Free(d.ID)-DefaultBlockSize/2)
					}
				}
			}
			start := nn.PlaceWork()
			b.ReportAllocs()
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
			b.ReportMetric(float64(b.Elapsed()/time.Nanosecond)/float64(w.Gathered-start.Gathered), "ns/candidate")
		})
	}
}
