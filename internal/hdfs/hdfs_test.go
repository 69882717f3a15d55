package hdfs

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hog/internal/disk"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// harness bundles a namenode over a 5-site network with nodesPerSite
// registered datanodes of 10 GB each.
type harness struct {
	eng  *sim.Engine
	net  *netmodel.Network
	dt   *disk.Tracker
	nn   *Namenode
	all  []netmodel.NodeID
	site map[netmodel.NodeID]string
}

var testDomains = []string{"fnal.gov", "wc1-fnal.gov", "ucsd.edu", "aglt2.org", "mit.edu"}

func newHarness(t *testing.T, seed int64, nodesPerSite int, cfg Config) *harness {
	t.Helper()
	h := &harness{
		eng:  sim.New(seed),
		site: make(map[netmodel.NodeID]string),
	}
	h.net = netmodel.New(h.eng, netmodel.Config{})
	h.dt = disk.NewTracker()
	h.nn = NewNamenode(h.eng, h.net, h.dt, cfg)
	for _, dom := range testDomains {
		sid := h.net.AddSite(dom, 300e6, 300e6)
		for i := 0; i < nodesPerSite; i++ {
			host := "wn." + dom
			id := h.net.AddNode(sid, host)
			h.dt.SetCapacity(id, 10e9)
			h.nn.Register(id)
			h.all = append(h.all, id)
			h.site[id] = dom
		}
	}
	h.nn.Start()
	return h
}

// heartbeatAll keeps every currently-alive datanode fresh via a ticker.
func (h *harness) heartbeatAll(except map[netmodel.NodeID]bool) *sim.Ticker {
	return h.eng.Every(3*sim.Second, func() {
		for _, id := range h.all {
			if except == nil || !except[id] {
				h.nn.HeartbeatDatanode(h.nn.Datanode(id))
			}
		}
	})
}

func TestSeedFilePlacesReplicas(t *testing.T) {
	h := newHarness(t, 1, 4, Config{Replication: 3, PlacementPolicy: PlacementFlat})
	f := h.nn.SeedFile("/in/f1", 5*DefaultBlockSize, 0)
	if len(f.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(f.Blocks))
	}
	for _, bid := range f.Blocks {
		b := h.nn.Block(bid)
		if b.NumReplicas() != 3 {
			t.Fatalf("block %d has %d replicas, want 3", bid, b.NumReplicas())
		}
	}
}

func TestSeedFilePartialBlock(t *testing.T) {
	h := newHarness(t, 1, 2, Config{PlacementPolicy: PlacementFlat})
	f := h.nn.SeedFile("/in/small", 1.5*DefaultBlockSize, 3)
	if len(f.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(f.Blocks))
	}
	if got := h.nn.Block(f.Blocks[1]).Size; got != 0.5*DefaultBlockSize {
		t.Fatalf("tail block size = %.0f, want half block", got)
	}
}

func TestSiteAwareSpreadsAcrossSites(t *testing.T) {
	h := newHarness(t, 2, 4, Config{Replication: 10})
	f := h.nn.SeedFile("/in/spread", DefaultBlockSize, 10)
	b := h.nn.Block(f.Blocks[0])
	if b.NumReplicas() != 10 {
		t.Fatalf("replicas = %d, want 10", b.NumReplicas())
	}
	if sites := h.nn.SiteCount(b); sites != 5 {
		t.Fatalf("10 replicas cover %d sites, want all 5", sites)
	}
	// Per-site balance: 10 replicas over 5 sites = exactly 2 each.
	perSite := map[string]int{}
	for _, id := range b.Replicas() {
		perSite[h.site[id]]++
	}
	for s, c := range perSite {
		if c != 2 {
			t.Fatalf("site %s has %d replicas, want 2 (%v)", s, c, perSite)
		}
	}
}

func TestSiteAwareMinimumTwoSites(t *testing.T) {
	h := newHarness(t, 3, 4, Config{Replication: 2})
	for i := 0; i < 10; i++ {
		f := h.nn.SeedFile("/in/two"+string(rune('a'+i)), DefaultBlockSize, 2)
		b := h.nn.Block(f.Blocks[0])
		if sites := h.nn.SiteCount(b); sites < 2 {
			t.Fatalf("2 replicas on %d sites, want 2 (site failure domain)", sites)
		}
	}
}

func TestWriteFilePipelineAndLocality(t *testing.T) {
	h := newHarness(t, 4, 4, Config{Replication: 3})
	tk := h.heartbeatAll(nil)
	defer tk.Stop()
	writer := h.all[0]
	doneSkipped := -1
	h.nn.WriteFile(writer, "/out/r1", 2*DefaultBlockSize, 3, func(sk int) { doneSkipped = sk })
	h.eng.RunUntil(10 * sim.Minute)
	if doneSkipped != 0 {
		t.Fatalf("write skipped %d replicas, want 0", doneSkipped)
	}
	f := h.nn.File("/out/r1")
	for _, bid := range f.Blocks {
		b := h.nn.Block(bid)
		if b.NumReplicas() != 3 {
			t.Fatalf("block %d replicas = %d, want 3", bid, b.NumReplicas())
		}
		if !b.replicas.Has(writer) {
			t.Fatal("first replica should land on the writing node")
		}
	}
	// Disk accounting: writer holds 2 blocks.
	if got := h.dt.Used(writer); got != 2*DefaultBlockSize {
		t.Fatalf("writer disk used = %.0f, want 2 blocks", got)
	}
}

func TestWriteFileTakesTime(t *testing.T) {
	h := newHarness(t, 5, 4, Config{Replication: 3, PlacementPolicy: PlacementFlat})
	tk := h.heartbeatAll(nil)
	defer tk.Stop()
	var doneAt sim.Time
	h.nn.WriteFile(h.all[0], "/out/timed", DefaultBlockSize, 3, func(int) { doneAt = h.eng.Now() })
	h.eng.RunUntil(10 * sim.Minute)
	if doneAt == 0 {
		t.Fatal("write never completed")
	}
	// 64 MB over at least one WAN hop (10 MB/s default flow cap on 12.5)
	// must take seconds, not microseconds.
	if doneAt < sim.Second {
		t.Fatalf("write completed at %v, implausibly fast", doneAt)
	}
}

func TestReadSourceLocalityOrder(t *testing.T) {
	h := newHarness(t, 6, 4, Config{Replication: 3})
	f := h.nn.SeedFile("/in/read", DefaultBlockSize, 3)
	b := h.nn.Block(f.Blocks[0])
	reps := b.Replicas()
	// Reader = a replica holder: local.
	if src, local, ok := h.nn.ReadSource(reps[0], b.ID, skipNone); !ok || !local || src != reps[0] {
		t.Fatalf("local read not detected: src=%d local=%v ok=%v", src, local, ok)
	}
	// Reader on same site as a replica but not holding one: same-site remote.
	var sameSiteReader netmodel.NodeID = -1
	holder := map[netmodel.NodeID]bool{}
	for _, r := range reps {
		holder[r] = true
	}
	for _, id := range h.all {
		if !holder[id] && h.siteHasReplica(b, h.site[id]) {
			sameSiteReader = id
			break
		}
	}
	if sameSiteReader >= 0 {
		src, local, ok := h.nn.ReadSource(sameSiteReader, b.ID, skipNone)
		if !ok || local {
			t.Fatalf("same-site read wrong: local=%v ok=%v", local, ok)
		}
		if h.site[src] != h.site[sameSiteReader] {
			t.Fatalf("read source site %s, want reader's site %s", h.site[src], h.site[sameSiteReader])
		}
		// Skipping the reader's site falls through to the other sites.
		inSite := func(id netmodel.NodeID) bool { return h.site[id] == h.site[sameSiteReader] }
		if src, _, ok := h.nn.ReadSource(sameSiteReader, b.ID, inSite); !ok || inSite(src) {
			t.Fatalf("read source %d (ok=%v) in the skipped site %s", src, ok, h.site[sameSiteReader])
		}
	}
}

func skipNone(netmodel.NodeID) bool { return false }

func (h *harness) siteHasReplica(b *BlockInfo, site string) bool {
	for _, id := range b.Replicas() {
		if h.site[id] == site {
			return true
		}
	}
	return false
}

func TestReadBlockMissing(t *testing.T) {
	h := newHarness(t, 7, 2, Config{PlacementPolicy: PlacementFlat})
	got := true
	h.nn.ReadBlock(h.all[0], BlockID(9999), func(ok bool) { got = ok })
	h.eng.RunUntil(sim.Minute)
	if got {
		t.Fatal("read of unknown block should fail")
	}
}

func TestDeadDatanodeTriggersReplication(t *testing.T) {
	h := newHarness(t, 8, 4, Config{Replication: 3, DeadTimeout: 30 * sim.Second})
	f := h.nn.SeedFile("/in/recover", 4*DefaultBlockSize, 3)
	victim := h.nn.Block(f.Blocks[0]).Replicas()[0]
	dead := map[netmodel.NodeID]bool{victim: true}
	tk := h.heartbeatAll(dead)
	defer tk.Stop()
	h.eng.RunUntil(30 * sim.Minute)
	if d := h.nn.Datanode(victim); d.Alive {
		t.Fatal("victim not declared dead after heartbeat timeout")
	}
	if h.nn.Stats().DatanodesDead != 1 {
		t.Fatalf("DatanodesDead = %d, want 1", h.nn.Stats().DatanodesDead)
	}
	for _, bid := range f.Blocks {
		b := h.nn.Block(bid)
		if b.NumReplicas() != 3 {
			t.Fatalf("block %d replicas = %d after recovery, want 3", bid, b.NumReplicas())
		}
		if b.replicas.Has(victim) {
			t.Fatal("dead node still listed as replica")
		}
	}
	if h.nn.Stats().ReplicationsDone == 0 {
		t.Fatal("no re-replications recorded")
	}
}

func TestDeadTimeoutConfigMatters(t *testing.T) {
	detectAt := func(timeout sim.Time) sim.Time {
		h := newHarness(t, 9, 2, Config{Replication: 3, DeadTimeout: timeout, PlacementPolicy: PlacementFlat})
		h.nn.SeedFile("/in/t", DefaultBlockSize, 3)
		var deadAt sim.Time
		h.nn.OnDatanodeDead = func(netmodel.NodeID) { deadAt = h.eng.Now() }
		dead := map[netmodel.NodeID]bool{h.all[0]: true}
		tk := h.heartbeatAll(dead)
		h.nn.ForceDead(h.all[0]) // ensure the node has no pending heartbeat; use explicit path
		tk.Stop()
		return deadAt
	}
	// Direct comparison via the scan path instead: HOG's 30 s timeout must
	// detect far sooner than the traditional 900 s.
	hogDetect := detectDeadAfter(t, 30*sim.Second)
	stockDetect := detectDeadAfter(t, 900*sim.Second)
	if hogDetect >= stockDetect {
		t.Fatalf("HOG detect %v !< stock detect %v", hogDetect, stockDetect)
	}
	if hogDetect > 60*sim.Second {
		t.Fatalf("HOG detect %v, want <= ~35s", hogDetect)
	}
	_ = detectAt
}

func detectDeadAfter(t *testing.T, timeout sim.Time) sim.Time {
	t.Helper()
	h := newHarness(t, 10, 2, Config{Replication: 3, DeadTimeout: timeout, PlacementPolicy: PlacementFlat})
	var deadAt sim.Time = -1
	h.nn.OnDatanodeDead = func(netmodel.NodeID) {
		if deadAt < 0 {
			deadAt = h.eng.Now()
		}
	}
	dead := map[netmodel.NodeID]bool{h.all[0]: true}
	tk := h.heartbeatAll(dead)
	defer tk.Stop()
	h.eng.RunUntil(2000 * sim.Second)
	if deadAt < 0 {
		t.Fatalf("node never declared dead with timeout %v", timeout)
	}
	return deadAt
}

func TestBlockLossWhenAllReplicasDie(t *testing.T) {
	h := newHarness(t, 11, 2, Config{Replication: 2, DeadTimeout: 30 * sim.Second})
	f := h.nn.SeedFile("/in/doomed", DefaultBlockSize, 2)
	b := h.nn.Block(f.Blocks[0])
	lost := 0
	h.nn.OnBlockLost = func(*BlockInfo) { lost++ }
	for _, id := range slices.Clone(b.Replicas()) { // ForceDead edits the set
		h.nn.ForceDead(id)
	}
	if !b.Lost() || lost != 1 {
		t.Fatalf("block lost=%v lostCalls=%d, want true/1", b.Lost(), lost)
	}
	if h.nn.Stats().BlocksLost != 1 {
		t.Fatalf("BlocksLost = %d, want 1", h.nn.Stats().BlocksLost)
	}
	if _, _, ok := h.nn.ReadSource(h.all[3], b.ID, skipNone); ok {
		t.Fatal("lost block should have no read source")
	}
}

func TestHigherReplicationSurvivesSiteBatchKill(t *testing.T) {
	// Kill an entire site; replication 10 (site-aware) must lose nothing,
	// replication 2 without site awareness should lose some blocks.
	lostWith := func(repl int, placement string, seed int64) int {
		h := newHarness(t, seed, 4, Config{Replication: repl, PlacementPolicy: placement, DeadTimeout: 30 * sim.Second})
		for i := 0; i < 20; i++ {
			h.nn.SeedFile("/in/sb"+string(rune('a'+i)), DefaultBlockSize, repl)
		}
		// Nodes 0..3 are all on site fnal.gov.
		for i := 0; i < 4; i++ {
			h.nn.ForceDead(h.all[i])
		}
		return h.nn.Stats().BlocksLost
	}
	if lost := lostWith(10, PlacementGrid, 12); lost != 0 {
		t.Fatalf("replication 10 site-aware lost %d blocks on site failure, want 0", lost)
	}
	lostLow := 0
	for seed := int64(13); seed < 19; seed++ {
		lostLow += lostWith(2, PlacementFlat, seed)
	}
	if lostLow == 0 {
		t.Fatal("replication 2 flat placement never lost a block across 6 site-failure trials; model suspicious")
	}
}

func TestDeleteFileReleasesDisk(t *testing.T) {
	h := newHarness(t, 14, 2, Config{Replication: 3, PlacementPolicy: PlacementFlat})
	h.nn.SeedFile("/in/del", 3*DefaultBlockSize, 3)
	var used float64
	for _, id := range h.all {
		used += h.dt.Used(id)
	}
	if used != 9*DefaultBlockSize {
		t.Fatalf("used = %.0f, want 9 blocks", used)
	}
	h.nn.DeleteFile("/in/del")
	for _, id := range h.all {
		if h.dt.Used(id) != 0 {
			t.Fatalf("node %d still holds %.0f bytes after delete", id, h.dt.Used(id))
		}
	}
	if h.nn.File("/in/del") != nil {
		t.Fatal("file still present after delete")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	h := newHarness(t, 15, 1, Config{PlacementPolicy: PlacementFlat})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	h.nn.Register(h.all[0])
}

// TestDatanodeLookupSparseIDs registers datanodes at sparse IDs: a lookup of
// an ID never registered, in a gap or past the end of the table, returns nil
// without panicking, as do the calls that take a node ID, and the census
// counts registered datanodes only.
func TestDatanodeLookupSparseIDs(t *testing.T) {
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	site := net.AddSite("fnal.gov", 1e9, 1e9)
	for i := 0; i < 8; i++ {
		net.AddNode(site, fmt.Sprintf("wn%d.fnal.gov", i))
	}
	nn := NewNamenode(eng, net, disk.NewTracker(), Config{})
	nn.Register(3)
	nn.Register(7)
	for _, id := range []netmodel.NodeID{-1, 0, 5, 8, 1 << 20} {
		if d := nn.Datanode(id); d != nil {
			t.Fatalf("Datanode(%d) = %+v for an unregistered ID", id, d)
		}
		if s := nn.SiteOf(id); s != -1 {
			t.Fatalf("SiteOf(%d) = %d for an unregistered ID, want -1", id, s)
		}
		nn.ForceDead(id)
		nn.SetNodeGray(id, true)
		nn.MarkPhysicallyLost(id)
		nn.Reregister(id)
		if nn.RecoverDatanode(id) != 0 {
			t.Fatalf("RecoverDatanode(%d) restored replicas of an unregistered ID", id)
		}
	}
	if d := nn.Datanode(7); d == nil || d.ID != 7 {
		t.Fatalf("Datanode(7) = %+v, want the registered datanode", d)
	}
	if c := nn.Census(); c.Datanodes != 2 || c.AliveNodes != 2 {
		t.Fatalf("census counts %d datanodes, %d alive; want 2, 2", c.Datanodes, c.AliveNodes)
	}
	if err := nn.CheckLiveList(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateCreatePanics(t *testing.T) {
	h := newHarness(t, 16, 1, Config{PlacementPolicy: PlacementFlat})
	h.nn.CreateFile("/x", DefaultBlockSize, 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate CreateFile did not panic")
		}
	}()
	h.nn.CreateFile("/x", DefaultBlockSize, 1)
}

func TestBalancerReducesSpread(t *testing.T) {
	h := newHarness(t, 17, 4, Config{Replication: 1, PlacementPolicy: PlacementFlat})
	// Seed many single-replica blocks, then register fresh empty nodes and
	// balance toward them.
	for i := 0; i < 30; i++ {
		h.nn.SeedFile("/in/bal"+string(rune('a'+i)), DefaultBlockSize, 1)
	}
	fresh := make([]netmodel.NodeID, 0, 5)
	for i := 0; i < 5; i++ {
		id := h.net.AddNode(h.net.SiteOf(h.all[0]), "fresh.fnal.gov")
		h.dt.SetCapacity(id, 10e9)
		h.nn.Register(id)
		fresh = append(fresh, id)
		h.all = append(h.all, id)
	}
	tk := h.heartbeatAll(nil)
	defer tk.Stop()
	spread := func() (hi, lo float64) {
		lo = 1
		for _, id := range h.all {
			u := h.dt.Utilization(id)
			if u > hi {
				hi = u
			}
			if u < lo {
				lo = u
			}
		}
		return
	}
	hiBefore, loBefore := spread()
	moves := h.nn.BalanceOnce(0.001, 20)
	if moves == 0 {
		t.Fatal("balancer made no moves on an imbalanced cluster")
	}
	h.eng.RunUntil(30 * sim.Minute)
	hiAfter, loAfter := spread()
	if !(hiAfter-loAfter < hiBefore-loBefore) {
		t.Fatalf("utilisation spread did not shrink: before [%f,%f], after [%f,%f]",
			loBefore, hiBefore, loAfter, hiAfter)
	}
	var moved float64
	for _, id := range fresh {
		moved += h.dt.Used(id)
	}
	if moved == 0 {
		t.Fatal("no data moved to fresh nodes")
	}
}

// TestBalanceOnceNoOvershoot is the regression test for the stale-utilization
// bug: BalanceOnce computed per-node utilizations once per round and never
// adjusted them as moves were scheduled, so with one fresh node and many
// equally over-full sources, every source shipped it a block (15 moves, the
// destination overshooting far past the mean). With src/dst utilizations
// updated incrementally after each startMove, the round stops as soon as the
// destination enters the balance band (~5 moves here).
func TestBalanceOnceNoOvershoot(t *testing.T) {
	h := newHarness(t, 18, 3, Config{Replication: 1, PlacementPolicy: PlacementFlat})
	// Deterministic skew: funnel 5 blocks onto each node in turn by starving
	// every other node's capacity during its seeding round.
	for _, id := range h.all {
		for _, other := range h.all {
			if other == id {
				h.dt.SetCapacity(other, 1e9)
			} else {
				h.dt.SetCapacity(other, 1e6)
			}
		}
		h.nn.SeedFile(fmt.Sprintf("/skew%d", id), 5*DefaultBlockSize, 1)
	}
	for _, id := range h.all {
		h.dt.SetCapacity(id, 1e9)
		if h.dt.Used(id) != 5*DefaultBlockSize {
			t.Fatalf("node %d holds %.0f bytes, want exactly 5 blocks", id, h.dt.Used(id))
		}
	}
	// One fresh empty node: utilizations are 15 x 0.32 plus one 0, mean 0.3.
	fresh := h.net.AddNode(h.net.SiteOf(h.all[0]), "fresh.fnal.gov")
	h.dt.SetCapacity(fresh, 1e9)
	h.nn.Register(fresh)
	h.all = append(h.all, fresh)
	tk := h.heartbeatAll(nil)
	defer tk.Stop()

	moves := h.nn.BalanceOnce(0.01, 100)
	if moves == 0 {
		t.Fatal("balancer made no moves on an imbalanced cluster")
	}
	if moves > 6 {
		t.Fatalf("balancer scheduled %d moves into one fresh node (stale-utilization overshoot); want <= 6", moves)
	}
	h.eng.RunUntil(30 * sim.Minute)
	if u := h.dt.Utilization(fresh); u > 0.5 {
		t.Fatalf("fresh node at %.2f utilization after one round; overshot the balance band", u)
	}
}

// TestBalancePumpedDestinationDoesNotHaltRound: once utilizations update
// in-round, the under-full tail is no longer sorted — a small-capacity
// destination pumped into the band after one block must be skipped, not
// treated as the end of the under-full list, or every remaining source
// stops moving and a second still-empty destination never fills.
func TestBalancePumpedDestinationDoesNotHaltRound(t *testing.T) {
	h := newHarness(t, 19, 3, Config{Replication: 1, PlacementPolicy: PlacementFlat})
	for _, id := range h.all {
		for _, other := range h.all {
			if other == id {
				h.dt.SetCapacity(other, 1e9)
			} else {
				h.dt.SetCapacity(other, 1e6)
			}
		}
		h.nn.SeedFile(fmt.Sprintf("/pump%d", id), 5*DefaultBlockSize, 1)
	}
	for _, id := range h.all {
		h.dt.SetCapacity(id, 1e9)
	}
	// Two empty destinations: big first, then the tiny one, which gets the
	// higher ID and therefore sorts to the very tail among the zeros. One
	// block pumps the tiny node straight past the band.
	big := h.net.AddNode(h.net.SiteOf(h.all[0]), "big.fnal.gov")
	h.dt.SetCapacity(big, 1e9)
	h.nn.Register(big)
	tiny := h.net.AddNode(h.net.SiteOf(h.all[0]), "tiny.fnal.gov")
	h.dt.SetCapacity(tiny, 0.2e9)
	h.nn.Register(tiny)
	h.all = append(h.all, big, tiny)
	tk := h.heartbeatAll(nil)
	defer tk.Stop()

	moves := h.nn.BalanceOnce(0.01, 100)
	// The tiny node absorbs one block; the big one must still fill toward
	// the mean (~5 more) instead of the round halting at the pumped entry.
	if moves < 4 {
		t.Fatalf("round stalled after the pumped destination: %d moves", moves)
	}
	h.eng.RunUntil(30 * sim.Minute)
	if h.dt.Used(big) == 0 {
		t.Fatal("big destination received no blocks; pumped tail entry halted the round")
	}
}

// TestPlacementInvariantsProperty moved to placement_audit_test.go: the
// property is now audit.CheckSeededFilePlacement, shared with the chaos
// runner, and the test exercises it through the exported API.

// Property: recovery restores the full replication factor after killing any
// single replica holder, given enough surviving capacity.
func TestRecoveryProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		h := newHarness(t, int64(seedRaw)+200, 3, Config{Replication: 3, DeadTimeout: 30 * sim.Second, PlacementPolicy: PlacementFlat})
		fi := h.nn.SeedFile("/r", 2*DefaultBlockSize, 3)
		victim := h.nn.Block(fi.Blocks[0]).Replicas()[0]
		dead := map[netmodel.NodeID]bool{victim: true}
		tk := h.heartbeatAll(dead)
		defer tk.Stop()
		h.eng.RunUntil(20 * sim.Minute)
		for _, bid := range fi.Blocks {
			if h.nn.Block(bid).NumReplicas() != 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
