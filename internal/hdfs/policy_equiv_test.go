package hdfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hog/internal/event"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// placementFingerprint serializes everything the placement and replication
// policies decided: every block's final replica set (sorted), the recovery
// statistics, and the full ReplicationDone event order. Two runs with
// identical fingerprints made bit-identical placement decisions.
func placementFingerprint(h *harness, log *event.Log) []string {
	var out []string
	h.nn.ForEachBlock(func(b *BlockInfo) {
		out = append(out, fmt.Sprintf("block %d replicas=%v lost=%v", b.ID, b.Replicas(), b.Lost()))
	})
	out = append(out, fmt.Sprintf("stats repl=%d bytes=%.0f lost=%d",
		h.nn.stats.ReplicationsDone, h.nn.stats.BytesReplicated, h.nn.stats.BlocksLost))
	for _, ev := range log.Events() {
		out = append(out, fmt.Sprintf("ev %v t=%d block=%d node=%d", ev.Type, ev.Time, ev.Block, ev.Node))
	}
	return out
}

// runPlacementChurn seeds files, kills a seeded subset of nodes under
// heartbeats so recovery has real work, and returns the placement
// fingerprint. mod edits the namenode config before construction — the hook
// that pins explicit policy names against the defaults on identical inputs.
func runPlacementChurn(t *testing.T, seed int64, churn int, mod func(*Config)) []string {
	t.Helper()
	cfg := Config{Replication: 3, DeadTimeout: 20 * sim.Second, CheckInterval: 5 * sim.Second}
	if mod != nil {
		mod(&cfg)
	}
	h := newHarness(t, seed, 4, cfg) // 20 nodes over 5 sites
	log := event.NewLog(event.ReplicationDone, event.BlockLost)
	h.nn.Events = &event.Bus{}
	h.nn.Events.Subscribe(log)
	for f := 0; f < 4; f++ {
		h.nn.SeedFile(fmt.Sprintf("/in/f%d", f), 6*DefaultBlockSize, 0)
	}
	dead := map[netmodel.NodeID]bool{}
	tick := h.heartbeatAll(dead)
	defer tick.Stop()
	r := h.eng.Rand()
	for i := 0; i < churn; i++ {
		// Kill distinct nodes at staggered instants; draws come from the
		// engine RNG, identical under every policy-naming variant.
		at := h.eng.Now() + sim.Time(int64(30*sim.Second)+r.Int63n(int64(sim.Minute)))
		node := h.all[r.Intn(len(h.all))]
		h.eng.Schedule(at, func() {
			if !dead[node] {
				dead[node] = true
				h.dt.Clear(node)
			}
		})
		h.eng.RunUntil(at)
	}
	h.eng.RunUntil(h.eng.Now() + 10*sim.Minute)
	return placementFingerprint(h, log)
}

// TestDefaultPlacementPolicyEquivalence is the extraction contract for the
// hdfs decision points: naming the default policies explicitly ("grid",
// "fifo") must reproduce the empty-name run bit for bit — same replica
// targets, same recovery order, same event stream — across seeds and churn
// intensities.
func TestDefaultPlacementPolicyEquivalence(t *testing.T) {
	explicit := func(c *Config) {
		c.PlacementPolicy = PlacementGrid
		c.ReplicationOrder = ReplicationFIFO
	}
	for _, churn := range []int{0, 3, 6} {
		for seed := int64(1); seed <= 3; seed++ {
			base := runPlacementChurn(t, seed, churn, nil)
			named := runPlacementChurn(t, seed, churn, explicit)
			if len(base) != len(named) {
				t.Fatalf("churn %d seed %d: fingerprint lengths diverge: default %d, named %d",
					churn, seed, len(base), len(named))
			}
			for i := range base {
				if base[i] != named[i] {
					t.Fatalf("churn %d seed %d line %d:\ndefault: %s\nnamed:   %s",
						churn, seed, i, base[i], named[i])
				}
			}
		}
	}
}

// TestAlternatePlacementPoliciesDeterministic: the alternatives must be
// exactly reproducible across identical runs.
func TestAlternatePlacementPoliciesDeterministic(t *testing.T) {
	alt := func(c *Config) {
		c.PlacementPolicy = PlacementRandom
		c.ReplicationOrder = ReplicationRarest
	}
	a := runPlacementChurn(t, 42, 5, alt)
	b := runPlacementChurn(t, 42, 5, alt)
	if len(a) != len(b) {
		t.Fatalf("fingerprint lengths diverge across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line %d diverges across identical runs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestRarestOrderRecoversMostEndangeredFirst: with one singly-replicated
// block queued behind a backlog of healthier blocks, the rarest-first order
// must serve it first while FIFO serves the queue head.
func TestRarestOrderRecoversMostEndangeredFirst(t *testing.T) {
	h := newHarness(t, 9, 2, Config{Replication: 3, MaxReplicationStreams: 1, PlacementPolicy: PlacementFlat})
	// Build a queue by hand: healthy-ish blocks first, the endangered block
	// last, so FIFO and rarest-first must disagree on the next pick.
	f := h.nn.SeedFile("/in/data", 4*DefaultBlockSize, 0)
	for _, bid := range f.Blocks {
		h.nn.queueReplication(bid)
	}
	endangered := f.Blocks[len(f.Blocks)-1]
	b := h.nn.Block(endangered)
	// Leave one replica; dropReplica edits the set, so walk a copy.
	victims := slices.Clone(b.Replicas())
	for _, id := range victims[1:] {
		h.nn.dropReplica(b, id)
	}
	fifo, _ := NewReplicationOrder("")
	if bid, ok := fifo.Next(h.nn); !ok || bid != f.Blocks[0] {
		t.Fatalf("fifo served block %d, want queue head %d", bid, f.Blocks[0])
	}
	rarest, _ := NewReplicationOrder(ReplicationRarest)
	if bid, ok := rarest.Next(h.nn); !ok || bid != endangered {
		t.Fatalf("rarest-first served block %d, want endangered block %d", bid, endangered)
	}
}

// TestRandomPlacementIgnoresWriter: the random policy must not prefer the
// writer node, where the grid and flat policies pin replica one to it.
func TestRandomPlacementIgnoresWriter(t *testing.T) {
	onWriter := func(cfg Config, seed int64) int {
		h := newHarness(t, seed, 4, cfg)
		writer := h.all[0]
		n := 0
		for i := 0; i < 20; i++ {
			targets := h.nn.chooseTargets(writer, DefaultBlockSize, 3)
			if len(targets) != 3 {
				t.Fatalf("placement returned %d targets, want 3", len(targets))
			}
			for _, id := range targets {
				if id == writer {
					n++
				}
			}
		}
		return n
	}
	grid := onWriter(Config{Replication: 3}, 4)
	if grid != 20 {
		t.Fatalf("grid policy placed %d/20 first replicas on the writer", grid)
	}
	if flat := onWriter(Config{Replication: 3, PlacementPolicy: PlacementFlat}, 4); flat != 20 {
		t.Fatalf("flat policy placed %d/20 first replicas on the writer", flat)
	}
	random := onWriter(Config{Replication: 3, PlacementPolicy: PlacementRandom}, 4)
	if random == 20 {
		t.Fatal("random policy always hit the writer; it should not prefer it")
	}
}

// TestHDFSPolicyRegistry pins the registry surface: defaults, unknown-name
// errors listing the valid names, and sorted listings.
func TestHDFSPolicyRegistry(t *testing.T) {
	if p, err := NewPlacementPolicy(""); err != nil || p.Name() != PlacementGrid {
		t.Fatalf("empty placement name: got %v, %v", p, err)
	}
	if p, err := NewReplicationOrder(""); err != nil || p.Name() != ReplicationFIFO {
		t.Fatalf("empty replication name: got %v, %v", p, err)
	}
	if _, err := NewPlacementPolicy("nope"); err == nil || !strings.Contains(err.Error(), PlacementRandom) {
		t.Fatalf("unknown placement name error %v should list valid names", err)
	}
	if _, err := NewReplicationOrder("nope"); err == nil || !strings.Contains(err.Error(), ReplicationRarest) {
		t.Fatalf("unknown replication name error %v should list valid names", err)
	}
	if got := PlacementPolicyNames(); strings.Join(got, ",") != "flat,grid,random" {
		t.Fatalf("placement names %v", got)
	}
	if got := ReplicationOrderNames(); strings.Join(got, ",") != "fifo,rarest" {
		t.Fatalf("replication order names %v", got)
	}
}
