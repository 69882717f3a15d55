package grid

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"hog/internal/event"
	"hog/internal/netmodel"
	"hog/internal/sim"
	"hog/internal/topology"
)

func newTestPool(seed int64, sites []SiteConfig, cfg PoolConfig) (*sim.Engine, *netmodel.Network, *Pool) {
	eng := sim.New(seed)
	net := netmodel.New(eng, netmodel.Config{})
	return eng, net, NewPool(eng, net, sites, cfg)
}

func quietSites(n int) []SiteConfig {
	sites := OSGSites(ChurnNone)
	return sites[:n]
}

// TestPoolRequestsBoundedByCapacity pins that a target above the sites'
// total capacity requests no more workers than they can run. The pool once
// queued one provision event per missing worker: a target of 200,000 left
// 200,000 pending events, and 1e12 exhausted memory. The 1e12 case runs
// only once the smaller one passes.
func TestPoolRequestsBoundedByCapacity(t *testing.T) {
	sites := quietSites(2)
	capacity := sites[0].Capacity + sites[1].Capacity
	for _, target := range []int{200_000, 1e12} {
		eng, _, p := newTestPool(1, sites, DefaultPoolConfig())
		p.SetTarget(target)
		if p.InFlight() != capacity || eng.Pending() != capacity {
			t.Fatalf("target %d: %d requests in flight, %d events pending; want %d each",
				target, p.InFlight(), eng.Pending(), capacity)
		}
		eng.RunUntil(30 * sim.Minute)
		if p.AliveCount() != capacity || p.InFlight() != 0 {
			t.Fatalf("target %d: %d alive, %d in flight; want every site full and nothing queued",
				target, p.AliveCount(), p.InFlight())
		}
	}
}

func TestPoolReachesTarget(t *testing.T) {
	eng, _, p := newTestPool(1, quietSites(5), DefaultPoolConfig())
	joins := 0
	p.OnJoin = func(*Node) { joins++ }
	p.SetTarget(100)
	eng.RunUntil(30 * sim.Minute)
	if p.AliveCount() != 100 {
		t.Fatalf("alive = %d, want 100", p.AliveCount())
	}
	if joins != 100 {
		t.Fatalf("join callbacks = %d, want 100", joins)
	}
	if p.Stats().Provisioned != 100 {
		t.Fatalf("provisioned = %d, want 100", p.Stats().Provisioned)
	}
}

func TestPoolReplacesPreemptedNodes(t *testing.T) {
	sites := OSGSites(ChurnUnstable)
	eng, _, p := newTestPool(2, sites, DefaultPoolConfig())
	preempts := 0
	p.OnPreempt = func(n *Node) {
		preempts++
		if n.Alive {
			t.Error("OnPreempt called with Alive node")
		}
	}
	p.SetTarget(55)
	eng.RunUntil(4 * sim.Hour)
	if preempts == 0 {
		t.Fatal("no preemptions under unstable churn in 4h")
	}
	if got := p.AliveCount(); got < 45 || got > 55 {
		t.Fatalf("alive after churn = %d, want near 55", got)
	}
	st := p.Stats()
	if st.Provisioned != p.AliveCount()+st.Preempted+st.BatchPreempted+st.Killed {
		t.Fatalf("replacement accounting off: %+v alive=%d", st, p.AliveCount())
	}
}

func TestTargetDecreaseReleasesNodes(t *testing.T) {
	eng, _, p := newTestPool(3, quietSites(5), DefaultPoolConfig())
	p.SetTarget(50)
	eng.RunUntil(30 * sim.Minute)
	p.SetTarget(20)
	eng.RunUntil(35 * sim.Minute)
	if p.AliveCount() != 20 {
		t.Fatalf("alive = %d after shrink, want 20", p.AliveCount())
	}
	if p.Stats().Released != 30 {
		t.Fatalf("released = %d, want 30", p.Stats().Released)
	}
	// Grow again: elastic.
	p.SetTarget(40)
	eng.RunUntil(60 * sim.Minute)
	if p.AliveCount() != 40 {
		t.Fatalf("alive = %d after regrow, want 40", p.AliveCount())
	}
}

func TestInFlightNotOverProvisioned(t *testing.T) {
	eng, _, p := newTestPool(4, quietSites(5), DefaultPoolConfig())
	p.SetTarget(100)
	// Shrink before any provisioning completes.
	p.SetTarget(10)
	eng.RunUntil(time30())
	if p.AliveCount() != 10 {
		t.Fatalf("alive = %d, want 10 (requests in flight must not overshoot)", p.AliveCount())
	}
}

func time30() sim.Time { return 30 * sim.Minute }

func TestSiteCapacityRespected(t *testing.T) {
	sites := quietSites(2)
	sites[0].Capacity = 5
	sites[1].Capacity = 7
	eng, _, p := newTestPool(5, sites, DefaultPoolConfig())
	p.SetTarget(50) // far above total capacity 12
	eng.RunUntil(20 * sim.Minute)
	if got := p.AliveCount(); got != 12 {
		t.Fatalf("alive = %d, want capacity-bound 12", got)
	}
	if p.AliveAtSite(0) != 5 || p.AliveAtSite(1) != 7 {
		t.Fatalf("per-site alive = %d,%d, want 5,7", p.AliveAtSite(0), p.AliveAtSite(1))
	}
}

func TestKillRequestsReplacement(t *testing.T) {
	eng, net, p := newTestPool(6, quietSites(5), DefaultPoolConfig())
	p.SetTarget(10)
	eng.RunUntil(20 * sim.Minute)
	victim := p.AliveNodes()[0]
	p.Kill(victim.ID)
	if victim.Alive {
		t.Fatal("killed node still alive")
	}
	eng.RunUntil(40 * sim.Minute)
	if p.AliveCount() != 10 {
		t.Fatalf("alive = %d after kill+replace, want 10", p.AliveCount())
	}
	if p.Stats().Killed != 1 {
		t.Fatalf("killed = %d, want 1", p.Stats().Killed)
	}
	if p.Node(victim.ID) == nil {
		t.Fatal("dead node should remain queryable")
	}
	// IDs the pool never ran, before its first node and past its last, look
	// up as nil, and killing one is a no-op.
	for _, id := range []netmodel.NodeID{-1, netmodel.NodeID(net.NumNodes()), 1 << 20} {
		if n := p.Node(id); n != nil {
			t.Fatalf("Node(%d) = %+v for an ID the pool never ran", id, n)
		}
		p.Kill(id)
	}
	if c := p.Census(); c.Nodes != net.NumNodes() || p.Stats().Killed != 1 {
		t.Fatalf("census counts %d nodes of %d issued, %d kills; want all and 1", c.Nodes, net.NumNodes(), p.Stats().Killed)
	}
}

func TestPreemptSiteFraction(t *testing.T) {
	eng, _, p := newTestPool(7, quietSites(5), DefaultPoolConfig())
	p.SetTarget(100)
	eng.RunUntil(30 * sim.Minute)
	before := p.AliveAtSite(0)
	if before == 0 {
		t.Skip("no nodes at site 0 with this seed")
	}
	k := p.PreemptSite(0, 1.0)
	if k != before {
		t.Fatalf("PreemptSite(1.0) removed %d, want all %d", k, before)
	}
	if p.AliveAtSite(0) != 0 {
		t.Fatalf("site 0 alive = %d after full preempt", p.AliveAtSite(0))
	}
}

func TestHostnamesMapToSiteDomains(t *testing.T) {
	eng, net, p := newTestPool(8, quietSites(5), DefaultPoolConfig())
	p.SetTarget(60)
	eng.RunUntil(30 * sim.Minute)
	domains := map[string]bool{}
	for _, sc := range quietSites(5) {
		domains[topology.SiteFromHostname("x."+sc.Domain)] = true
	}
	seen := map[string]bool{}
	for _, n := range p.AliveNodes() {
		site := topology.SiteFromHostname(n.Hostname)
		seen[site] = true
		if !domains[site] {
			t.Fatalf("hostname %q mapped to unknown site %q", n.Hostname, site)
		}
		if net.Hostname(n.ID) != n.Hostname {
			t.Fatal("netmodel hostname mismatch")
		}
	}
	if len(seen) < 2 {
		t.Fatalf("expected nodes spread over >=2 sites, got %v", seen)
	}
}

// TestPresetAwarenessSiteCollisions lists, per preset, the grid sites that
// HDFS's hostname-derived awareness site merges into one failure domain.
// MEGA's UFL_HPC (ufl.edu) and FLORIDA_T2 (phys.ufl.edu) share ufl.edu, and
// GIGA's 64 generated pools share osg-federation.org, leaving 39 awareness
// sites for MEGA's 40 grid sites and 40 for GIGA's 104. These are known, and
// fixing them moves MEGA and GIGA results; any other merge fails here.
func TestPresetAwarenessSiteCollisions(t *testing.T) {
	ufl := []string{"UFL_HPC", "FLORIDA_T2"}
	var pools []string
	for i := 0; i < 64; i++ {
		pools = append(pools, fmt.Sprintf("OSG_POOL_%02d", i))
	}
	for _, tc := range []struct {
		name  string
		sites []SiteConfig
		want  map[string][]string
	}{
		{"osg", OSGSites(ChurnNone), map[string][]string{}},
		{"large", LargeGridSites(ChurnNone), map[string][]string{}},
		{"mega", MegaGridSites(ChurnNone), map[string][]string{"ufl.edu": ufl}},
		{"giga", GigaGridSites(ChurnNone), map[string][]string{"ufl.edu": ufl, "osg-federation.org": pools}},
	} {
		bySite := map[string][]string{}
		for _, sc := range tc.sites {
			s := topology.SiteFromHostname("x." + sc.Domain)
			bySite[s] = append(bySite[s], sc.Name)
		}
		got := map[string][]string{}
		for s, names := range bySite {
			if len(names) > 1 {
				got[s] = names
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: awareness sites merging grid sites = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNodeSlotsFromConfig(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.MapSlots = 3
	cfg.ReduceSlots = 2
	eng, _, p := newTestPool(9, quietSites(5), cfg)
	p.SetTarget(5)
	eng.RunUntil(20 * sim.Minute)
	for _, n := range p.AliveNodes() {
		if n.MapSlots != 3 || n.ReduceSlots != 2 {
			t.Fatalf("slots = %d/%d, want 3/2", n.MapSlots, n.ReduceSlots)
		}
	}
}

func TestChurnProfilesOrdering(t *testing.T) {
	run := func(profile ChurnProfile) int {
		eng, _, p := newTestPool(11, OSGSites(profile), DefaultPoolConfig())
		p.SetTarget(55)
		eng.RunUntil(3 * sim.Hour)
		st := p.Stats()
		return st.Preempted + st.BatchPreempted
	}
	none, stable, unstable := run(ChurnNone), run(ChurnStable), run(ChurnUnstable)
	if none != 0 {
		t.Fatalf("ChurnNone produced %d preemptions", none)
	}
	if !(unstable > stable) {
		t.Fatalf("unstable (%d) should preempt more than stable (%d)", unstable, stable)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, int) {
		eng, _, p := newTestPool(42, OSGSites(ChurnUnstable), DefaultPoolConfig())
		p.SetTarget(55)
		eng.RunUntil(2 * sim.Hour)
		st := p.Stats()
		return st.Provisioned, st.Preempted + st.BatchPreempted
	}
	p1, l1 := run()
	p2, l2 := run()
	if p1 != p2 || l1 != l2 {
		t.Fatalf("pool not deterministic: (%d,%d) vs (%d,%d)", p1, l1, p2, l2)
	}
}

// Property: for any target within capacity, the pool converges to exactly
// that many alive nodes and never exceeds per-site capacity.
func TestTargetConvergenceProperty(t *testing.T) {
	f := func(raw uint8) bool {
		target := int(raw)%120 + 1
		eng, _, p := newTestPool(int64(raw)+1, quietSites(5), DefaultPoolConfig())
		p.SetTarget(target)
		eng.RunUntil(time30())
		if p.AliveCount() != target {
			return false
		}
		for i := range p.SiteNames() {
			if p.AliveAtSite(i) > quietSites(5)[i].Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNoSitesPanics(t *testing.T) {
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	defer func() {
		if recover() == nil {
			t.Error("NewPool with no sites did not panic")
		}
	}()
	NewPool(eng, net, nil, PoolConfig{})
}

func TestSiteIndexByName(t *testing.T) {
	_, _, p := newTestPool(1, quietSites(5), DefaultPoolConfig())
	for i, name := range p.SiteNames() {
		if got := p.SiteIndexByName(name); got != i {
			t.Fatalf("SiteIndexByName(%q) = %d, want %d", name, got, i)
		}
	}
	if got := p.SiteIndexByName("NO_SUCH_SITE"); got != -1 {
		t.Fatalf("unknown site resolved to %d", got)
	}
}

// TestPreemptSiteNamedMatchesIndex pins the name-based site preemption to
// the index-based one: same seed, same site, identical kill decision.
func TestPreemptSiteNamedMatchesIndex(t *testing.T) {
	run := func(byName bool) (killed, alive int) {
		eng, _, p := newTestPool(9, quietSites(5), DefaultPoolConfig())
		p.SetTarget(60)
		eng.RunUntil(time30())
		if byName {
			n, err := p.PreemptSiteNamed("FNAL_FERMIGRID", 1.0)
			if err != nil {
				t.Fatal(err)
			}
			killed = n
		} else {
			killed = p.PreemptSite(0, 1.0)
		}
		return killed, p.AliveCount()
	}
	ik, ia := run(false)
	nk, na := run(true)
	if ik != nk || ia != na {
		t.Fatalf("name-based preemption diverged: index (%d,%d) vs name (%d,%d)", ik, ia, nk, na)
	}
	if ik == 0 {
		t.Fatal("outage killed nothing")
	}
	_, _, p := newTestPool(9, quietSites(5), DefaultPoolConfig())
	if _, err := p.PreemptSiteNamed("NO_SUCH_SITE", 1.0); err == nil {
		t.Fatal("unknown site name did not error")
	}
}

func TestBurstAndKillFraction(t *testing.T) {
	eng, _, p := newTestPool(4, quietSites(5), DefaultPoolConfig())
	check := func(step string) {
		t.Helper()
		if err := p.CheckLiveLists(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	p.SetTarget(80)
	eng.RunUntil(time30())
	check("provisioning")
	if n := p.BurstPreempt(0.5); n < 30 || n > 50 {
		t.Fatalf("BurstPreempt(0.5) killed %d of 80", n)
	}
	check("burst")
	eng.RunUntil(eng.Now() + time30()) // pool heals
	check("healing")
	if p.AliveCount() != 80 {
		t.Fatalf("pool did not heal after burst: alive=%d", p.AliveCount())
	}
	if n := p.KillFraction(0.25); n != 20 {
		t.Fatalf("KillFraction(0.25) killed %d of 80, want 20", n)
	}
	check("kill")
	if p.Stats().Killed < 20 {
		t.Fatalf("killed counter = %d", p.Stats().Killed)
	}
	newest := p.AliveNodes()[p.AliveCount()-1]
	p.SetTarget(p.AliveCount() - 1)
	check("release")
	if newest.Alive {
		t.Fatalf("shrinking the target kept the newest node %d", newest.ID)
	}
}

func TestPoolEmitsLifecycleEvents(t *testing.T) {
	eng, _, p := newTestPool(3, quietSites(5), DefaultPoolConfig())
	log := event.NewLog()
	p.Events = &event.Bus{}
	p.Events.Subscribe(log)
	p.SetTarget(30)
	eng.RunUntil(time30())
	p.KillFraction(0.5)
	if got := log.Count(event.PoolRetarget); got != 1 {
		t.Fatalf("PoolRetarget events = %d, want 1", got)
	}
	if got := log.Count(event.NodeJoined); got < 30 {
		t.Fatalf("NodeJoined events = %d, want >= 30", got)
	}
	if got := log.Count(event.NodePreempted); got != 15 {
		t.Fatalf("NodePreempted events = %d, want 15", got)
	}
	for _, e := range log.Events() {
		if e.Type == event.NodePreempted && e.Detail != "killed" {
			t.Fatalf("kill preemption labelled %q", e.Detail)
		}
		if e.Type == event.NodeJoined && e.Site == "" {
			t.Fatal("NodeJoined without site name")
		}
	}
}
