// Package grid simulates the Open Science Grid substrate HOG runs on: sites
// with opportunistic worker-node slots, a Condor/GlideinWMS-style glide-in
// pool that submits worker-node requests and elastically maintains a target
// size, and the preemption behaviour the paper identifies as the largest
// barrier (§I): individual node preemption at any time, and simultaneous
// batch preemptions when a higher-priority user claims many slots at once
// (§III.B.1).
package grid

import (
	"cmp"
	"fmt"
	"slices"

	"hog/internal/event"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// SiteConfig describes one grid site (paper Listing 1 restricts execution to
// five sites with publicly reachable worker nodes).
type SiteConfig struct {
	// Name is the GLIDEIN_ResourceName, e.g. "FNAL_FERMIGRID".
	Name string
	// Domain is the last-two-label DNS suffix of the site's worker nodes;
	// HOG's site awareness groups nodes by this value.
	Domain string
	// Capacity is the maximum number of glide-ins the site will run for us.
	Capacity int
	// Weight biases provisioning toward larger sites. Zero means use
	// Capacity as the weight.
	Weight float64
	// NodeLifetime is the distribution of time until an individual glide-in
	// is preempted by the remote batch system; the zero value never preempts.
	NodeLifetime sim.Dist
	// BatchPreemptEvery is the distribution of time between site-wide batch
	// preemption events; the zero value disables them.
	BatchPreemptEvery sim.Dist
	// BatchPreemptFrac is the fraction of our nodes at the site preempted
	// per batch event.
	BatchPreemptFrac float64
	// UplinkBps and DownlinkBps size the site's WAN links.
	UplinkBps, DownlinkBps float64
}

// PoolConfig holds glide-in pool parameters.
type PoolConfig struct {
	// ProvisionDelay is the time from requesting a worker node to the
	// Hadoop daemons reporting in: batch queue wait, executable download
	// (the 75 MB package, §III.A), extraction and startup. The zero value
	// selects 30 s plus an exponential with a 60 s mean.
	ProvisionDelay sim.Dist
	// DiskBytesPerNode is scratch space available on each worker.
	DiskBytesPerNode float64
	// MapSlots and ReduceSlots per worker; HOG uses 1 and 1 because a grid
	// job is allocated one core (§IV.A).
	MapSlots, ReduceSlots int
}

// Node is one glide-in worker. A preempted node is never resurrected: its
// replacement is a fresh Node with a new ID, matching the paper's model where
// replacements "have no data".
type Node struct {
	ID           netmodel.NodeID
	Hostname     string
	Site         int // index into the pool's site list
	SiteName     string
	Alive        bool
	JoinedAt     sim.Time
	PreemptedAt  sim.Time
	DiskCapacity float64
	MapSlots     int
	ReduceSlots  int

	lifetime *sim.Timer
}

// Stats counts pool events for reporting.
type Stats struct {
	Provisioned       int // nodes that joined
	Preempted         int // individual lifetime preemptions
	BatchPreempted    int // nodes lost to batch events
	BatchEvents       int // number of batch events that hit >= 1 node
	Killed            int // externally killed (e.g. disk overflow)
	Released          int // voluntarily released on target decrease
	RequestsSubmitted int
}

// Pool is the glide-in pool. All methods must be called from the simulation
// loop.
type Pool struct {
	eng   *sim.Engine
	net   *netmodel.Network
	cfg   PoolConfig
	sites []*siteRuntime

	target   int
	inflight int
	alive    int
	// capacity is the sites' total Capacity, the most workers the pool can
	// ever run at once.
	capacity int
	// nodes holds every node that ever joined, indexed by ID; the sites'
	// lists hold the alive ones, so no walk over the pool visits the dead.
	nodes []*Node
	stats Stats

	// OnJoin is invoked when a node has started its daemons; OnPreempt when
	// the site kills it (the process tree and working directory are gone).
	OnJoin    func(*Node)
	OnPreempt func(*Node)

	// Events receives NodeJoined, NodePreempted, and PoolRetarget events
	// when observers are subscribed; nil is a valid, inactive bus.
	Events *event.Bus
}

type siteRuntime struct {
	cfg     SiteConfig
	netSite netmodel.SiteID
	ix      int // index in the pool's site list
	// nodes are the site's alive nodes in ascending ID order.
	nodes   []*Node
	hostSeq int
}

// NewPool registers the sites on net and returns a pool with target zero.
func NewPool(eng *sim.Engine, net *netmodel.Network, sites []SiteConfig, cfg PoolConfig) *Pool {
	if len(sites) == 0 {
		panic("grid: NewPool with no sites")
	}
	if cfg.MapSlots <= 0 {
		cfg.MapSlots = 1
	}
	if cfg.ReduceSlots <= 0 {
		cfg.ReduceSlots = 1
	}
	if cfg.ProvisionDelay.IsZero() {
		cfg.ProvisionDelay = sim.Dist{Offset: 30 * sim.Second, Mean: 60 * sim.Second}
	}
	if cfg.DiskBytesPerNode <= 0 {
		cfg.DiskBytesPerNode = 40e9
	}
	p := &Pool{eng: eng, net: net, cfg: cfg}
	for _, sc := range sites {
		sr := &siteRuntime{cfg: sc, ix: len(p.sites)}
		sr.netSite = net.AddSite(sc.Name, sc.UplinkBps, sc.DownlinkBps)
		p.sites = append(p.sites, sr)
		p.capacity += sc.Capacity
		p.scheduleBatchPreemption(sr)
	}
	return p
}

// SetTarget changes the desired pool size, submitting new worker requests or
// releasing surplus nodes (the paper: "the number of nodes can grow and
// shrink elastically by submitting and removing the worker node jobs").
func (p *Pool) SetTarget(n int) {
	if n < 0 {
		n = 0
	}
	if n != p.target && p.Events.Active() {
		ev := event.At(event.PoolRetarget, p.eng.Now())
		ev.Value = n
		p.Events.Emit(ev)
	}
	p.target = n
	for p.alive > p.target {
		victim := p.anyAliveNode()
		if victim == nil {
			break
		}
		p.preempt(victim, &p.stats.Released, false, "released")
	}
	p.maintain()
}

// Target returns the current desired pool size.
func (p *Pool) Target() int { return p.target }

// AliveCount returns the number of running workers.
func (p *Pool) AliveCount() int { return p.alive }

// InFlight returns the number of submitted-but-not-started worker requests.
func (p *Pool) InFlight() int { return p.inflight }

// Stats returns a copy of the pool's counters.
func (p *Pool) Stats() Stats { return p.stats }

// Node returns the node with the given ID, or nil if the pool never ran it.
func (p *Pool) Node(id netmodel.NodeID) *Node { return netmodel.Lookup(p.nodes, id) }

// AliveNodes returns all currently alive nodes in ID order.
func (p *Pool) AliveNodes() []*Node {
	out := make([]*Node, 0, p.alive)
	for _, sr := range p.sites {
		out = append(out, sr.nodes...)
	}
	slices.SortFunc(out, byID)
	return out
}

func byID(a, b *Node) int { return cmp.Compare(a.ID, b.ID) }

// CheckLiveLists reports a breach of the sites' alive lists' invariant:
// each holds exactly the site's alive nodes, in ascending ID order.
func (p *Pool) CheckLiveLists() error {
	want := make([][]*Node, len(p.sites))
	for _, n := range p.nodes {
		if n != nil && n.Alive {
			want[n.Site] = append(want[n.Site], n)
		}
	}
	for i, sr := range p.sites {
		if !slices.Equal(sr.nodes, want[i]) {
			return fmt.Errorf("site %s lists %d alive nodes out of %d, or out of ID order", sr.cfg.Name, len(sr.nodes), len(want[i]))
		}
	}
	return nil
}

// SiteNames returns configured site names in order.
func (p *Pool) SiteNames() []string {
	out := make([]string, len(p.sites))
	for i, s := range p.sites {
		out[i] = s.cfg.Name
	}
	return out
}

// AliveAtSite returns the number of alive nodes at site index i.
func (p *Pool) AliveAtSite(i int) int { return len(p.sites[i].nodes) }

// maintain submits one request per missing worker, but never more than the
// sites can run: a target above their total capacity (or a hostile one of
// 1e12) would otherwise queue one provision event per missing worker.
func (p *Pool) maintain() {
	for p.alive+p.inflight < min(p.target, p.capacity) {
		p.inflight++
		p.stats.RequestsSubmitted++
		delay := p.cfg.ProvisionDelay.Sample(p.eng.Rand())
		p.eng.After(delay, p.provision)
	}
}

// provision starts one worker at a weighted-random site with free capacity.
func (p *Pool) provision() {
	p.inflight--
	if p.alive >= p.target {
		return // target shrank while the request was queued
	}
	sr := p.chooseSite()
	if sr == nil {
		// All sites full: re-queue the request.
		p.inflight++
		p.eng.After(p.cfg.ProvisionDelay.Sample(p.eng.Rand()), p.provision)
		return
	}
	sr.hostSeq++
	host := fmt.Sprintf("wn%04d.%s", sr.hostSeq, sr.cfg.Domain)
	id := p.net.AddNode(sr.netSite, host)
	n := &Node{
		ID:           id,
		Hostname:     host,
		Site:         sr.ix,
		SiteName:     sr.cfg.Name,
		Alive:        true,
		JoinedAt:     p.eng.Now(),
		DiskCapacity: p.cfg.DiskBytesPerNode,
		MapSlots:     p.cfg.MapSlots,
		ReduceSlots:  p.cfg.ReduceSlots,
	}
	p.nodes = netmodel.Store(p.nodes, id, n)
	p.alive++
	// Node IDs grow with every AddNode, so the append keeps ID order.
	sr.nodes = append(sr.nodes, n)
	p.stats.Provisioned++
	if !sr.cfg.NodeLifetime.IsZero() {
		life := sr.cfg.NodeLifetime.Sample(p.eng.Rand())
		n.lifetime = p.eng.After(life, func() { p.preempt(n, &p.stats.Preempted, true, "lifetime") })
	}
	if p.OnJoin != nil {
		p.OnJoin(n)
	}
	if p.Events.Active() {
		ev := event.At(event.NodeJoined, p.eng.Now())
		ev.Node = n.ID
		ev.Site = n.SiteName
		p.Events.Emit(ev)
	}
	p.maintain()
}

func (p *Pool) chooseSite() *siteRuntime {
	var total float64
	for _, s := range p.sites {
		if len(s.nodes) < s.cfg.Capacity {
			w := s.cfg.Weight
			if w <= 0 {
				w = float64(s.cfg.Capacity)
			}
			total += w
		}
	}
	if total == 0 {
		return nil
	}
	x := p.eng.Rand().Float64() * total
	for _, s := range p.sites {
		if len(s.nodes) < s.cfg.Capacity {
			w := s.cfg.Weight
			if w <= 0 {
				w = float64(s.cfg.Capacity)
			}
			x -= w
			if x <= 0 {
				return s
			}
		}
	}
	return nil
}

// preempt removes a node; counter receives the increment, replace controls
// whether the pool should request a replacement, and kind labels the removal
// in the event stream (lifetime, batch, released, killed).
func (p *Pool) preempt(n *Node, counter *int, replace bool, kind string) {
	if !n.Alive {
		return
	}
	*counter++
	n.Alive = false
	n.PreemptedAt = p.eng.Now()
	if n.lifetime != nil {
		n.lifetime.Cancel()
	}
	p.alive--
	sr := p.sites[n.Site]
	i, _ := slices.BinarySearchFunc(sr.nodes, n, byID)
	sr.nodes = slices.Delete(sr.nodes, i, i+1)
	if p.Events.Active() {
		ev := event.At(event.NodePreempted, p.eng.Now())
		ev.Node = n.ID
		ev.Site = n.SiteName
		ev.Detail = kind
		p.Events.Emit(ev)
	}
	if p.OnPreempt != nil {
		p.OnPreempt(n)
	}
	if replace {
		p.maintain()
	}
}

// Kill removes a node for an internal reason (e.g. disk overflow shutting
// down the daemons, §IV.D.2) and requests a replacement.
func (p *Pool) Kill(id netmodel.NodeID) {
	if n := p.Node(id); n != nil {
		p.preempt(n, &p.stats.Killed, true, "killed")
	}
}

// PreemptSite immediately preempts fraction frac of our nodes at site index
// i (failure injection for site-outage experiments).
func (p *Pool) PreemptSite(i int, frac float64) int {
	return p.batchPreempt(p.sites[i], frac)
}

// SiteIndexByName returns the index of the named site, or -1 when the pool
// has no site with that GLIDEIN_ResourceName.
func (p *Pool) SiteIndexByName(name string) int {
	for i, s := range p.sites {
		if s.cfg.Name == name {
			return i
		}
	}
	return -1
}

// PreemptSiteNamed preempts fraction frac of our nodes at the named site.
// Unlike the index-based PreemptSite it cannot silently hit the wrong site:
// an unknown name is an error.
func (p *Pool) PreemptSiteNamed(name string, frac float64) (int, error) {
	i := p.SiteIndexByName(name)
	if i < 0 {
		return 0, fmt.Errorf("grid: no site named %q", name)
	}
	return p.batchPreempt(p.sites[i], frac), nil
}

// BurstPreempt preempts fraction frac of our nodes at every site at once (a
// grid-wide preemption storm: a higher-priority campaign claiming slots
// everywhere simultaneously). It returns the number of nodes lost.
func (p *Pool) BurstPreempt(frac float64) int {
	killed := 0
	for _, sr := range p.sites {
		if n := p.batchPreempt(sr, frac); n > 0 {
			p.stats.BatchEvents++
			killed += n
		}
	}
	return killed
}

// KillFraction kills fraction frac of all alive workers, chosen uniformly
// across the pool regardless of site (failure injection; the pool requests
// replacements as it does for any external kill). It returns the number of
// nodes killed.
func (p *Pool) KillFraction(frac float64) int {
	victims := p.AliveNodes()
	sim.Shuffle(p.eng.Source(), victims)
	k := int(frac*float64(len(victims)) + 0.5)
	if k > len(victims) {
		k = len(victims)
	}
	for _, n := range victims[:k] {
		p.preempt(n, &p.stats.Killed, true, "killed")
	}
	return k
}

func (p *Pool) scheduleBatchPreemption(sr *siteRuntime) {
	if sr.cfg.BatchPreemptEvery.IsZero() || sr.cfg.BatchPreemptFrac <= 0 {
		return
	}
	p.eng.After(sr.cfg.BatchPreemptEvery.Sample(p.eng.Rand()), func() {
		if n := p.batchPreempt(sr, sr.cfg.BatchPreemptFrac); n > 0 {
			p.stats.BatchEvents++
		}
		p.scheduleBatchPreemption(sr)
	})
}

func (p *Pool) batchPreempt(sr *siteRuntime, frac float64) int {
	// The shuffle starts from ID order; preempt edits sr.nodes, so it
	// shuffles a copy.
	victims := slices.Clone(sr.nodes)
	sim.Shuffle(p.eng.Source(), victims)
	k := int(frac*float64(len(victims)) + 0.5)
	if k > len(victims) {
		k = len(victims)
	}
	for _, n := range victims[:k] {
		p.preempt(n, &p.stats.BatchPreempted, true, "batch")
	}
	return k
}

// anyAliveNode returns the newest alive node, the first one a shrinking
// target releases, or nil.
func (p *Pool) anyAliveNode() *Node {
	var best *Node
	for _, sr := range p.sites {
		if k := len(sr.nodes); k > 0 && (best == nil || sr.nodes[k-1].ID > best.ID) {
			best = sr.nodes[k-1]
		}
	}
	return best
}
