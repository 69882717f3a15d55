// Package netmodel provides a fluid-flow network and disk model for the
// simulated grid.
//
// The model captures the bandwidth structure the paper relies on (§III.B.1):
// bandwidth inside a site is much larger than bandwidth between sites. Each
// node has a full-duplex NIC; each site has a WAN uplink and downlink shared
// by all of its nodes; cross-site flows are additionally capped per flow to
// model TCP throughput over a high-latency WAN. Disks are modelled as one
// more shared resource per node so that concurrent task I/O on a node slows
// down proportionally.
//
// Every active transfer is a fluid flow whose instantaneous rate is the
// minimum equal share across the links it crosses. Whenever a flow starts or
// finishes, affected flows are settled at their old rates, new rates are
// computed, and completions are re-scheduled on the simulation engine. This
// is the classic progressive-sharing approximation used by grid and
// datacenter simulators.
//
// # Incremental rebalancing
//
// A flow's rate is the minimum of capacity/population over its own links, so
// a join or leave can only change the rates of flows that share one of the
// links whose population changed. The network therefore keeps a per-link
// registry of active flows: each join/leave marks its links dirty, and
// rebalance() recomputes rates only for the flows on dirty links — O(affected)
// instead of O(all flows) per event. Untouched flows settle lazily: their
// rate is constant between the rebalances that touch them, so remaining
// bytes are materialised only when the rate actually changes (or on demand
// via Remaining()). Because both the incremental and the global path settle
// at exactly the rate-change instants, they produce bit-identical completion
// times; the global path is kept only in this package's tests, as the
// incremental rebalancer's equivalence oracle and benchmark baseline.
//
// Determinism: affected flows are processed in creation-sequence order, and
// timer rescheduling draws fresh engine tie-breaking sequence numbers, so
// same-instant completions fire in a stable order — never map order. Each
// link registry is kept sorted by creation seq (attach inserts in order,
// detach deletes in place), so a rebalance collects one ascending run per
// dirty link and merges the runs into creation order instead of sorting.
package netmodel

import (
	"fmt"
	"slices"
	"sort"

	"hog/internal/sim"
)

// NodeID identifies a node in the network. IDs are dense, starting at 0, in
// the order nodes were added, so per-node state lives in tables indexed by
// NodeID (Lookup, Store).
type NodeID int

// Lookup returns tab[id], or the zero value if id is outside tab.
func Lookup[T any](tab []T, id NodeID) (v T) {
	if uint(id) < uint(len(tab)) {
		v = tab[id]
	}
	return v
}

// Store sets tab[id] to v, first growing tab with zero values to reach id.
func Store[T any](tab []T, id NodeID, v T) []T {
	if n := int(id) + 1; n > len(tab) {
		tab = append(tab, make([]T, n-len(tab))...)
	}
	tab[id] = v
	return tab
}

// SiteID identifies a site (a shared WAN uplink/downlink domain).
type SiteID int

// Config holds the physical constants of the model. Zero fields are replaced
// by defaults (see DefaultConfig).
type Config struct {
	// NodeBps is per-node NIC bandwidth, bytes/sec, each direction.
	NodeBps float64
	// DiskBps is per-node disk bandwidth, bytes/sec, shared by reads and writes.
	DiskBps float64
	// WANFlowBps caps a single cross-site flow (TCP over WAN).
	WANFlowBps float64
	// LANLatency and WANLatency are one-way propagation delays added to the
	// start of each flow.
	LANLatency, WANLatency sim.Time
}

// DefaultConfig returns the constants used throughout the evaluation:
// 1 Gbps NICs (Table III), ~100 MB/s commodity disks, 100 Mbps per-flow WAN
// throughput, and 0.2 ms / 40 ms LAN / WAN latency.
func DefaultConfig() Config {
	return Config{
		NodeBps:    125e6,
		DiskBps:    100e6,
		WANFlowBps: 12.5e6,
		LANLatency: 200 * sim.Microsecond,
		WANLatency: 40 * sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.NodeBps <= 0 {
		c.NodeBps = d.NodeBps
	}
	if c.DiskBps <= 0 {
		c.DiskBps = d.DiskBps
	}
	if c.WANFlowBps <= 0 {
		c.WANFlowBps = d.WANFlowBps
	}
	if c.LANLatency <= 0 {
		c.LANLatency = d.LANLatency
	}
	if c.WANLatency <= 0 {
		c.WANLatency = d.WANLatency
	}
	return c
}

// link is a shared resource: NIC direction, site uplink/downlink, or disk.
// It keeps a registry of the active flows crossing it so a population change
// can find exactly the flows whose rate may have moved, and caches its
// equal-share value so the rebalance filter pass is divisions-free.
type link struct {
	capacity  float64
	shareVal  float64 // capacity / max(1, len(flows)), kept current
	prevShare float64 // shareVal when the link was first dirtied
	flows     []*Flow
	dirty     bool
}

func (l *link) share() float64 { return l.shareVal }

func (l *link) reshare() {
	if len(l.flows) == 0 {
		l.shareVal = l.capacity
	} else {
		l.shareVal = l.capacity / float64(len(l.flows))
	}
}

// attach inserts f into the registry, which is kept sorted by creation seq.
// Flows mostly join in creation order, so the walk back from the end is
// short: only a LAN flow that overtakes a WAN flow still in its latency
// lands before the tail.
func (l *link) attach(f *Flow) {
	i := len(l.flows)
	l.flows = append(l.flows, f)
	for i > 0 && l.flows[i-1].seq > f.seq {
		l.flows[i] = l.flows[i-1]
		i--
	}
	l.flows[i] = f
	l.reshare()
}

// detach removes f from the registry in place, keeping the seq order.
func (l *link) detach(f *Flow) {
	lo, hi := 0, len(l.flows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.flows[m].seq < f.seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(l.flows) && l.flows[lo] == f {
		l.flows = slices.Delete(l.flows, lo, lo+1)
		l.reshare()
	}
}

type nodeState struct {
	site     SiteID
	up, down link
	disk     link
	hostname string
}

type siteState struct {
	name     string
	up, down link
}

// Stats accumulates traffic counters for experiment reporting.
type Stats struct {
	// BytesTotal is the total payload bytes moved by completed flows
	// (network flows only, not disk I/O).
	BytesTotal float64
	// BytesCrossSite is the subset of BytesTotal that crossed a WAN link.
	BytesCrossSite float64
	// BytesDisk is total disk I/O bytes completed.
	BytesDisk float64
	// FlowsStarted and FlowsCanceled count network flows.
	FlowsStarted, FlowsCanceled int
}

// Work counts the rebalancer's work: the rebalances that ran, the registry
// entries they visited (every active flow, on the global path), and the
// flows they re-timed. The counts are exact for a seed but feed no result,
// census or snapshot.
type Work struct {
	Rebalances, Visits, Retimed int64
}

// Network is the simulated fabric. It is driven entirely by the sim engine
// and is not safe for concurrent use.
type Network struct {
	eng     *sim.Engine
	cfg     Config
	nodes   []*nodeState
	sites   []*siteState
	stats   Stats
	nActive int

	flowSeq  uint64  // creation-order stamp for deterministic iteration
	dirty    []*link // links whose population changed since the last rebalance
	affected []*Flow // scratch: flows touched by the current rebalance
	mergeBuf []*Flow // scratch: the other half of the run merge
	runEnds  []int   // scratch: end of each seq-ordered run in affected
	epoch    uint64  // rebalance generation, for affected-set dedupe
	batching int     // >0 while Batch() defers rebalancing
	work     Work

	// global selects the O(flows) rebalance-everything path instead of the
	// link-scoped incremental one. Both produce identical results; only
	// this package's tests set it (export_test.go), as the equivalence
	// oracle and benchmark baseline. order holds all active flows sorted by
	// creation seq, maintained only in global mode.
	global bool
	order  []*Flow

	// Directed partition state (partition.go), keyed by int(SiteID) /
	// int(NodeID); nParted counts installed cuts so the fault-free Reachable
	// fast path is one integer compare. diskFactors holds the non-nominal
	// gray disk deratings.
	partInSite, partOutSite map[int]struct{}
	partInNode, partOutNode map[int]struct{}
	nParted                 int
	diskFactors             map[int]float64
}

// New creates an empty network on eng.
func New(eng *sim.Engine, cfg Config) *Network {
	return &Network{
		eng: eng,
		cfg: cfg.withDefaults(),
	}
}

// AddSite registers a site with the given WAN uplink/downlink capacities in
// bytes/sec and returns its ID.
func (n *Network) AddSite(name string, uplinkBps, downlinkBps float64) SiteID {
	n.sites = append(n.sites, &siteState{
		name: name,
		up:   link{capacity: uplinkBps, shareVal: uplinkBps},
		down: link{capacity: downlinkBps, shareVal: downlinkBps},
	})
	return SiteID(len(n.sites) - 1)
}

// AddNode registers a node at site and returns its ID. The network is the
// only owner of the node's hostname; the namenode derives the node's
// awareness site from it (hdfs.Namenode.Register).
func (n *Network) AddNode(site SiteID, hostname string) NodeID {
	if int(site) < 0 || int(site) >= len(n.sites) {
		panic(fmt.Sprintf("netmodel: AddNode with unknown site %d", site))
	}
	n.nodes = append(n.nodes, &nodeState{
		site:     site,
		up:       link{capacity: n.cfg.NodeBps, shareVal: n.cfg.NodeBps},
		down:     link{capacity: n.cfg.NodeBps, shareVal: n.cfg.NodeBps},
		disk:     link{capacity: n.cfg.DiskBps, shareVal: n.cfg.DiskBps},
		hostname: hostname,
	})
	return NodeID(len(n.nodes) - 1)
}

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumSites returns the number of registered sites.
func (n *Network) NumSites() int { return len(n.sites) }

// SiteOf returns the site a node belongs to.
func (n *Network) SiteOf(id NodeID) SiteID { return n.nodes[id].site }

// SiteName returns the registered name of a site.
func (n *Network) SiteName(id SiteID) string { return n.sites[id].name }

// SiteByName returns the ID of the site registered under name.
func (n *Network) SiteByName(name string) (SiteID, bool) {
	for i, s := range n.sites {
		if s.name == name {
			return SiteID(i), true
		}
	}
	return 0, false
}

// SiteBandwidth returns a site's current WAN uplink/downlink capacities in
// bytes/sec.
func (n *Network) SiteBandwidth(site SiteID) (uplinkBps, downlinkBps float64) {
	s := n.sites[site]
	return s.up.capacity, s.down.capacity
}

// SetSiteBandwidth changes a site's WAN capacities mid-run (failure
// injection: a degraded or congested WAN path). Active flows crossing the
// site's links are settled at their old rates and re-timed at the new
// shares, exactly as a population change would.
func (n *Network) SetSiteBandwidth(site SiteID, uplinkBps, downlinkBps float64) {
	s := n.sites[site]
	n.markDirty(&s.up)
	n.markDirty(&s.down)
	s.up.capacity = uplinkBps
	s.up.reshare()
	s.down.capacity = downlinkBps
	s.down.reshare()
	n.rebalance()
}

// Hostname returns the hostname a node was registered with.
func (n *Network) Hostname(id NodeID) string { return n.nodes[id].hostname }

// SameSite reports whether two nodes share a site.
func (n *Network) SameSite(a, b NodeID) bool { return n.nodes[a].site == n.nodes[b].site }

// Stats returns a copy of the accumulated traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// Work returns the rebalancer's work counters.
func (n *Network) Work() Work { return n.work }

// ActiveFlows returns the number of in-flight flows (network and disk).
func (n *Network) ActiveFlows() int { return n.nActive }

// Batch runs fn with rate rebalancing deferred: flows started, canceled or
// completed synchronously inside fn trigger a single rebalance when the
// outermost Batch returns, instead of one per call. Starting k same-instant
// disk I/Os (an HDFS write pipeline, a reduce shuffle wave) this way costs
// one rate recomputation rather than k. Batching is transparent to results:
// same-instant settlements are no-ops and affected flows are re-timed in
// creation order either way.
func (n *Network) Batch(fn func()) {
	n.batching++
	defer func() {
		n.batching--
		if n.batching == 0 {
			n.rebalance()
		}
	}()
	fn()
}

// Flow is an in-flight transfer. It is created by StartFlow or StartDiskIO
// and owned by the network until completion or cancellation.
type Flow struct {
	net        *Network
	links      []*link
	seq        uint64
	mark       uint64  // last rebalance epoch this flow was collected in
	newRate    float64 // scratch: pass-1 rate awaiting pass-2 application
	remaining  float64
	rate       float64
	lastSettle sim.Time
	capBps     float64
	done       func()
	timer      *sim.Timer
	active     bool // joined links (latency elapsed)
	finished   bool
	crossSite  bool
	diskIO     bool
	bytes      float64
}

// StartFlow begins a transfer of bytes from src to dst, invoking done when
// the last byte arrives. A cross-site flow crosses both sites' WAN links and
// is capped at cfg.WANFlowBps. src must differ from dst: a local "transfer"
// is disk traffic and must use StartDiskIO instead.
func (n *Network) StartFlow(src, dst NodeID, bytes float64, done func()) *Flow {
	if src == dst {
		panic("netmodel: StartFlow with src == dst; use StartDiskIO")
	}
	ns, nd := n.nodes[src], n.nodes[dst]
	f := &Flow{
		net:       n,
		seq:       n.flowSeq,
		remaining: bytes,
		bytes:     bytes,
		done:      done,
		capBps:    n.cfg.NodeBps,
	}
	n.flowSeq++
	latency := n.cfg.LANLatency
	f.links = append(f.links, &ns.up, &nd.down)
	if ns.site != nd.site {
		ss, sd := n.sites[ns.site], n.sites[nd.site]
		f.links = append(f.links, &ss.up, &sd.down)
		f.capBps = n.cfg.WANFlowBps
		f.crossSite = true
		latency = n.cfg.WANLatency
	}
	n.stats.FlowsStarted++
	n.admit(f, latency)
	return f
}

// StartDiskIO begins a disk read or write of bytes on node, invoking done on
// completion. Concurrent I/O on the same node shares the disk bandwidth.
func (n *Network) StartDiskIO(node NodeID, bytes float64, done func()) *Flow {
	f := &Flow{
		net:       n,
		seq:       n.flowSeq,
		remaining: bytes,
		bytes:     bytes,
		done:      done,
		capBps:    n.cfg.DiskBps,
		diskIO:    true,
	}
	n.flowSeq++
	f.links = append(f.links, &n.nodes[node].disk)
	n.admit(f, 0)
	return f
}

func (n *Network) admit(f *Flow, latency sim.Time) {
	if f.remaining <= 0 {
		// Zero-byte transfers complete after the propagation latency. The
		// flow stays cancelable until then: Cancel stops the timer and
		// suppresses done.
		f.timer = n.eng.After(latency, func() {
			if f.finished {
				return
			}
			f.finished = true
			if f.done != nil {
				f.done()
			}
		})
		return
	}
	join := func() {
		if f.finished {
			return
		}
		n.nActive++
		for _, l := range f.links {
			n.markDirty(l)
			l.attach(f)
		}
		f.active = true
		f.lastSettle = n.eng.Now()
		if n.global {
			n.orderInsert(f)
		}
		n.rebalance()
	}
	if latency > 0 {
		f.timer = n.eng.After(latency, join)
	} else {
		join()
	}
}

// Cancel aborts the flow without invoking done. Canceling a finished flow is
// a no-op.
func (f *Flow) Cancel() {
	if f.finished {
		return
	}
	f.finished = true
	if f.timer != nil {
		f.timer.Cancel()
	}
	if !f.diskIO {
		f.net.stats.FlowsCanceled++
	}
	if f.active {
		f.net.leave(f)
		f.net.rebalance()
	}
}

// Remaining returns the bytes not yet transferred, settled to the current
// instant.
func (f *Flow) Remaining() float64 {
	if f.finished {
		return 0
	}
	if !f.active {
		return f.remaining
	}
	dt := (f.net.eng.Now() - f.lastSettle).Seconds()
	rem := f.remaining - float64(f.rate*dt)
	if rem < 0 {
		rem = 0
	}
	return rem
}

func (n *Network) leave(f *Flow) {
	n.nActive--
	for _, l := range f.links {
		n.markDirty(l)
		l.detach(f)
	}
	f.active = false
	if n.global {
		n.orderRemove(f)
	}
}

// markDirty records a link whose population is about to change. Callers
// invoke it before attach/detach so prevShare captures the share the link's
// flows were last balanced against.
func (n *Network) markDirty(l *link) {
	if !l.dirty {
		l.dirty = true
		l.prevShare = l.shareVal
		n.dirty = append(n.dirty, l)
	}
}

// orderInsert keeps the global-mode flow list sorted by creation seq (flows
// can join out of creation order: WAN latency exceeds LAN latency).
func (n *Network) orderInsert(f *Flow) {
	i := sort.Search(len(n.order), func(i int) bool { return n.order[i].seq >= f.seq })
	n.order = append(n.order, nil)
	copy(n.order[i+1:], n.order[i:])
	n.order[i] = f
}

func (n *Network) orderRemove(f *Flow) {
	i := sort.Search(len(n.order), func(i int) bool { return n.order[i].seq >= f.seq })
	if i < len(n.order) && n.order[i] == f {
		n.order = append(n.order[:i], n.order[i+1:]...)
	}
}

// rebalance recomputes rates for every flow whose rate may have changed and
// reschedules their completion events. In incremental mode that is the flows
// registered on dirty links; in global mode it is every active flow (skips
// are cheap: an unchanged rate with a live timer needs no settling). Flows
// are processed in creation order in both modes so same-instant completions
// acquire identical tie-breaking sequence numbers.
func (n *Network) rebalance() {
	if n.batching > 0 {
		return
	}
	now := n.eng.Now()
	if n.global {
		for _, l := range n.dirty {
			l.dirty = false
		}
		n.dirty = n.dirty[:0]
		n.work.Rebalances++
		for _, f := range n.order {
			n.work.Visits++
			n.recompute(f, now)
		}
		return
	}
	if len(n.dirty) == 0 {
		return
	}
	n.work.Rebalances++
	// Pass 1, link by link: scan the dirty links' registries and keep only
	// the flows whose equal-share rate actually moved. Skipped flows have no
	// side effects, so ordering only matters for the survivors. Registries
	// are seq-ordered, so each link contributes one ascending run.
	n.epoch++
	changed := n.affected[:0]
	ends := n.runEnds[:0]
	for _, l := range n.dirty {
		l.dirty = false
		share := l.shareVal
		prev := l.prevShare
		n.work.Visits += int64(len(l.flows))
		start := len(changed)
		for _, f := range l.flows {
			if f.mark == n.epoch {
				continue
			}
			// Per-link fast reject: this link cannot have moved f's rate if
			// its share did not drop below the rate (no new bottleneck) and
			// was not the old bottleneck (f.rate < prev). Fresh or stalled
			// flows (rate 0) always take the slow path so they get timed.
			if share >= f.rate && f.rate < prev && f.rate > 0 {
				continue
			}
			f.mark = n.epoch
			rate := n.flowRate(f)
			if rate != f.rate || (rate > 0 && !f.timer.Active()) {
				f.newRate = rate
				changed = append(changed, f)
			}
		}
		if len(changed) > start {
			ends = append(ends, len(changed))
		}
	}
	n.dirty = n.dirty[:0]
	n.affected, n.runEnds = changed, ends
	// Pass 2, creation order: merge the runs, then settle and re-time. Fresh
	// tie-breaking seqs are drawn in the same order the global path would
	// draw them.
	ordered := n.mergeRuns(changed, ends)
	for _, f := range ordered {
		n.applyRate(f, now, f.newRate)
	}
	clear(changed)
	if len(ends) > 1 {
		clear(n.mergeBuf[:len(changed)])
	}
}

// mergeRuns orders a by seq. a is the concatenation of ascending runs, the
// i-th ending at ends[i]; adjacent runs are merged pairwise, bottom up,
// between a and the reused mergeBuf, so k runs of m flows in total cost
// O(m log k). The result aliases a or mergeBuf; ends is consumed.
func (n *Network) mergeRuns(a []*Flow, ends []int) []*Flow {
	if len(ends) <= 1 {
		return a
	}
	if cap(n.mergeBuf) < len(a) {
		n.mergeBuf = make([]*Flow, len(a), 2*len(a))
	}
	b := n.mergeBuf[:len(a)]
	for len(ends) > 1 {
		lo, out := 0, ends[:0]
		for i := 0; i < len(ends); i += 2 {
			if i+1 == len(ends) {
				copy(b[lo:], a[lo:ends[i]])
				out = append(out, ends[i])
				break
			}
			mid, hi := ends[i], ends[i+1]
			mergeSeq(b[lo:hi], a[lo:mid], a[mid:hi])
			out = append(out, hi)
			lo = hi
		}
		ends = out
		a, b = b, a
	}
	return a
}

// mergeSeq merges the seq-ascending runs x and y into dst, which has room
// for both.
func mergeSeq(dst, x, y []*Flow) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if x[i].seq < y[j].seq {
			dst[k] = x[i]
			i++
		} else {
			dst[k] = y[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}

// flowRate returns the flow's current equal-share rate: the minimum share
// across its links, capped per flow.
func (n *Network) flowRate(f *Flow) float64 {
	rate := f.capBps
	for _, l := range f.links {
		if s := l.share(); s < rate {
			rate = s
		}
	}
	return rate
}

// recompute settles f at its old rate and re-times its completion if the
// equal-share rate moved (the global path; the incremental path splits the
// rate computation into pass 1 and calls applyRate directly).
func (n *Network) recompute(f *Flow, now sim.Time) {
	rate := n.flowRate(f)
	if rate == f.rate && (rate <= 0 || f.timer.Active()) {
		return
	}
	n.applyRate(f, now, rate)
}

// applyRate settles f at its old rate, installs the new rate, and re-times
// the completion. Settling happens only at rate changes, never in between,
// so incremental and global rebalancing accumulate byte-identical remaining
// values.
func (n *Network) applyRate(f *Flow, now sim.Time, rate float64) {
	n.work.Retimed++
	if dt := (now - f.lastSettle).Seconds(); dt > 0 {
		f.remaining -= float64(f.rate * dt)
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastSettle = now
	f.rate = rate
	if rate <= 0 {
		if f.timer != nil {
			f.timer.Cancel()
			f.timer = nil
		}
		return
	}
	fin := sim.Seconds(f.remaining / rate)
	if fin < 0 {
		fin = 0
	}
	if f.timer.Active() {
		f.timer.Reschedule(now + fin)
	} else {
		ff := f
		f.timer = n.eng.Schedule(now+fin, func() { n.complete(ff) })
	}
}

func (n *Network) complete(f *Flow) {
	if f.finished {
		return
	}
	f.finished = true
	n.leave(f)
	if f.diskIO {
		n.stats.BytesDisk += f.bytes
	} else {
		n.stats.BytesTotal += f.bytes
		if f.crossSite {
			n.stats.BytesCrossSite += f.bytes
		}
	}
	n.rebalance()
	if f.done != nil {
		f.done()
	}
}
