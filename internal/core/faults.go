package core

import (
	"fmt"
	"math/rand"

	"hog/internal/event"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// This file is the system-level face of the beyond-crash-stop fault model
// (docs/FAULTS.md): network partitions (site- and node-level, optionally
// asymmetric), gray degradation (slow disks, probabilistic heartbeat loss),
// and block corruption. Each verb here is what a scenario step fires; the
// mechanics live in the substrates (netmodel's reachability oracle, hdfs's
// corruption/recovery paths, mapred's ghost resolution) and this layer wires
// them into the worker lifecycle: who gets cut, who gets ghosted at install
// time, and who gets revived when the fault heals.

// grayStream is the dedicated counting RNG stream behind probabilistic gray
// heartbeat loss. It is deliberately separate from the engine stream: gray
// draws happen on every gated beat, and routing them through Eng.Rand()
// would shift every later fault-path jitter draw, destroying the property
// that a gray scenario perturbs only what it touches. The counting source
// makes its position snapshot-verifiable (core.RNGStreams "gray").
type grayStream struct {
	src *sim.CountingSource
	rnd *rand.Rand
}

// graySeedSalt separates the gray stream's seed from the engine's so the two
// never produce correlated sequences for any config seed.
const graySeedSalt = 0x6772617973747265 // "graystre"

func newGrayStream(seed int64) *grayStream {
	src := sim.NewCountingSource(seed ^ graySeedSalt)
	return &grayStream{src: src, rnd: rand.New(src)}
}

// partitionCuts maps a scenario mode string onto cut directions. "both" (or
// empty) is a full partition; "in" drops only traffic toward the target (the
// masters keep hearing its heartbeats — the asymmetric gray zone); "out"
// drops only traffic from it (silent to the masters, like a crash, but the
// daemons live on).
func partitionCuts(mode string) (cutIn, cutOut bool, err error) {
	switch mode {
	case "", "both":
		return true, true, nil
	case "in":
		return true, false, nil
	case "out":
		return false, true, nil
	}
	return false, false, fmt.Errorf("unknown partition mode %q (want both, in, or out)", mode)
}

// pickWorkers returns up to count healthy workers at the named site that
// pass ok, in ascending node-ID order — the deterministic fire-time target
// resolution scenario verbs use (node IDs do not exist at Apply time on a
// grid system, so targets must be chosen when the step fires).
func (s *System) pickWorkers(site string, count int, ok func(*worker) bool) []*worker {
	id, found := s.Net.SiteByName(site)
	if !found {
		return nil
	}
	var cands []*worker
	for _, w := range s.workerList {
		if w.health != workerHealthy || s.Net.SiteOf(w.id) != id {
			continue
		}
		if ok != nil && !ok(w) {
			continue
		}
		cands = append(cands, w)
	}
	if count > 0 && len(cands) > count {
		cands = cands[:count]
	}
	return cands
}

// ghostPartitioned converts the running attempts of every worker being cut
// off outbound into ghosts: the partitioned daemons keep executing out
// there, but nothing they do can reach the masters, so master-side state
// must stop hearing from them the moment the cut lands. The JobTracker's
// dead timeout then fires exactly as for a crash — the master cannot tell a
// partition from a death, which is the point.
func (s *System) ghostPartitioned(w *worker) {
	s.unsettle(w)
	s.JT.NodeCrashed(w.id)
}

// partitionSite installs a directed cut between the named site and the
// rest of the fabric (mode per partitionCuts). Heartbeats, block reports,
// shuffle fetches, and replication transfers across the cut all stop; nodes
// within the site still reach each other. Emits PartitionStarted with the
// number of healthy workers behind the cut. The partition-site step checked
// the mode when it was built and the site at Apply.
func (s *System) partitionSite(site, mode string) {
	cutIn, cutOut, _ := partitionCuts(mode)
	id, _ := s.Net.SiteByName(site)
	s.Net.PartitionSite(id, cutIn, cutOut)
	if s.partedSites == nil {
		s.partedSites = make(map[string]string)
	}
	s.partedSites[site] = mode
	affected := 0
	for _, w := range s.workerList {
		if w.health != workerHealthy || s.Net.SiteOf(w.id) != id {
			continue
		}
		affected++
		if cutOut {
			s.ghostPartitioned(w)
		}
	}
	s.emitPartition(event.PartitionStarted, site, mode, affected)
}

// partitionNodes installs node-level cuts on the count lowest-ID healthy
// workers of the named site (mode per partitionCuts, checked when the step
// was built). Node cuts sever the victims even from their own site's nodes.
func (s *System) partitionNodes(site string, count int, mode string) {
	cutIn, cutOut, _ := partitionCuts(mode)
	picked := s.pickWorkers(site, count, func(w *worker) bool {
		_, already := s.partedNodes[w.id]
		return !already
	})
	if s.partedNodes == nil {
		s.partedNodes = make(map[netmodel.NodeID]string)
	}
	for _, w := range picked {
		s.Net.PartitionNode(w.id, cutIn, cutOut)
		s.partedNodes[w.id] = mode
		if cutOut {
			s.ghostPartitioned(w)
		}
	}
	s.emitPartition(event.PartitionStarted, site, "node:"+mode, len(picked))
}

// healPartition removes the site-level cut on the named site and every
// node-level cut on workers there, then runs heal-side recovery for each
// healthy worker that was behind a cut: a datanode the namenode dead-marked
// (but whose hardware survived) re-registers with its preserved replica
// inventory, a dead-marked tracker revives, and a tracker the JobTracker
// still believes alive gets its ghost beliefs resolved immediately instead
// of waiting out the timeout. The site was checked at Apply.
func (s *System) healPartition(site string) {
	id, _ := s.Net.SiteByName(site)
	_, siteCut := s.partedSites[site]
	healed := 0
	for _, w := range s.workerList {
		if w.health != workerHealthy || s.Net.SiteOf(w.id) != id {
			continue
		}
		if _, nodeCut := s.partedNodes[w.id]; siteCut || nodeCut {
			healed++
		}
	}
	// Node cuts outlive their workers' deaths, and the tick drops dead
	// workers from workerList, so the cuts come from partedNodes. Lifting
	// a cut is order-free.
	for nid := range s.partedNodes {
		if s.Net.SiteOf(nid) == id {
			s.Net.HealNode(nid)
			delete(s.partedNodes, nid)
		}
	}
	if siteCut {
		s.Net.HealSite(id)
		delete(s.partedSites, site)
	}
	// Recovery runs after every cut is lifted so re-replication and
	// reassignment triggered by one worker's revival can already reach the
	// others.
	for _, w := range s.workerList {
		if w.health != workerHealthy || s.Net.SiteOf(w.id) != id {
			continue
		}
		s.recoverWorker(w)
	}
	s.emitPartition(event.PartitionHealed, site, "", healed)
}

// recoverWorker reconciles one healthy worker with the masters after the
// network between them heals. A revived record is quiet until the driver
// sees the worker beat again.
func (s *System) recoverWorker(w *worker) {
	if w.dn != nil && !w.dn.Alive {
		s.NN.RecoverDatanode(w.id)
		s.unsettle(w)
	}
	if w.tr != nil {
		if !w.tr.Alive {
			s.JT.ReviveTracker(w.id)
			s.unsettle(w)
		} else {
			s.JT.DropGhostsOn(w.id)
		}
	}
}

func (s *System) emitPartition(t event.Type, site, detail string, n int) {
	if !s.bus.Active() {
		return
	}
	ev := event.At(t, s.Eng.Now())
	ev.Site = site
	ev.Detail = detail
	ev.Value = n
	s.bus.Emit(ev)
}

// degradeNodes puts the count lowest-ID healthy workers of the named
// site under gray degradation: their disks run at 1/factor of nominal
// bandwidth (factor 1 leaves disks alone), their compute slows by the same
// factor, each heartbeat beat is dropped with probability loss (drawn from
// the counted "gray" stream), and the namenode excludes them from replica
// placement while flagged. The nodes stay registered and mostly responsive —
// the "limping, not dead" failure the dead-timeout machinery cannot see.
// The degrade-nodes step checked factor >= 1 and loss in [0,1) when it was
// built.
func (s *System) degradeNodes(site string, count int, factor, loss float64) {
	if s.degraded == nil {
		s.degraded = make(map[netmodel.NodeID]struct{})
	}
	picked := s.pickWorkers(site, count, func(w *worker) bool {
		_, already := s.degraded[w.id]
		return !already
	})
	for _, w := range picked {
		s.degraded[w.id] = struct{}{}
		w.grayLoss = loss
		s.unsettle(w)
		if w.tr != nil {
			w.origSpeed = w.tr.Speed
			if factor > 1 {
				w.tr.Speed = w.origSpeed / factor
			}
		}
		if factor > 1 {
			s.Net.SetNodeDiskFactor(w.id, factor)
		}
		s.NN.SetNodeGray(w.id, true)
		if s.bus.Active() {
			ev := event.At(event.NodeDegraded, s.Eng.Now())
			ev.Node = w.id
			ev.Site = site
			ev.Detail = fmt.Sprintf("disk/%gx loss/%.2f", factor, loss)
			s.bus.Emit(ev)
		}
	}
}

// restoreNodes lifts gray degradation from every degraded worker at the
// named site (checked at Apply): disk and compute return to nominal,
// heartbeat loss stops, and the namenode accepts the nodes for placement
// again.
func (s *System) restoreNodes(site string) {
	id, _ := s.Net.SiteByName(site)
	for _, w := range s.workers {
		nid := w.id
		if _, ok := s.degraded[nid]; !ok || s.Net.SiteOf(nid) != id {
			continue
		}
		delete(s.degraded, nid)
		w.grayLoss = 0
		if w.tr != nil && w.origSpeed > 0 {
			w.tr.Speed = w.origSpeed
		}
		if s.Net.NodeDiskFactor(nid) != 1 {
			s.Net.SetNodeDiskFactor(nid, 1)
		}
		s.NN.SetNodeGray(nid, false)
		if s.bus.Active() {
			ev := event.At(event.NodeRestored, s.Eng.Now())
			ev.Node = nid
			ev.Site = site
			s.bus.Emit(ev)
		}
	}
}

// corruptReplicas silently corrupts up to count replicas of the named
// file, spreading the damage round-robin across its blocks (replica holders
// visited in ascending node-ID order; fire-time resolution, since the file
// and its placement exist only once the workload staged it). A block's last
// healthy replica is never corrupted, so every damaged block keeps a clean
// copy for read failover and re-replication — corruption here models silent
// bit rot that the checksum path must detect and repair, not data loss.
// Nothing is corrupted when the file does not exist (yet) or no block can
// spare another replica.
func (s *System) corruptReplicas(file string, count int) {
	fi := s.NN.File(file)
	if fi == nil {
		return
	}
	corrupted := 0
	for progressed := true; progressed && corrupted < count; {
		progressed = false
		for _, bid := range fi.Blocks {
			if corrupted >= count {
				break
			}
			b := s.NN.Block(bid)
			if b == nil {
				continue
			}
			reps := b.Replicas()
			healthy := 0
			for _, nid := range reps {
				if !b.CorruptOn(nid) {
					healthy++
				}
			}
			if healthy < 2 {
				continue
			}
			for _, nid := range reps {
				if !b.CorruptOn(nid) && s.NN.CorruptReplica(bid, nid) {
					corrupted++
					progressed = true
					break
				}
			}
		}
	}
}

// PartitionedSites returns the number of sites with an installed cut.
func (s *System) PartitionedSites() int { return len(s.partedSites) }

// PartitionedNodes returns the number of nodes with an installed cut.
func (s *System) PartitionedNodes() int { return len(s.partedNodes) }

// DegradedNodes returns the number of workers under gray degradation.
func (s *System) DegradedNodes() int { return len(s.degraded) }

// GrayDraws returns the number of values drawn from the gray heartbeat-loss
// stream — zero on any fault-free run (determinism contract).
func (s *System) GrayDraws() uint64 { return s.gray.src.Draws() }
