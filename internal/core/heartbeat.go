package core

import (
	"slices"

	"hog/internal/liveness"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// This file is the heartbeat driver. Every worker beats both masters each
// heartbeat interval, but in the steady state — healthy, master-reachable,
// no gray loss, no master retry — a beat only records "heard from at this
// tick". So each master's heartbeat ledger (internal/liveness) keeps one
// tick stamp (BeatTick) that its steady records read, and the driver visits
// only the exceptions, in workerList order:
//
//   - workers that joined but have not beaten yet,
//   - workers that died since the last tick, which drops them,
//   - zombies, partitioned, gray-lossy and master-retrying workers.
//
// A worker leaves the list when a visit finds it steady and beating (Settle),
// and rejoins it at every transition that can stop its beats (unsettle),
// which freezes its records into the masters' quiet sets (Quiesce). The dead
// scans walk only those quiet sets. The contract is the eager loop's, event
// for event and draw for draw: that loop is kept as the oracle in the tests.
//
// While the JobTracker has an unfinished job, each beat may assign tasks and
// draw engine randomness, so the tick walks every worker in order as the
// eager loop did, minus the per-record writes. Without one, assign is a
// no-op and the tick walks the exception list alone.

// Work counts the work of the simulator's hot loops: driver ticks and the
// worker visits they made (the idle ticks walked only the exception list),
// each master's dead scans with the records they visited, the network
// rebalancer's passes, and map assignment's job probes. The counts are exact
// for a seed but feed no result, census or snapshot.
type Work struct {
	Ticks, IdleTicks   int64
	Visits, IdleVisits int64
	// Exceptions is the exception list's current length, counting the
	// workers unsettled since the last tick.
	Exceptions int

	// NN and JT are the masters' dead-scan work, with their current
	// quiet-set sizes: what their next dead scans will visit.
	NN, JT liveness.Work

	// Net is the network rebalancer's work: rebalances, registry entries
	// visited and flows re-timed.
	Net netmodel.Work
	// MapProbes counts the jobs map assignment probed for a pending map,
	// and PlacementLookups the per-node and per-site placement-index
	// lookups those probes made.
	MapProbes, PlacementLookups int64
}

// Work returns the work counters.
func (s *System) Work() Work {
	w := s.work
	w.Exceptions = len(s.exc) + len(s.excNew)
	w.NN = s.NN.LivenessWork()
	w.JT = s.JT.LivenessWork()
	w.Net = s.Net.Work()
	w.MapProbes, w.PlacementLookups = s.JT.AssignWork()
	return w
}

// tick is one heartbeat beat of every worker.
func (s *System) tick() {
	nnDown, jtDown := s.NN.Down(), s.JT.Down()
	now := s.Eng.Now()
	s.work.Ticks++
	var keep []*worker
	s.walking = true
	if s.JT.AllDone() && !nnDown && !jtDown {
		if len(s.excNew) > 0 {
			s.exc = append(s.exc, s.excNew...)
			clear(s.excNew)
			s.excNew = s.excNew[:0]
			slices.SortFunc(s.exc, func(a, b *worker) int { return int(a.seq - b.seq) })
		}
		keep = s.exc[:0]
		for _, w := range s.exc {
			if s.visit(w, now, false, false) {
				keep = append(keep, w)
			}
		}
		s.work.IdleTicks++
		s.work.IdleVisits += int64(len(s.exc))
		s.work.Visits += int64(len(s.exc))
	} else {
		// Every unsettled worker is visited below; the list is rebuilt.
		clear(s.excNew)
		s.excNew = s.excNew[:0]
		keep = s.exc[:0]
		for _, w := range s.workerList {
			if w.exc || nnDown || jtDown {
				if s.visit(w, now, nnDown, jtDown) {
					keep = append(keep, w)
				}
				continue
			}
			// Steady: the datanode beat is implied by BeatTick.
			s.JT.HeartbeatTracker(w.tr)
		}
		s.work.Visits += int64(len(s.workerList))
	}
	clear(keep[len(keep):cap(keep)])
	s.exc = keep
	s.walking = false
	s.NN.BeatTick()
	s.JT.BeatTick()
}

// visit runs one exceptional worker's beat exactly as the eager loop does,
// then settles the worker if it is steady again. It reports whether the
// worker stays on the exception list.
func (s *System) visit(w *worker, now sim.Time, nnDown, jtDown bool) bool {
	// The masters' tick stamps still read the previous tick, the last one
	// this worker may have beaten on.
	w.exc = true
	s.quiesce(w)
	if w.health == workerDead {
		return false
	}
	// A partitioned worker's beats drop silently: the masters' dead
	// timeouts fire exactly as for a crash, but the daemons are intact and
	// heal-side recovery revives them (faults.go). The worker does not
	// enter the master-loss retry state — its problem is the network, not
	// the master.
	if !s.Net.MasterReachable(w.id) {
		return true
	}
	// Gray heartbeat loss: each beat is dropped with probability grayLoss,
	// drawn from the dedicated counting "gray" stream. Fault-free grayLoss
	// is zero everywhere and no draw happens, keeping fault-free runs
	// byte-identical draw-for-draw.
	if w.grayLoss > 0 && s.gray.rnd.Float64() < w.grayLoss {
		return true
	}
	// Zombies beat only the JobTracker: their datanode died with the
	// working directory.
	if w.health == workerHealthy {
		if nnDown || w.nn.lost {
			if s.retry(w, &w.nn, now, nnDown, "namenode") {
				s.NN.Reregister(w.id)
			}
		} else {
			s.NN.HeartbeatDatanode(w.dn)
		}
	}
	if jtDown || w.jt.lost {
		if s.retry(w, &w.jt, now, jtDown, "jobtracker") {
			s.JT.ReregisterTracker(w.tr)
		}
	} else {
		s.JT.HeartbeatTracker(w.tr)
	}
	if w.health == workerZombie || !s.lazy || nnDown || jtDown || w.nn.lost || w.jt.lost || w.grayLoss > 0 {
		return true
	}
	if nn, jt := s.NN.Settle(w.dn), s.JT.Settle(w.tr); !nn || !jt {
		return true
	}
	w.exc = false
	return false
}

// unsettle puts a worker on the exception list at a transition that may stop
// its beats, freezing its records at the last tick. Transitions happen in
// events of their own, never inside a tick: nothing a beat calls changes a
// worker's health, reachability or gray loss, and a tick that saw one could
// not tell whether the worker had beaten yet.
func (s *System) unsettle(w *worker) {
	if s.walking {
		panic("core: worker state changed inside a heartbeat tick")
	}
	if w.exc {
		return
	}
	w.exc = true
	s.quiesce(w)
	s.excNew = append(s.excNew, w)
}

func (s *System) quiesce(w *worker) {
	s.NN.Quiesce(w.dn)
	s.JT.Quiesce(w.tr)
}
