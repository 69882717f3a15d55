package core

// eagerTick is the heartbeat driver before lazy heartbeats, verbatim apart
// from the work counts: every beat walks every worker and writes each master
// record it reaches. The masters never see Settle under it, so all their
// records stay quiet and each dead scan walks every alive record, as the old
// scans did.
func eagerTick(s *System) {
	nnDown := s.NN.Down()
	jtDown := s.JT.Down()
	now := s.Eng.Now()
	s.work.Ticks++
	s.work.Visits += int64(len(s.workerList))
	for _, w := range s.workerList {
		if w.health == workerDead {
			continue
		}
		// A partitioned worker's beats drop silently: the masters'
		// dead timeouts fire exactly as for a crash, but the daemons
		// are intact and heal-side recovery revives them (faults.go).
		// The worker does not enter the master-loss retry state — its
		// problem is the network, not the master.
		if !s.Net.MasterReachable(w.id) {
			continue
		}
		// Gray heartbeat loss: each beat is dropped with probability
		// grayLoss, drawn from the dedicated counting "gray" stream.
		// Fault-free grayLoss is zero everywhere and no draw happens,
		// keeping fault-free runs byte-identical draw-for-draw.
		if w.grayLoss > 0 && s.gray.rnd.Float64() < w.grayLoss {
			continue
		}
		switch w.health {
		case workerHealthy:
			if nnDown || w.nnLost {
				s.retryNN(w, now, nnDown)
			} else {
				s.NN.HeartbeatDatanode(w.dn)
			}
			if jtDown || w.jtLost {
				s.retryJT(w, now, jtDown)
			} else {
				s.JT.HeartbeatTracker(w.tr)
			}
		case workerZombie:
			if jtDown || w.jtLost {
				s.retryJT(w, now, jtDown)
			} else {
				s.JT.HeartbeatTracker(w.tr)
			}
		}
	}
}
