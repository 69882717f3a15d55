package core

// eagerTick is the heartbeat driver before lazy heartbeats, apart from the
// work counts and the reconnect loop it shares with the lazy driver (retry):
// every beat walks every worker and writes each master record it reaches. The masters never see Settle under it, so all their
// records stay quiet and each dead scan walks every alive record, as the old
// scans did.
func eagerTick(s *System) {
	nnDown := s.NN.Down()
	jtDown := s.JT.Down()
	now := s.Eng.Now()
	s.work.Ticks++
	s.work.Visits += int64(len(s.workers))
	for _, w := range s.workers {
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
	}
}
