package core

// UseEagerHeartbeats switches s to eagerTick, the per-worker heartbeat loop
// the lazy driver replaced, kept as the equivalence oracle. Call it before
// the system runs.
func UseEagerHeartbeats(s *System) { s.heartbeat = func() { eagerTick(s) } }
