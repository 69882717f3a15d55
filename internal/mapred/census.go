package mapred

import (
	"encoding/binary"
	"hash/fnv"
)

// Census is a deterministic digest of JobTracker state, recorded in
// snapshots and re-checked after a deterministic replay.
type Census struct {
	Trackers      int    `json:"trackers"`
	AliveTrackers int    `json:"alive_trackers"`
	Jobs          int    `json:"jobs"`
	ActiveJobs    int    `json:"active_jobs"`
	AttemptSeq    int64  `json:"attempt_seq"`
	Down          bool   `json:"down"`
	Hash          uint64 `json:"hash"`
}

// Census digests the JobTracker's current state. AttemptSeq is a strict
// event-order signature (every task attempt ever launched draws one); the
// hash additionally walks every tracker in ascending node order and every
// job's tasks in submission order, covering completion counts, failures and
// per-job counters.
func (jt *JobTracker) Census() Census {
	c := Census{
		Jobs:       len(jt.jobs),
		ActiveJobs: jt.active,
		AttemptSeq: jt.attemptSeq,
		Down:       jt.down,
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	jt.ForEachTracker(func(tr *TaskTracker) {
		c.Trackers++
		put(uint64(tr.Node))
		if tr.Alive {
			c.AliveTrackers++
			put(1)
		} else {
			put(0)
		}
	})
	for _, j := range jt.jobs {
		put(uint64(j.ID))
		put(uint64(j.State))
		put(uint64(j.completedMaps))
		put(uint64(j.completedReduces))
		cnt := j.counters
		put(uint64(cnt.MapAttemptsStarted))
		put(uint64(cnt.MapAttemptsFailed))
		put(uint64(cnt.ReduceAttemptsStarted))
		put(uint64(cnt.ReduceAttemptsFailed))
		put(uint64(cnt.SpeculativeMaps))
		put(uint64(cnt.SpeculativeReduces))
		put(uint64(cnt.MapsReExecuted))
		put(uint64(cnt.FetchFailures))
		for _, mt := range j.maps {
			flags := uint64(0)
			if mt.done {
				flags = 1
			}
			put(flags)
			put(uint64(mt.failures))
			put(uint64(len(mt.attempts)))
		}
		for _, rt := range j.reduces {
			flags := uint64(0)
			if rt.done {
				flags = 1
			}
			put(flags)
			put(uint64(rt.failures))
			put(uint64(len(rt.attempts)))
		}
	}
	c.Hash = h.Sum64()
	return c
}
