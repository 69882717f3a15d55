package mapred

import (
	"fmt"

	"hog/internal/event"
	"hog/internal/hdfs"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// ghost is the JobTracker's stale belief that an attempt is still running on
// a node that silently died. Hadoop keeps such tasks in RUNNING state until
// the tracker expires (15 minutes traditionally, 30 seconds in HOG); only
// speculation can rescue them earlier. Ghosts occupy the task's copy budget
// and its scheduler slot-view exactly like live attempts.
type ghost struct {
	node    netmodel.NodeID
	started sim.Time
}

// mapTask is one map task: processes one input block.
type mapTask struct {
	job        *Job
	idx        int
	block      hdfs.BlockID
	inputBytes float64

	attempts []*attempt
	ghosts   []ghost
	failures int
	failedOn map[netmodel.NodeID]bool
	done     bool
	duration sim.Time

	// outputNode hosts the winning attempt's intermediate output.
	outputNode  netmodel.NodeID
	outputBytes float64

	// idxClass is the task's current scheduler-index classification.
	idxClass taskClass
}

// reduceTask is one reduce task: fetches a partition from every map, sorts,
// reduces, and writes replicated output to HDFS.
type reduceTask struct {
	job      *Job
	idx      int
	attempts []*attempt
	ghosts   []ghost
	failures int
	failedOn map[netmodel.NodeID]bool
	done     bool
	duration sim.Time

	// idxClass is the task's current scheduler-index classification.
	idxClass taskClass
}

func runningCount(atts []*attempt) int {
	n := 0
	for _, a := range atts {
		if a.live() {
			n++
		}
	}
	return n
}

func runningOn(atts []*attempt, node netmodel.NodeID) bool {
	for _, a := range atts {
		if a.live() && a.node == node {
			return true
		}
	}
	return false
}

func oldestStart(atts []*attempt) sim.Time {
	var oldest sim.Time = -1
	for _, a := range atts {
		if a.live() && (oldest < 0 || a.started < oldest) {
			oldest = a.started
		}
	}
	return oldest
}

func cancelAll(atts []*attempt, reason string) {
	for _, a := range atts {
		if a.live() {
			a.cancel(reason)
		}
	}
}

func ghostOn(gs []ghost, n netmodel.NodeID) bool {
	for _, g := range gs {
		if g.node == n {
			return true
		}
	}
	return false
}

func oldestWithGhosts(atts []*attempt, gs []ghost) sim.Time {
	oldest := oldestStart(atts)
	for _, g := range gs {
		if oldest < 0 || g.started < oldest {
			oldest = g.started
		}
	}
	return oldest
}

func dropGhosts(gs []ghost, n netmodel.NodeID) []ghost {
	out := gs[:0]
	for _, g := range gs {
		if g.node != n {
			out = append(out, g)
		}
	}
	return out
}

func (m *mapTask) running() int { return runningCount(m.attempts) + len(m.ghosts) }
func (m *mapTask) runningOn(n netmodel.NodeID) bool {
	return runningOn(m.attempts, n) || ghostOn(m.ghosts, n)
}
func (m *mapTask) oldestRunningStart() sim.Time { return oldestWithGhosts(m.attempts, m.ghosts) }
func (m *mapTask) cancelRunning(reason string)  { cancelAll(m.attempts, reason) }

func (r *reduceTask) running() int { return runningCount(r.attempts) + len(r.ghosts) }
func (r *reduceTask) runningOn(n netmodel.NodeID) bool {
	return runningOn(r.attempts, n) || ghostOn(r.ghosts, n)
}
func (r *reduceTask) oldestRunningStart() sim.Time { return oldestWithGhosts(r.attempts, r.ghosts) }
func (r *reduceTask) cancelRunning(reason string)  { cancelAll(r.attempts, reason) }

// attempt is one execution attempt of a map or reduce task. Exactly one of
// mt/rt is set. All asynchronous continuations re-check state so a canceled
// attempt never advances.
type attempt struct {
	seq     int64
	jt      *JobTracker
	job     *Job
	mt      *mapTask
	rt      *reduceTask
	tracker *TaskTracker
	node    netmodel.NodeID
	started sim.Time
	spec    bool

	flow       *netmodel.Flow
	fetchFlows []*netmodel.Flow
	timer      *sim.Timer
	reserved   []reservation
	finished   bool // done, failed, or canceled

	// map state
	tried map[netmodel.NodeID]bool // input replicas that timed out

	// reduce state
	fetchQueued  []int   // map indices awaiting fetch
	fetch        []uint8 // per map index: fetchNone, fetchActive or fetchDone
	fetched      int     // map indices at fetchDone
	inFlight     int
	shuffleBytes float64
	computing    bool
	outFile      string
	wroteOutput  bool
}

// A reduce attempt's progress on one map's partition, by map index.
const (
	fetchNone   uint8 = iota // not offered, or dropped to be offered again
	fetchActive              // in fetchQueued or in flight
	fetchDone                // shuffled
)

func (a *attempt) live() bool { return !a.finished }

func (a *attempt) reserve(bytes float64) bool {
	if !a.jt.disk.Reserve(a.node, bytes) {
		if a.jt.OnDiskOverflow != nil {
			a.jt.OnDiskOverflow(a.node)
		}
		return false
	}
	a.reserved = append(a.reserved, reservation{a.node, bytes})
	return true
}

func (a *attempt) releaseAll() {
	for _, r := range a.reserved {
		a.jt.disk.Release(r.node, r.bytes)
	}
	a.reserved = nil
}

// detach removes the attempt from its tracker and stops its activity.
func (a *attempt) detach() {
	a.finished = true
	if a.timer != nil {
		a.timer.Cancel()
	}
	if a.flow != nil {
		a.flow.Cancel()
	}
	for _, f := range a.fetchFlows {
		f.Cancel()
	}
	a.fetchFlows = nil
	if a.tracker != nil {
		a.tracker.removeAttempt(a)
		if a.mt != nil {
			a.tracker.runningMaps--
		} else {
			a.tracker.runningReduces--
		}
		a.jt.poolRunning[a.job.pool]--
		a.jt.siteLoad(a.tracker).running--
	}
}

// cancel kills the attempt without charging a task failure (speculative
// loser, job teardown).
func (a *attempt) cancel(string) {
	if a.finished {
		return
	}
	a.detach()
	a.releaseAll()
	a.dropOutputFile()
	a.noteTask()
}

// noteTask refreshes the attempt's task in the scheduler index.
func (a *attempt) noteTask() {
	if a.mt != nil {
		a.jt.noteMapTask(a.mt)
	} else {
		a.jt.noteReduceTask(a.rt)
	}
}

// fail kills the attempt; when charge is true it counts toward the task's
// failure budget and the tracker's per-job blacklist.
func (a *attempt) fail(reason string, charge bool) {
	if a.finished {
		return
	}
	a.detach()
	a.releaseAll()
	a.dropOutputFile()
	if a.mt != nil {
		a.job.counters.MapAttemptsFailed++
	} else {
		a.job.counters.ReduceAttemptsFailed++
	}
	if charge {
		// As in Hadoop, a failed task is never rescheduled on the tracker
		// it failed on — this is what keeps one zombie from absorbing a
		// task's whole failure budget (§IV.D.1).
		var failures *int
		if a.mt != nil {
			failures = &a.mt.failures
			if a.mt.failedOn == nil {
				a.mt.failedOn = make(map[netmodel.NodeID]bool)
			}
			a.mt.failedOn[a.node] = true
		} else {
			failures = &a.rt.failures
			if a.rt.failedOn == nil {
				a.rt.failedOn = make(map[netmodel.NodeID]bool)
			}
			a.rt.failedOn[a.node] = true
		}
		*failures++
		if a.job.blacklist == nil {
			a.job.blacklist = make(map[netmodel.NodeID]int)
			a.job.blacklistedSet = make(map[netmodel.NodeID]bool)
		}
		a.job.blacklist[a.node]++
		if a.job.blacklist[a.node] == 3 {
			cap := len(a.jt.AliveTrackers()) / 4
			if len(a.job.blacklistedSet) < cap {
				a.job.blacklistedSet[a.node] = true
			}
		}
		if *failures >= a.jt.cfg.MaxTaskAttempts {
			a.jt.finishJob(a.job, JobFailed, fmt.Sprintf("task exceeded %d attempts: %s", a.jt.cfg.MaxTaskAttempts, reason))
		}
	}
	a.noteTask()
}

// dropOutputFile deletes a reduce attempt's (possibly partial) HDFS output.
func (a *attempt) dropOutputFile() {
	if a.rt != nil && a.outFile != "" && a.wroteOutput && !a.rt.done {
		a.jt.nn.DeleteFile(a.outFile)
	}
}

// launchMap starts a map attempt on tracker t.
func (jt *JobTracker) launchMap(j *Job, m *mapTask, t *TaskTracker, lvl LocalityLevel, spec bool) {
	jt.noteJobStarted(j)
	a := &attempt{
		seq: jt.attemptSeq, jt: jt, job: j, mt: m,
		tracker: t, node: t.Node, started: jt.eng.Now(), spec: spec,
	}
	jt.attemptSeq++
	m.attempts = append(m.attempts, a)
	t.attempts = append(t.attempts, a)
	t.runningMaps++
	jt.noteLaunched(j, t)
	jt.noteMapTask(m)
	j.counters.MapAttemptsStarted++
	j.counters.Locality[lvl]++
	if spec {
		j.counters.SpeculativeMaps++
	}
	if jt.Events.Active() {
		ev := event.At(event.TaskLaunched, jt.eng.Now())
		ev.Job = int(j.ID)
		ev.Task = m.idx
		ev.Kind = event.MapTask
		ev.Locality = int8(lvl)
		ev.Node = t.Node
		jt.Events.Emit(ev)
	}
	a.timer = jt.eng.After(jt.cfg.TaskStartupOverhead, func() { a.mapRead() })
}

// mapRead pulls the input block (locally or over the network).
func (a *attempt) mapRead() {
	if a.finished {
		return
	}
	if a.jt.diskBroken(a.node) {
		// Zombie tracker: the working directory is gone, so the task fails
		// as soon as it tries to localise (§IV.D.1).
		a.jt.eng.After(2*sim.Second, func() { a.fail("scratch dir unwritable", true) })
		return
	}
	m := a.mt
	// The namenode's candidates are the replicas it believes alive, which
	// may include dead or severed hosts the client times out against below,
	// minus the ones this attempt already tried.
	src, local, ok := a.jt.nn.ReadSource(a.node, m.block, func(id netmodel.NodeID) bool { return a.tried[id] })
	if !ok {
		if a.jt.nn.Degraded() {
			// The namenode is crashed or still rebuilding its block map, so
			// "no replicas" means "unknown", not "lost": the DFS client backs
			// off and retries rather than charging the task. Safe mode is
			// bounded (threshold or timeout), so this cannot loop forever —
			// once service resumes, a genuinely lost block fails normally.
			a.timer = a.jt.eng.After(a.jt.cfg.ConnectTimeout, func() { a.mapRead() })
			return
		}
		a.fail("input block unavailable", true)
		return
	}
	if !local && (!a.jt.servable(src) || !a.jt.net.Reachable(src, a.node)) {
		// The namenode still lists this replica, but the host is gone — or a
		// partition severs it from this reader; the DFS client discovers that
		// only after a connection timeout, then moves on to the next replica.
		// With HOG's 30-second dead timeout such corpses disappear from the
		// namenode quickly; with the traditional 15 minutes, clients keep
		// paying this penalty.
		if a.tried == nil {
			a.tried = make(map[netmodel.NodeID]bool)
		}
		a.tried[src] = true
		a.timer = a.jt.eng.After(a.jt.cfg.ConnectTimeout, func() { a.mapRead() })
		return
	}
	cont := func() {
		a.flow = nil
		if !a.jt.nn.VerifyRead(m.block, src) {
			// Checksum mismatch: the corrupt replica is already reported and
			// invalidated; fail over to the next copy after a client beat.
			a.timer = a.jt.eng.After(a.jt.cfg.ConnectTimeout, func() { a.mapRead() })
			return
		}
		a.mapCompute()
	}
	if local {
		a.flow = a.jt.net.StartDiskIO(a.node, m.inputBytes, cont)
	} else {
		a.flow = a.jt.net.StartFlow(src, a.node, m.inputBytes, cont)
	}
}

func (a *attempt) speed() float64 {
	if a.tracker != nil && a.tracker.Speed > 0 {
		return a.tracker.Speed
	}
	return 1.0
}

func (a *attempt) mapCompute() {
	if a.finished {
		return
	}
	cost := sim.Time(a.mt.inputBytes / 1e6 * float64(a.job.Config.MapCostPerMB) / a.speed())
	a.timer = a.jt.eng.After(cost, func() { a.mapWrite() })
}

func (a *attempt) mapWrite() {
	if a.finished {
		return
	}
	out := a.mt.inputBytes * a.job.Config.MapSelectivity
	if !a.reserve(out) {
		a.fail("out of disk for map output", true)
		return
	}
	a.flow = a.jt.net.StartDiskIO(a.node, out, func() {
		a.flow = nil
		a.mapDone(out)
	})
}

func (a *attempt) mapDone(out float64) {
	if a.finished {
		return
	}
	m := a.mt
	a.detach()
	if m.done {
		// A sibling won a photo-finish; drop our duplicate output.
		a.releaseAll()
		a.noteTask()
		return
	}
	m.done = true
	m.duration = a.jt.eng.Now() - a.started
	m.outputNode = a.node
	m.outputBytes = out
	a.job.doneMapDur += m.duration
	a.job.doneMapN++
	if a.jt.Events.Active() {
		ev := event.At(event.TaskFinished, a.jt.eng.Now())
		ev.Job = int(a.job.ID)
		ev.Task = m.idx
		ev.Kind = event.MapTask
		ev.Node = a.node
		a.jt.Events.Emit(ev)
	}
	a.noteTask()
	// Output space now belongs to the job until it completes (§IV.D.2:
	// "Hadoop will not delete map intermediate data until the entire job is
	// done").
	a.job.outputReservations = append(a.job.outputReservations, a.reserved...)
	a.reserved = nil
	a.job.completedMaps++
	cancelAll(m.attempts, "sibling completed")
	a.jt.mapCompleted(a.job, m)
}

// mapCompleted notifies running reduce attempts that a new partition is
// available and finishes map-only jobs.
func (jt *JobTracker) mapCompleted(j *Job, m *mapTask) {
	for _, r := range j.reduces {
		for _, ra := range r.attempts {
			if ra.live() {
				ra.offerFetch(m.idx)
			}
		}
	}
	if j.completedMaps == len(j.maps) &&
		(len(j.reduces) == 0 || j.completedReduces == len(j.reduces)) {
		// Map-only job done, or a re-executed map finished after every
		// reduce had already completed.
		jt.finishJob(j, JobSucceeded, "")
	}
}

// launchReduce starts a reduce attempt on tracker t.
func (jt *JobTracker) launchReduce(j *Job, r *reduceTask, t *TaskTracker, spec bool) {
	jt.noteJobStarted(j)
	a := &attempt{
		seq: jt.attemptSeq, jt: jt, job: j, rt: r,
		tracker: t, node: t.Node, started: jt.eng.Now(), spec: spec,
		fetch: make([]uint8, len(j.maps)),
	}
	jt.attemptSeq++
	r.attempts = append(r.attempts, a)
	t.attempts = append(t.attempts, a)
	t.runningReduces++
	jt.noteLaunched(j, t)
	jt.noteReduceTask(r)
	j.counters.ReduceAttemptsStarted++
	if spec {
		j.counters.SpeculativeReduces++
	}
	if jt.Events.Active() {
		ev := event.At(event.TaskLaunched, jt.eng.Now())
		ev.Job = int(j.ID)
		ev.Task = r.idx
		ev.Kind = event.ReduceTask
		ev.Node = t.Node
		jt.Events.Emit(ev)
	}
	a.timer = jt.eng.After(jt.cfg.TaskStartupOverhead, func() { a.reduceStart() })
}

func (a *attempt) reduceStart() {
	if a.finished {
		return
	}
	if a.jt.diskBroken(a.node) {
		a.jt.eng.After(2*sim.Second, func() { a.fail("scratch dir unwritable", true) })
		return
	}
	// Seed the fetch queue with already-completed maps.
	for _, m := range a.job.maps {
		if m.done {
			a.offerFetch(m.idx)
		}
	}
	a.maybeFinishShuffle()
}

// offerFetch enqueues a map partition for shuffling if not already handled.
func (a *attempt) offerFetch(mapIdx int) {
	if a.finished || a.computing {
		return
	}
	if a.fetch[mapIdx] != fetchNone {
		return
	}
	a.fetch[mapIdx] = fetchActive
	a.fetchQueued = append(a.fetchQueued, mapIdx)
	a.pumpFetches()
}

// pumpFetches starts fetches up to the configured parallelism (Hadoop's
// mapred.reduce.parallel.copies). The wave is batched so the local-disk
// fetches it launches trigger one rate rebalance, not one per flow.
func (a *attempt) pumpFetches() {
	a.jt.net.Batch(a.pumpFetchWave)
}

func (a *attempt) pumpFetchWave() {
	for a.inFlight < a.jt.cfg.ParallelCopies && len(a.fetchQueued) > 0 {
		mapIdx := a.fetchQueued[0]
		a.fetchQueued = a.fetchQueued[1:]
		m := a.job.maps[mapIdx]
		if !m.done {
			// Output vanished between enqueue and fetch (re-execution
			// pending); it will be re-offered when the map completes again.
			a.fetch[mapIdx] = fetchNone
			continue
		}
		src := m.outputNode
		if (!a.jt.servable(src) || !a.jt.net.Reachable(src, a.node)) && src != a.node {
			// Fetch failure: the reducer discovers the output host is gone —
			// or partitioned away — only after a connection timeout, then
			// notifies the JobTracker so the map re-executes (§IV.D.1's
			// zombie trackers surface exactly here). The fetcher slot stays
			// busy for the timeout, as a real copier thread would.
			a.inFlight++
			a.jt.eng.After(a.jt.cfg.ConnectTimeout, func() {
				if a.finished {
					return
				}
				a.inFlight--
				a.fetch[mapIdx] = fetchNone
				a.jt.reportFetchFailure(a.job, m, a.node)
				a.pumpFetches()
			})
			continue
		}
		bytes := m.outputBytes / float64(len(a.job.reduces))
		if !a.reserve(bytes) {
			a.fail("out of disk for shuffle", true)
			return
		}
		a.inFlight++
		done := func() {
			if a.finished {
				return
			}
			a.inFlight--
			a.fetch[mapIdx] = fetchDone
			a.fetched++
			a.shuffleBytes += bytes
			a.pumpFetches()
			a.maybeFinishShuffle()
		}
		if src == a.node {
			a.fetchFlows = append(a.fetchFlows, a.jt.net.StartDiskIO(a.node, bytes, done))
		} else {
			a.fetchFlows = append(a.fetchFlows, a.jt.net.StartFlow(src, a.node, bytes, done))
		}
	}
}

// reportFetchFailure re-executes a completed map whose output host is gone
// or unreachable from the reducer that tried to fetch it.
func (jt *JobTracker) reportFetchFailure(j *Job, m *mapTask, from netmodel.NodeID) {
	j.counters.FetchFailures++
	if m.done && (!jt.servable(m.outputNode) || !jt.net.Reachable(m.outputNode, from)) {
		jt.reExecuteMap(j, m)
	}
}

func (a *attempt) maybeFinishShuffle() {
	if a.finished || a.computing {
		return
	}
	if a.fetched < len(a.job.maps) || a.inFlight > 0 {
		return
	}
	a.computing = true
	sort := sim.Time(a.shuffleBytes / 1e6 * float64(a.job.Config.SortCostPerMB) / a.speed())
	a.timer = a.jt.eng.After(sort, func() { a.reduceCompute() })
}

func (a *attempt) reduceCompute() {
	if a.finished {
		return
	}
	cost := sim.Time(a.shuffleBytes / 1e6 * float64(a.job.Config.ReduceCostPerMB) / a.speed())
	a.timer = a.jt.eng.After(cost, func() { a.reduceWrite() })
}

func (a *attempt) reduceWrite() {
	if a.finished {
		return
	}
	if a.jt.nn.Degraded() {
		// Writes are refused while the namenode is crashed or in safe mode;
		// retrying from the attempt (rather than queueing inside HDFS) keeps
		// the namespace free of output files for attempts that get cancelled
		// while waiting.
		a.timer = a.jt.eng.After(a.jt.cfg.ConnectTimeout, func() { a.reduceWrite() })
		return
	}
	out := a.shuffleBytes * a.job.Config.ReduceSelectivity
	a.outFile = fmt.Sprintf("out/%s/part-%05d-a%d", a.job.Config.Name, a.rt.idx, a.seq)
	a.wroteOutput = true
	repl := a.job.Config.OutputReplication
	a.jt.nn.WriteFile(a.node, a.outFile, out, repl, func(int) {
		if a.finished {
			return
		}
		a.reduceDone()
	})
}

func (a *attempt) reduceDone() {
	r := a.rt
	a.detach()
	a.releaseAll() // shuffle scratch space freed once output is durable
	if r.done {
		a.jt.nn.DeleteFile(a.outFile)
		a.noteTask()
		return
	}
	r.done = true
	r.duration = a.jt.eng.Now() - a.started
	a.job.doneReduceDur += r.duration
	a.job.doneReduceN++
	if a.jt.Events.Active() {
		ev := event.At(event.TaskFinished, a.jt.eng.Now())
		ev.Job = int(a.job.ID)
		ev.Task = r.idx
		ev.Kind = event.ReduceTask
		ev.Node = a.node
		a.jt.Events.Emit(ev)
	}
	a.noteTask()
	a.job.completedReduces++
	// Kill the speculative losers; their partial output is deleted.
	cancelAll(r.attempts, "sibling completed")
	if a.job.completedReduces == len(a.job.reduces) && a.job.completedMaps == len(a.job.maps) {
		a.jt.finishJob(a.job, JobSucceeded, "")
	}
}

func (jt *JobTracker) noteJobStarted(j *Job) {
	if j.State == JobPending {
		j.State = JobRunning
		j.StartTime = jt.eng.Now()
	}
}
