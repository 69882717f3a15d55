package netmodel

import (
	"math"
	"math/rand"
	"testing"

	"hog/internal/sim"
)

// opKind is one step of a randomized flow schedule.
type opKind int

const (
	opLAN opKind = iota
	opWAN
	opDisk
	opZero
	opCancel
)

type schedOp struct {
	kind     opKind
	at       sim.Time
	src, dst NodeID
	bytes    float64
	cancelAt sim.Time // opCancel: when to cancel the flow this op started
}

// randomSchedule builds a reproducible mixed workload over a 3-site network:
// LAN and WAN transfers, disk I/O, zero-byte flows, and mid-flight cancels.
func randomSchedule(r *rand.Rand, nOps, nodesPerSite int) []schedOp {
	n := 3 * nodesPerSite
	ops := make([]schedOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		op := schedOp{
			kind:  opKind(r.Intn(5)),
			at:    sim.Time(r.Int63n(int64(2 * sim.Second))),
			bytes: float64(1+r.Intn(40)) * 1e6,
		}
		op.src = NodeID(r.Intn(n))
		op.dst = NodeID(r.Intn(n))
		if op.dst == op.src {
			op.dst = NodeID((int(op.dst) + 1) % n)
		}
		if op.kind == opZero {
			op.bytes = 0
		}
		if op.kind == opCancel {
			op.cancelAt = op.at + sim.Time(r.Int63n(int64(sim.Second)))
		}
		ops = append(ops, op)
	}
	return ops
}

// runSchedule executes ops on a fresh network and returns per-op completion
// times (-1 when the op never completed) plus final stats.
func runSchedule(ops []schedOp, nodesPerSite int, global bool) ([]sim.Time, Stats) {
	eng := sim.New(1)
	net := newRebalancing(eng, Config{
		NodeBps:    100e6,
		DiskBps:    50e6,
		WANFlowBps: 10e6,
		LANLatency: sim.Millisecond,
		WANLatency: 40 * sim.Millisecond,
	}, global)
	for s := 0; s < 3; s++ {
		site := net.AddSite("s", 200e6, 200e6)
		for i := 0; i < nodesPerSite; i++ {
			net.AddNode(site, "n")
		}
	}
	done := make([]sim.Time, len(ops))
	for i := range done {
		done[i] = -1
	}
	for i, op := range ops {
		i, op := i, op
		eng.Schedule(op.at, func() {
			record := func() { done[i] = eng.Now() }
			var f *Flow
			switch op.kind {
			case opDisk:
				f = net.StartDiskIO(op.src, op.bytes, record)
			default:
				src, dst := op.src, op.dst
				if op.kind == opLAN {
					dst = NodeID((int(src)/nodesPerSite)*nodesPerSite + int(dst)%nodesPerSite)
					if dst == src {
						dst = NodeID((int(src)/nodesPerSite)*nodesPerSite + (int(src)+1)%nodesPerSite)
					}
				}
				f = net.StartFlow(src, dst, op.bytes, record)
			}
			if op.kind == opCancel {
				eng.Schedule(op.cancelAt, f.Cancel)
			}
		})
	}
	eng.Run()
	return done, net.Stats()
}

// TestRebalancerEquivalence asserts that the incremental link-scoped
// rebalancer and the global rebalance-everything baseline produce identical
// flow completion times and Stats on randomized schedules. Identical means
// bit-identical: both paths settle flows at exactly the rate-change
// instants, so no float drift is tolerated.
func TestRebalancerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := randomSchedule(r, 200, 5)
		incDone, incStats := runSchedule(ops, 5, false)
		gloDone, gloStats := runSchedule(ops, 5, true)
		for i := range ops {
			if incDone[i] != gloDone[i] {
				t.Fatalf("seed %d op %d (kind %d): incremental done at %v, global at %v",
					seed, i, ops[i].kind, incDone[i], gloDone[i])
			}
		}
		if incStats != gloStats {
			t.Fatalf("seed %d: stats diverge: incremental %+v global %+v", seed, incStats, gloStats)
		}
	}
}

// TestRebalancerDeterminism: the same schedule twice through the incremental
// path must agree with itself exactly (stable iteration order, no map order).
func TestRebalancerDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ops := randomSchedule(r, 300, 6)
	d1, s1 := runSchedule(ops, 6, false)
	d2, s2 := runSchedule(ops, 6, false)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("op %d completed at %v then %v across identical runs", i, d1[i], d2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("stats diverge across identical runs: %+v vs %+v", s1, s2)
	}
}

// TestBatchNeutral: starting a wave of same-instant disk I/Os inside Batch
// must complete them at the same times as starting them unbatched.
func TestBatchNeutral(t *testing.T) {
	run := func(batch bool) []sim.Time {
		eng := sim.New(1)
		net := New(eng, Config{DiskBps: 50e6, LANLatency: sim.Millisecond})
		s := net.AddSite("s", 1e9, 1e9)
		node := net.AddNode(s, "n")
		var times []sim.Time
		start := func() {
			for i := 0; i < 8; i++ {
				bytes := float64(5+i) * 1e6
				net.StartDiskIO(node, bytes, func() { times = append(times, eng.Now()) })
			}
		}
		if batch {
			net.Batch(start)
		} else {
			start()
		}
		eng.Run()
		return times
	}
	plain, batched := run(false), run(true)
	if len(plain) != 8 || len(batched) != 8 {
		t.Fatalf("completions: plain %d batched %d, want 8", len(plain), len(batched))
	}
	for i := range plain {
		if plain[i] != batched[i] {
			t.Fatalf("completion %d: plain %v batched %v", i, plain[i], batched[i])
		}
	}
}

// TestZeroByteFlowCancelable: the seed marked zero-byte flows finished at
// admit time, so Cancel was a no-op and done still fired after the latency.
func TestZeroByteFlowCancelable(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{NodeBps: 100e6, LANLatency: sim.Millisecond})
	s := net.AddSite("s", 1e9, 1e9)
	a, b := net.AddNode(s, "a"), net.AddNode(s, "b")
	done := false
	f := net.StartFlow(a, b, 0, func() { done = true })
	f.Cancel()
	eng.Run()
	if done {
		t.Fatal("canceled zero-byte flow still invoked done")
	}
	if got := net.Stats().FlowsCanceled; got != 1 {
		t.Fatalf("FlowsCanceled = %d, want 1", got)
	}
}

// TestPreJoinCancel: canceling during the propagation latency, before the
// flow joins its links, must suppress done and leave no active flows.
func TestPreJoinCancel(t *testing.T) {
	eng := sim.New(1)
	net := New(eng, Config{NodeBps: 100e6, LANLatency: 10 * sim.Millisecond})
	s := net.AddSite("s", 1e9, 1e9)
	a, b := net.AddNode(s, "a"), net.AddNode(s, "b")
	done := false
	f := net.StartFlow(a, b, 5e6, func() { done = true })
	eng.After(sim.Millisecond, f.Cancel) // before the 10 ms latency elapses
	eng.Run()
	if done {
		t.Fatal("pre-join canceled flow invoked done")
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d, want 0", net.ActiveFlows())
	}
}

// TestConservationAcrossModes: byte conservation holds in both modes for a
// heavier contended mix (sanity beyond the bit-equality tests).
func TestConservationAcrossModes(t *testing.T) {
	for _, global := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		ops := randomSchedule(r, 150, 4)
		var want float64
		for _, op := range ops {
			if op.kind != opDisk {
				want += op.bytes // offered network load (cancel ops may or may not deliver)
			}
		}
		done, stats := runSchedule(ops, 4, global)
		_ = done
		total := stats.BytesTotal
		// Canceled flows do not deliver their bytes; just require the total
		// not to exceed the offered network load and to be positive.
		if total <= 0 || total > want+1 {
			t.Fatalf("global=%v: BytesTotal %.0f outside (0, %.0f]", global, total, want)
		}
		if math.IsNaN(total) {
			t.Fatalf("global=%v: BytesTotal is NaN", global)
		}
	}
}
