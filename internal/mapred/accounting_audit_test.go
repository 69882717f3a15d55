package mapred_test

import (
	"testing"

	"hog/internal/event"
	"hog/internal/mapred"
)

// TestSlotAccountingRuleFires occupies the idle tracker's map slot with no
// attempt behind it: the audit's slot-accounting rule, which recounts the
// tracker's live attempts, must fire exactly once, and the consistent state
// before the breach must pass.
func TestSlotAccountingRuleFires(t *testing.T) {
	r := newSpecRig(t)
	r.aud.Sweep(r.eng.Now())
	if n := r.aud.Count(); n != 0 {
		t.Fatalf("consistent slot counters raised %v", r.aud.Violations())
	}
	r.jt.BumpRunningMaps(r.ids[2])
	r.aud.Sweep(r.eng.Now())
	if got := r.aud.Count(); got != 1 {
		t.Fatalf("%d violations, want 1: %v", got, r.aud.Violations())
	}
	if v := r.aud.Violations()[0]; v.Rule != "slot-accounting" {
		t.Fatalf("rule %q fired, want slot-accounting: %v", v.Rule, v)
	}
}

// TestPoolConservationRuleFires credits a pool with a running task it does
// not have, once for the pool the rig's job runs in (the counter disagrees
// with the recount) and once for a pool with no attempt at all (the
// recount never sees it): the audit's pool-conservation rule, which
// recounts the trackers' live attempts per pool, must fire exactly once.
func TestPoolConservationRuleFires(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool func(r *specRig) string
	}{
		{"running pool", func(r *specRig) string { return r.job.Pool() }},
		{"idle pool", func(*specRig) string { return "idle" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSpecRig(t)
			r.aud.Sweep(r.eng.Now())
			if n := r.aud.Count(); n != 0 {
				t.Fatalf("consistent pool counters raised %v", r.aud.Violations())
			}
			r.jt.BumpPoolRunning(tc.pool(r))
			r.aud.Sweep(r.eng.Now())
			if got := r.aud.Count(); got != 1 {
				t.Fatalf("%d violations, want 1: %v", got, r.aud.Violations())
			}
			if v := r.aud.Violations()[0]; v.Rule != "pool-conservation" {
				t.Fatalf("rule %q fired, want pool-conservation: %v", v.Rule, v)
			}
		})
	}
}

// TestTaskConservationRuleFires counts one more completed map, then one more
// completed reduce, than the job's tasks show done: the audit's
// task-conservation rule, which recounts the done flags, must fire exactly
// once.
func TestTaskConservationRuleFires(t *testing.T) {
	for _, kind := range []mapred.TaskKind{mapred.KindMap, mapred.KindReduce} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newSpecRig(t)
			r.aud.Sweep(r.eng.Now())
			if n := r.aud.Count(); n != 0 {
				t.Fatalf("consistent completed counters raised %v", r.aud.Violations())
			}
			r.job.BumpCompleted(kind)
			r.aud.Sweep(r.eng.Now())
			if got := r.aud.Count(); got != 1 {
				t.Fatalf("%d violations, want 1: %v", got, r.aud.Violations())
			}
			if v := r.aud.Violations()[0]; v.Rule != "task-conservation" {
				t.Fatalf("rule %q fired, want task-conservation: %v", v.Rule, v)
			}
		})
	}
}

// TestPoolCapRuleFires caps the rig's pool at one running task under the
// fair scheduler, which then launches one of the job's two maps, and
// launches the other past the cap: the audit's pool-cap rule must fire
// exactly once, and the capped state before the breach must pass.
func TestPoolCapRuleFires(t *testing.T) {
	cfg := mapred.DefaultConfig()
	cfg.SchedulerPolicy = mapred.SchedulerFair
	cfg.Pools = map[string]mapred.PoolConfig{"bin0": {MaxRunning: 1}} // the rig's job is in bin 0
	r := newRig(cfg)
	var launched []int
	r.jt.Events.Subscribe(event.ObserverFunc(func(e event.Event) {
		if e.Type == event.TaskLaunched {
			launched = append(launched, e.Task)
		}
	}))
	r.jt.HeartbeatTracker(r.jt.Tracker(r.ids[0]))
	r.jt.HeartbeatTracker(r.jt.Tracker(r.ids[1]))
	if len(launched) != 1 {
		t.Fatalf("the capped pool launched maps %v, want one", launched)
	}
	r.aud.Sweep(r.eng.Now())
	if n := r.aud.Count(); n != 0 {
		t.Fatalf("a pool at its cap raised %v", r.aud.Violations())
	}
	r.jt.LaunchMap(r.job, 1-launched[0], r.ids[1])
	r.aud.Sweep(r.eng.Now())
	if got := r.aud.Count(); got != 1 {
		t.Fatalf("%d violations, want 1: %v", got, r.aud.Violations())
	}
	if v := r.aud.Violations()[0]; v.Rule != "pool-cap" {
		t.Fatalf("rule %q fired, want pool-cap: %v", v.Rule, v)
	}
}
