package mapred_test

import "testing"

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
