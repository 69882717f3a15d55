package hog

import (
	"strings"
	"testing"
)

// TestPolicyOptionsDefaults: a system built with no policy options must come
// up on the default policy at every decision point — the nil-policy contract
// that keeps existing callers byte-identical.
func TestPolicyOptionsDefaults(t *testing.T) {
	sys, err := New(WithHOGPool(15, ChurnNone), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.JT.SchedulerPolicyName(); got != "fifo" {
		t.Errorf("default scheduler policy %q, want fifo", got)
	}
	if got := sys.JT.SpeculationPolicyName(); got != "threshold" {
		t.Errorf("default speculation policy %q, want threshold", got)
	}
	if got := sys.NN.PlacementPolicyName(); got != "grid" {
		t.Errorf("default placement policy %q, want grid", got)
	}
	if got := sys.NN.ReplicationOrderName(); got != "fifo" {
		t.Errorf("default replication order %q, want fifo", got)
	}
}

// TestPolicyOptionsSelect: each With*Policy option must reach its subsystem.
func TestPolicyOptionsSelect(t *testing.T) {
	sys, err := New(
		WithHOGPool(15, ChurnNone),
		WithSeed(1),
		WithSchedulerPolicy("fair"),
		WithSpeculationPolicy("site-load"),
		WithPlacementPolicy("random"),
		WithReplicationOrder("rarest"),
		WithPools(map[string]FairPoolConfig{"prod": {Weight: 3}, "batch": {Weight: 1, MaxRunning: 8}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.JT.SchedulerPolicyName(); got != "fair" {
		t.Errorf("scheduler policy %q, want fair", got)
	}
	if got := sys.JT.SpeculationPolicyName(); got != "site-load" {
		t.Errorf("speculation policy %q, want site-load", got)
	}
	if got := sys.NN.PlacementPolicyName(); got != "random" {
		t.Errorf("placement policy %q, want random", got)
	}
	if got := sys.NN.ReplicationOrderName(); got != "rarest" {
		t.Errorf("replication order %q, want rarest", got)
	}
}

// TestPolicyOptionsValidation: unknown names and bad pool parameters must be
// rejected at New, before any simulation runs.
func TestPolicyOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"scheduler", WithSchedulerPolicy("lottery"), `unknown scheduler policy "lottery"`},
		{"speculation", WithSpeculationPolicy("psychic"), `unknown speculation policy "psychic"`},
		{"placement", WithPlacementPolicy("antigravity"), `unknown placement policy "antigravity"`},
		{"replication", WithReplicationOrder("loudest"), `unknown replication order "loudest"`},
		{"pool weight", WithPools(map[string]FairPoolConfig{"p": {Weight: -1}}), "negative weight"},
	}
	for _, tc := range cases {
		_, err := New(WithHOGPool(15, ChurnNone), WithSeed(1), tc.opt)
		if err == nil {
			t.Errorf("%s: New accepted an invalid policy option", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestPolicyNameListings pins the facade name listings hogbench -list prints.
func TestPolicyNameListings(t *testing.T) {
	if got := strings.Join(SchedulerPolicyNames(), ","); got != "fair,fifo" {
		t.Errorf("scheduler names %q", got)
	}
	if got := strings.Join(SpeculationPolicyNames(), ","); got != "site-load,threshold" {
		t.Errorf("speculation names %q", got)
	}
	if got := strings.Join(PlacementPolicyNames(), ","); got != "flat,grid,random" {
		t.Errorf("placement names %q", got)
	}
	if got := strings.Join(ReplicationOrderNames(), ","); got != "fifo,rarest" {
		t.Errorf("replication order names %q", got)
	}
}
