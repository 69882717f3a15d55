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

// TestPolicyOptionsSelect: each policy field written through WithHDFS or
// WithMapRed must reach its subsystem.
func TestPolicyOptionsSelect(t *testing.T) {
	sys, err := New(
		WithHOGPool(15, ChurnNone),
		WithSeed(1),
		WithMapRed(func(c *MapRedConfig) {
			c.SchedulerPolicy = "fair"
			c.SpeculationPolicy = "site-load"
			c.Pools = map[string]FairPoolConfig{"bin1": {Weight: 3}, "bin6": {Weight: 1, MaxRunning: 8}}
		}),
		WithHDFS(func(c *HDFSConfig) {
			c.PlacementPolicy = "random"
			c.ReplicationOrder = "rarest"
		}),
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
	if got := sys.JT.Config().Pools["bin6"].MaxRunning; got != 8 {
		t.Errorf("bin6 pool cap %d, want 8", got)
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
		{"scheduler", WithMapRed(func(c *MapRedConfig) { c.SchedulerPolicy = "lottery" }), `unknown scheduler policy "lottery"`},
		{"speculation", WithMapRed(func(c *MapRedConfig) { c.SpeculationPolicy = "psychic" }), `unknown speculation policy "psychic"`},
		{"placement", WithHDFS(func(c *HDFSConfig) { c.PlacementPolicy = "antigravity" }), `unknown placement policy "antigravity"`},
		{"replication", WithHDFS(func(c *HDFSConfig) { c.ReplicationOrder = "loudest" }), `unknown replication order "loudest"`},
		{"pool weight", WithMapRed(func(c *MapRedConfig) { c.Pools = map[string]FairPoolConfig{"p": {Weight: -1}} }), "negative weight"},
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

// TestFacadePoolCapBinds: a fair-share pool configured through the facade,
// keyed by a workload bin, must hold that bin's jobs to its running cap on a
// simulated pool, and the cap must actually bind (the bin reaches it).
func TestFacadePoolCapBinds(t *testing.T) {
	const pool, limit = "bin6", 3
	sys, err := New(
		WithHOGPool(15, ChurnNone),
		WithSeed(2),
		WithMapRed(func(c *MapRedConfig) {
			c.SchedulerPolicy = "fair"
			c.Pools = map[string]FairPoolConfig{pool: {MaxRunning: limit}}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	sys.Eng.Every(Seconds(1), func() { worst = max(worst, sys.JT.PoolRunning(pool)) })
	res := sys.RunWorkload(GenerateWorkload(2, 0.1))
	if res.JobsFailed != 0 {
		t.Fatalf("%d jobs failed", res.JobsFailed)
	}
	if worst > limit {
		t.Fatalf("pool %s ran %d tasks at once, cap is %d", pool, worst, limit)
	}
	if worst < limit {
		t.Fatalf("pool %s peaked at %d running tasks, never reaching its cap %d", pool, worst, limit)
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
