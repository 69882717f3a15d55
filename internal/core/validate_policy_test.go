package core

import (
	"strings"
	"testing"

	"hog/internal/grid"
	"hog/internal/mapred"
)

// TestValidatePolicies is the table-driven gate on the policy surface:
// unknown names at every decision point (top-level Policies block or direct
// subsystem config), the scan-scheduler conflict, and pool parameter
// bounds — each rejected with a message naming the problem.
func TestValidatePolicies(t *testing.T) {
	base := func() Config { return HOGConfig(10, grid.ChurnNone, 1) }
	cases := []struct {
		name string
		cfg  Config
		want string // "" accepts
	}{
		{"all defaults", base(), ""},
		{"explicit defaults", func() Config {
			c := base()
			c.Policies = Policies{Scheduler: "fifo", Speculation: "threshold", Placement: "grid", Replication: "fifo"}
			return c
		}(), ""},
		{"all alternatives", func() Config {
			c := base()
			c.Policies = Policies{Scheduler: "fair", Speculation: "site-load", Placement: "random", Replication: "rarest"}
			return c
		}(), ""},
		{"unknown scheduler", func() Config {
			c := base()
			c.Policies.Scheduler = "lottery"
			return c
		}(), `unknown scheduler policy "lottery"`},
		{"unknown speculation", func() Config {
			c := base()
			c.Policies.Speculation = "psychic"
			return c
		}(), `unknown speculation policy "psychic"`},
		{"unknown placement", func() Config {
			c := base()
			c.Policies.Placement = "antigravity"
			return c
		}(), `unknown placement policy "antigravity"`},
		{"unknown replication order", func() Config {
			c := base()
			c.Policies.Replication = "loudest"
			return c
		}(), `unknown replication order "loudest"`},
		{"unknown name on subsystem config", func() Config {
			c := base()
			c.MapRed.SchedulerPolicy = "lottery"
			return c
		}(), `unknown scheduler policy "lottery"`},
		{"negative pool weight", func() Config {
			c := base()
			c.MapRed.Pools = map[string]mapred.PoolConfig{"a": {Weight: -1}}
			return c
		}(), `pool "a" has negative weight`},
		{"negative pool cap", func() Config {
			c := base()
			c.MapRed.Pools = map[string]mapred.PoolConfig{"a": {MaxRunning: -2}}
			return c
		}(), `pool "a" has negative running cap`},
	}
	for _, tc := range cases {
		err := Validate(tc.cfg)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate rejected a valid config: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestPoliciesReachSubsystems: NewSystem must fold the top-level Policies
// block into the masters it builds, and leave the defaults in place when the
// block is empty.
func TestPoliciesReachSubsystems(t *testing.T) {
	def, err := NewSystem(HOGConfig(10, grid.ChurnNone, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := def.JT.SchedulerPolicyName(); got != "fifo" {
		t.Errorf("default scheduler policy %q, want fifo", got)
	}
	if got := def.JT.SpeculationPolicyName(); got != "threshold" {
		t.Errorf("default speculation policy %q, want threshold", got)
	}
	if got := def.NN.PlacementPolicyName(); got != "grid" {
		t.Errorf("default placement policy %q, want grid", got)
	}
	if got := def.NN.ReplicationOrderName(); got != "fifo" {
		t.Errorf("default replication order %q, want fifo", got)
	}

	cfg := HOGConfig(10, grid.ChurnNone, 1)
	cfg.Policies = Policies{Scheduler: "fair", Speculation: "site-load", Placement: "random", Replication: "rarest"}
	alt, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := alt.JT.SchedulerPolicyName(); got != "fair" {
		t.Errorf("scheduler policy %q, want fair", got)
	}
	if got := alt.JT.SpeculationPolicyName(); got != "site-load" {
		t.Errorf("speculation policy %q, want site-load", got)
	}
	if got := alt.NN.PlacementPolicyName(); got != "random" {
		t.Errorf("placement policy %q, want random", got)
	}
	if got := alt.NN.ReplicationOrderName(); got != "rarest" {
		t.Errorf("replication order %q, want rarest", got)
	}
}
