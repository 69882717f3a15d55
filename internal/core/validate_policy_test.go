package core

import (
	"strings"
	"testing"

	"hog/internal/grid"
	"hog/internal/mapred"
)

// withPolicies names all four policies on a copy of c's subsystem configs.
func withPolicies(c Config, sched, spec, place, repl string) Config {
	c.MapRed.SchedulerPolicy = sched
	c.MapRed.SpeculationPolicy = spec
	c.HDFS.PlacementPolicy = place
	c.HDFS.ReplicationOrder = repl
	return c
}

// TestValidatePolicies is the table-driven gate on the policy surface:
// unknown names at every decision point and pool parameter bounds, each
// rejected with a message naming the problem.
func TestValidatePolicies(t *testing.T) {
	base := func() Config { return HOGConfig(10, grid.ChurnNone, 1) }
	cases := []struct {
		name string
		cfg  Config
		want string // "" accepts
	}{
		{"all defaults", base(), ""},
		{"explicit defaults", withPolicies(base(), "fifo", "threshold", "grid", "fifo"), ""},
		{"all alternatives", withPolicies(base(), "fair", "site-load", "random", "rarest"), ""},
		{"flat placement", withPolicies(base(), "", "", "flat", ""), ""},
		{"unknown scheduler", withPolicies(base(), "lottery", "", "", ""), `unknown scheduler policy "lottery"`},
		{"unknown speculation", withPolicies(base(), "", "psychic", "", ""), `unknown speculation policy "psychic"`},
		{"unknown placement", withPolicies(base(), "", "", "antigravity", ""), `unknown placement policy "antigravity"`},
		{"unknown replication order", withPolicies(base(), "", "", "", "loudest"), `unknown replication order "loudest"`},
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

// TestPoliciesReachSubsystems: the policy names on the subsystem configs
// must reach the masters NewSystem builds, and empty names must leave the
// defaults in place.
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

	alt, err := NewSystem(withPolicies(HOGConfig(10, grid.ChurnNone, 1), "fair", "site-load", "random", "rarest"))
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
