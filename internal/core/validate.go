package core

import (
	"errors"
	"fmt"

	"hog/internal/hdfs"
	"hog/internal/mapred"
)

// Validate checks a Config for structural errors before any simulation state
// is built. It is the single validation path for both constructors: the
// error-returning NewSystem surfaces the message, and the legacy panicking
// New facade panics with the same one.
func Validate(cfg Config) error {
	if cfg.Grid != nil && len(cfg.Static) > 0 {
		return errors.New("core: Grid and Static are mutually exclusive; configure exactly one worker supply")
	}
	if cfg.Grid == nil && len(cfg.Static) == 0 {
		return errors.New("core: no worker supply; configure exactly one of Grid or Static")
	}
	if g := cfg.Grid; g != nil {
		if len(g.Sites) == 0 {
			return errors.New("core: grid config has no sites")
		}
		if g.TargetNodes < 0 {
			return fmt.Errorf("core: negative grid target %d", g.TargetNodes)
		}
		seen := make(map[string]bool, len(g.Sites))
		for i, sc := range g.Sites {
			if sc.Name == "" {
				return fmt.Errorf("core: site %d has no name", i)
			}
			if seen[sc.Name] {
				return fmt.Errorf("core: duplicate site name %q", sc.Name)
			}
			seen[sc.Name] = true
			if sc.Capacity < 0 {
				return fmt.Errorf("core: site %q has negative capacity %d", sc.Name, sc.Capacity)
			}
			if sc.BatchPreemptFrac < 0 || sc.BatchPreemptFrac > 1 {
				return fmt.Errorf("core: site %q batch preemption fraction %g outside [0,1]", sc.Name, sc.BatchPreemptFrac)
			}
		}
	}
	for i, g := range cfg.Static {
		if g.Count < 0 {
			return fmt.Errorf("core: static group %d has negative count %d", i, g.Count)
		}
		if g.Count > 0 && g.MapSlots <= 0 && g.ReduceSlots <= 0 {
			return fmt.Errorf("core: static group %d has no task slots", i)
		}
	}
	if err := validatePolicies(cfg); err != nil {
		return err
	}
	if cfg.SampleInterval < 0 {
		return fmt.Errorf("core: negative sample interval %v", cfg.SampleInterval)
	}
	if cfg.RunBound < 0 {
		return fmt.Errorf("core: negative run bound %v", cfg.RunBound)
	}
	return nil
}

// validatePolicies vets every policy name — whether set through the
// top-level Policies block or directly on the subsystem configs — against
// the owning registry, rejects combinations that cannot work, and checks
// fair-share pool parameters. Construction never re-checks: NewSystem folds
// Policies into the subsystem configs after this passes.
func validatePolicies(cfg Config) error {
	sched := cfg.Policies.Scheduler
	if sched == "" {
		sched = cfg.MapRed.SchedulerPolicy
	}
	if _, err := mapred.NewSchedulerPolicy(sched); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	spec := cfg.Policies.Speculation
	if spec == "" {
		spec = cfg.MapRed.SpeculationPolicy
	}
	if _, err := mapred.NewSpeculationPolicy(spec); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	place := cfg.Policies.Placement
	if place == "" {
		place = cfg.HDFS.PlacementPolicy
	}
	if _, err := hdfs.NewPlacementPolicy(place); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	repl := cfg.Policies.Replication
	if repl == "" {
		repl = cfg.HDFS.ReplicationOrder
	}
	if _, err := hdfs.NewReplicationOrder(repl); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for name, pc := range cfg.MapRed.Pools {
		if pc.Weight < 0 {
			return fmt.Errorf("core: pool %q has negative weight %g", name, pc.Weight)
		}
		if pc.MaxRunning < 0 {
			return fmt.Errorf("core: pool %q has negative running cap %d", name, pc.MaxRunning)
		}
	}
	return nil
}
