package core

import (
	"errors"
	"fmt"

	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/sim"
)

// Validate checks a Config for structural errors before any simulation state
// is built. It is the single validation path for both constructors: the
// error-returning NewSystem surfaces the message, and New, its panicking
// wrapper, panics with the same one.
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
		capacity := 0
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
			if sc.Capacity > maxWorkers-capacity {
				return fmt.Errorf("core: grid site capacities sum above the %d-worker ceiling", maxWorkers)
			}
			capacity += sc.Capacity
			if sc.BatchPreemptFrac < 0 || sc.BatchPreemptFrac > 1 {
				return fmt.Errorf("core: site %q batch preemption fraction %g outside [0,1]", sc.Name, sc.BatchPreemptFrac)
			}
			if negativeDist(sc.NodeLifetime) {
				return fmt.Errorf("core: site %q node lifetime %+v has a negative offset or mean", sc.Name, sc.NodeLifetime)
			}
			if negativeDist(sc.BatchPreemptEvery) {
				return fmt.Errorf("core: site %q batch preemption interval %+v has a negative offset or mean", sc.Name, sc.BatchPreemptEvery)
			}
		}
		if negativeDist(g.Pool.ProvisionDelay) {
			return fmt.Errorf("core: pool provision delay %+v has a negative offset or mean", g.Pool.ProvisionDelay)
		}
		if g.ProvisionBound > maxBound {
			return fmt.Errorf("core: provision bound %v above the %v ceiling", g.ProvisionBound, maxBound)
		}
	}
	static := 0
	for i, g := range cfg.Static {
		if g.Count < 0 {
			return fmt.Errorf("core: static group %d has negative count %d", i, g.Count)
		}
		if g.Count > maxWorkers-static {
			return fmt.Errorf("core: static group counts sum above the %d-worker ceiling", maxWorkers)
		}
		static += g.Count
		if g.Count > 0 && g.MapSlots <= 0 && g.ReduceSlots <= 0 {
			return fmt.Errorf("core: static group %d has no task slots", i)
		}
	}
	// HDFS's own floor (dfs.namenode.fs-limits.min-block-size): a 64-byte
	// block size turned one 128 MB input into two million blocks.
	if b := cfg.HDFS.BlockSize; b > 0 && b < minBlockSize {
		return fmt.Errorf("core: HDFS block size %g is below the %d-byte minimum", b, minBlockSize)
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
	if cfg.RunBound > maxBound {
		return fmt.Errorf("core: run bound %v above the %v ceiling", cfg.RunBound, maxBound)
	}
	return nil
}

// maxBound caps the run and provisioning bounds at ten simulated years, far
// above the 48 h presets, so the run's end instant (start plus bound) and
// every step anchored before it stay clear of the clock's int64 overflow.
const maxBound = 10 * 365 * 24 * sim.Hour

// maxWorkers caps the workers a config (a snapshot's, say) can supply through
// its grid sites' capacities or its static groups' counts, about ten times
// GIGA-GRID's ~100k slots: the pool and the static build make each one.
const maxWorkers = 1 << 20

// minBlockSize is the smallest HDFS block size a config may set (1 MiB).
const minBlockSize = 1 << 20

// negativeDist reports whether d has a negative offset or mean. Its samples
// could then fall before the current instant, which the engine refuses to
// schedule.
func negativeDist(d sim.Dist) bool { return d.Offset < 0 || d.Mean < 0 }

// validatePolicies vets the policy names on the subsystem configs against
// their registries and checks fair-share pool parameters, so the masters'
// constructors never meet an unknown name.
func validatePolicies(cfg Config) error {
	if _, err := mapred.NewSchedulerPolicy(cfg.MapRed.SchedulerPolicy); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if _, err := mapred.NewSpeculationPolicy(cfg.MapRed.SpeculationPolicy); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if _, err := hdfs.NewPlacementPolicy(cfg.HDFS.PlacementPolicy); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if _, err := hdfs.NewReplicationOrder(cfg.HDFS.ReplicationOrder); err != nil {
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
