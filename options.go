package hog

import (
	"errors"
	"fmt"

	"hog/internal/core"
	"hog/internal/event"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
)

// Subsystem configuration types, for use with the WithHDFS/WithMapRed/
// WithNet options.
type (
	// HDFSConfig holds namenode parameters (replication, dead timeout,
	// site-aware placement).
	HDFSConfig = hdfs.Config
	// MapRedConfig holds JobTracker parameters (heartbeats, speculation,
	// delay scheduling).
	MapRedConfig = mapred.Config
	// NetConfig holds the fluid network model's physical constants.
	NetConfig = netmodel.Config
	// PoolConfig holds glide-in pool parameters (provisioning delay, slots,
	// scratch disk).
	PoolConfig = grid.PoolConfig
)

// builder accumulates the effect of Options before the system is built.
// Worker-supply options apply immediately (establishing the base Config);
// refinement options defer until every supply option has run, so a
// refinement is never silently clobbered by a later supply preset.
type builder struct {
	cfg       Config
	supply    bool // a worker-supply option was applied
	deferred  []func(*builder)
	observers []event.Observer
	scenarios []*Scenario
	errs      []error
}

// Option configures a System under construction by New.
type Option func(*builder)

// New builds a simulated system from functional options and returns a
// descriptive error — never a panic — when the configuration is invalid.
// Exactly one worker-supply option is required: WithHOGPool, WithLargeGrid,
// WithMegaGrid, WithGigaGrid, WithDedicatedCluster, WithStaticGroups, or
// WithConfig. The supply option
// establishes the base configuration; every other option refines it, in the
// order written, regardless of where the supply option appears:
//
//	sys, err := hog.New(
//		hog.WithHOGPool(60, hog.ChurnNone),
//		hog.WithSeed(11),
//		hog.WithHDFS(func(c *hog.HDFSConfig) { c.Replication = 2 }),
//		hog.WithScenario(hog.NewScenario("outage").
//			SiteOutageAt(hog.Minutes(5), "FNAL_FERMIGRID", 1.0)),
//	)
//
// The legacy NewSystem(Config) facade remains for existing callers; it runs
// the same validator but panics on invalid input.
func New(opts ...Option) (*System, error) {
	b := &builder{}
	for _, o := range opts {
		o(b)
	}
	if !b.supply {
		return nil, errors.New("hog: no worker supply configured; use WithHOGPool, WithLargeGrid, WithMegaGrid, WithGigaGrid, WithDedicatedCluster, WithStaticGroups, or WithConfig")
	}
	for _, f := range b.deferred {
		f(b)
	}
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	sys, err := core.NewSystem(b.cfg, b.observers...)
	if err != nil {
		return nil, err
	}
	for _, sc := range b.scenarios {
		if err := sys.Apply(sc); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// errf records a construction error; New reports them joined.
func (b *builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("hog: "+format, args...))
}

// later registers a refinement to run after the supply options.
func (b *builder) later(f func(*builder)) { b.deferred = append(b.deferred, f) }

// WithConfig starts from a complete Config (the migration path from the
// NewSystem facade: any config that worked there works here, with errors
// instead of panics). Later options refine it.
func WithConfig(cfg Config) Option {
	return func(b *builder) {
		b.cfg = cfg
		b.supply = true
	}
}

// WithHOGPool selects the paper's HOG setup — an elastic glide-in pool over
// the five OSG sites with replication 10, site awareness, and 30-second dead
// timeouts — at the given target size and churn profile.
func WithHOGPool(targetNodes int, churn ChurnProfile) Option {
	return func(b *builder) {
		if targetNodes <= 0 {
			b.errf("WithHOGPool: non-positive target %d", targetNodes)
			return
		}
		b.cfg = core.HOGConfig(targetNodes, churn, b.cfg.Seed)
		b.supply = true
	}
}

// WithLargeGrid selects the twelve-site LargeGridSites preset for scale-out
// runs around 1000 nodes.
func WithLargeGrid(targetNodes int, churn ChurnProfile) Option {
	return func(b *builder) {
		if targetNodes <= 0 {
			b.errf("WithLargeGrid: non-positive target %d", targetNodes)
			return
		}
		b.cfg = core.LargeGridConfig(targetNodes, churn, b.cfg.Seed)
		b.supply = true
	}
}

// WithMegaGrid selects the forty-site MegaGridSites preset for runs around
// 10,000 nodes — the MEGA-GRID scale point (see docs/HARNESS.md).
func WithMegaGrid(targetNodes int, churn ChurnProfile) Option {
	return func(b *builder) {
		if targetNodes <= 0 {
			b.errf("WithMegaGrid: non-positive target %d", targetNodes)
			return
		}
		b.cfg = core.MegaGridConfig(targetNodes, churn, b.cfg.Seed)
		b.supply = true
	}
}

// WithGigaGrid selects the ~104-site GigaGridSites preset for runs around
// 100,000 nodes — the GIGA-GRID scale point (see docs/PERF.md and
// docs/HARNESS.md).
func WithGigaGrid(targetNodes int, churn ChurnProfile) Option {
	return func(b *builder) {
		if targetNodes <= 0 {
			b.errf("WithGigaGrid: non-positive target %d", targetNodes)
			return
		}
		b.cfg = core.GigaGridConfig(targetNodes, churn, b.cfg.Seed)
		b.supply = true
	}
}

// WithDedicatedCluster selects the paper's Table III comparison cluster
// (30 nodes, 100 map and 30 reduce slots, one rack, stock Hadoop settings).
func WithDedicatedCluster() Option {
	return func(b *builder) {
		b.cfg = core.DedicatedClusterConfig(b.cfg.Seed)
		b.supply = true
	}
}

// WithStaticGroups configures a custom dedicated cluster from homogeneous
// node groups instead of a preset.
func WithStaticGroups(groups ...StaticGroup) Option {
	return func(b *builder) {
		if len(groups) == 0 {
			b.errf("WithStaticGroups: no groups")
			return
		}
		b.cfg.Grid = nil
		b.cfg.Static = append([]StaticGroup(nil), groups...)
		if b.cfg.Net == (NetConfig{}) {
			b.cfg.Net = netmodel.DefaultConfig()
		}
		if b.cfg.HDFS == (HDFSConfig{}) {
			b.cfg.HDFS = hdfs.DefaultConfig()
		}
		if b.cfg.MapRed.IsZero() {
			b.cfg.MapRed = mapred.DefaultConfig()
		}
		b.supply = true
	}
}

// WithSeed sets the simulation seed. Same seed, same options: identical run,
// identical event stream.
func WithSeed(seed int64) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.Seed = seed }) }
}

// WithSites replaces a grid supply's site list (custom topologies, custom
// churn distributions). It requires a grid supply option.
func WithSites(sites ...SiteConfig) Option {
	return func(b *builder) {
		b.later(func(b *builder) {
			if b.cfg.Grid == nil {
				b.errf("WithSites requires a grid supply (WithHOGPool, WithLargeGrid, WithMegaGrid, or WithGigaGrid)")
				return
			}
			if len(sites) == 0 {
				b.errf("WithSites: no sites")
				return
			}
			b.cfg.Grid.Sites = append([]SiteConfig(nil), sites...)
		})
	}
}

// WithPool overrides glide-in pool parameters (provisioning delay, slots per
// worker, scratch disk). It requires a grid supply option.
func WithPool(mut func(*PoolConfig)) Option {
	return func(b *builder) {
		b.later(func(b *builder) {
			if b.cfg.Grid == nil {
				b.errf("WithPool requires a grid supply (WithHOGPool, WithLargeGrid, WithMegaGrid, or WithGigaGrid)")
				return
			}
			mut(&b.cfg.Grid.Pool)
		})
	}
}

// WithZombies selects the preempted-daemon behaviour (§IV.D.1): ZombieFixed,
// ZombieUnfixed, or ZombieDiskCheck.
func WithZombies(mode ZombieMode) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.Zombie = mode }) }
}

// WithSchedulerPolicy selects the job-ordering policy by registry name
// ("fifo", "fair"). The empty string keeps the default ("fifo", the paper's
// choice); unknown names and invalid combinations (a non-default policy with
// the scan scheduler) are rejected at New time.
func WithSchedulerPolicy(name string) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.Policies.Scheduler = name }) }
}

// WithSpeculationPolicy selects the straggler criterion by registry name
// ("threshold", "site-load"). The empty string keeps the default
// ("threshold", the paper's slowdown rule).
func WithSpeculationPolicy(name string) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.Policies.Speculation = name }) }
}

// WithPlacementPolicy selects the block-placement policy by registry name
// ("grid", "random"). The empty string keeps the default ("grid", the
// paper's site-aware spread).
func WithPlacementPolicy(name string) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.Policies.Placement = name }) }
}

// WithReplicationOrder selects the block-recovery ordering by registry name
// ("fifo", "rarest"). The empty string keeps the default ("fifo", recovery
// in loss order).
func WithReplicationOrder(name string) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.Policies.Replication = name }) }
}

// WithPools configures fair-share pools for the "fair" scheduler policy.
// Jobs name their pool through JobConfig.Pool (defaulting to their workload
// bin); pools absent from the map get weight 1 and no running cap.
func WithPools(pools map[string]FairPoolConfig) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.MapRed.Pools = pools }) }
}

// WithHDFS overrides namenode parameters in place:
//
//	hog.WithHDFS(func(c *hog.HDFSConfig) { c.Replication = 2; c.SiteAware = false })
func WithHDFS(mut func(*HDFSConfig)) Option {
	return func(b *builder) { b.later(func(b *builder) { mut(&b.cfg.HDFS) }) }
}

// WithMapRed overrides JobTracker parameters in place.
func WithMapRed(mut func(*MapRedConfig)) Option {
	return func(b *builder) { b.later(func(b *builder) { mut(&b.cfg.MapRed) }) }
}

// WithNet overrides the network model's physical constants in place.
func WithNet(mut func(*NetConfig)) Option {
	return func(b *builder) { b.later(func(b *builder) { mut(&b.cfg.Net) }) }
}

// WithCosts replaces the benchmark-job cost model.
func WithCosts(costs JobCosts) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.Costs = costs }) }
}

// WithRunBound caps a workload run's simulated duration.
func WithRunBound(bound Time) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.RunBound = bound }) }
}

// WithSampleInterval sets the reported-alive sampling period (Figure 5).
func WithSampleInterval(interval Time) Option {
	return func(b *builder) { b.later(func(b *builder) { b.cfg.SampleInterval = interval }) }
}

// WithObserver subscribes an observer to the system's typed event stream
// before construction, so it sees every event from the first node join.
// Repeat for multiple observers; they are invoked in subscription order.
func WithObserver(o Observer) Option {
	return func(b *builder) {
		if o == nil {
			b.errf("WithObserver: nil observer")
			return
		}
		b.observers = append(b.observers, o)
	}
}

// WithEvents subscribes a fresh EventLog filtered to the given types (all
// types when empty) and returns it alongside the option — the one-line way
// to collect events:
//
//	log, opt := hog.WithEvents(hog.EvBlockLost, hog.EvReplicationDone)
//	sys, err := hog.New(hog.WithHOGPool(60, hog.ChurnNone), opt)
func WithEvents(types ...EventType) (*EventLog, Option) {
	log := NewEventLog(types...)
	return log, WithObserver(log)
}

// WithScenario installs a scripted scenario; it is validated against the
// built system (unknown sites, pool actions on static clusters, bad
// fractions all fail construction). Repeat for multiple scenarios.
func WithScenario(sc *Scenario) Option {
	return func(b *builder) {
		if sc == nil {
			b.errf("WithScenario: nil scenario")
			return
		}
		b.scenarios = append(b.scenarios, sc)
	}
}
