package snapshot

import (
	"fmt"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// distDTO is the kind-discriminated wire form of a sim.Dist. Every
// distribution the presets use round-trips; an unknown implementation is a
// Save-time error rather than a silently wrong restore.
type distDTO struct {
	Kind     string   `json:"kind"`
	V        sim.Time `json:"v,omitempty"`       // constant
	M        sim.Time `json:"m,omitempty"`       // exponential mean
	Lo       sim.Time `json:"lo,omitempty"`      // uniform
	Hi       sim.Time `json:"hi,omitempty"`      // uniform
	Mu       sim.Time `json:"mu,omitempty"`      // normal
	Sigma    sim.Time `json:"sigma,omitempty"`   // normal
	Offset   sim.Time `json:"offset,omitempty"`  // shifted
	D        *distDTO `json:"d,omitempty"`       // shifted inner
	MuLog    float64  `json:"mu_log,omitempty"`  // lognormal
	SigmaLog float64  `json:"sig_log,omitempty"` // lognormal
}

func encodeDist(d sim.Dist) (*distDTO, error) {
	switch v := d.(type) {
	case nil:
		return nil, nil
	case sim.Constant:
		return &distDTO{Kind: "constant", V: v.V}, nil
	case sim.Exponential:
		return &distDTO{Kind: "exponential", M: v.M}, nil
	case sim.Uniform:
		return &distDTO{Kind: "uniform", Lo: v.Lo, Hi: v.Hi}, nil
	case sim.Normal:
		return &distDTO{Kind: "normal", Mu: v.Mu, Sigma: v.Sigma}, nil
	case sim.Shifted:
		inner, err := encodeDist(v.D)
		if err != nil {
			return nil, err
		}
		return &distDTO{Kind: "shifted", Offset: v.Offset, D: inner}, nil
	case sim.LogNormal:
		return &distDTO{Kind: "lognormal", MuLog: v.MuLog, SigmaLog: v.SigmaLog}, nil
	default:
		return nil, fmt.Errorf("snapshot: cannot encode distribution type %T", d)
	}
}

func decodeDist(d *distDTO) (sim.Dist, error) {
	if d == nil {
		return nil, nil
	}
	switch d.Kind {
	case "constant":
		return sim.Constant{V: d.V}, nil
	case "exponential":
		return sim.Exponential{M: d.M}, nil
	case "uniform":
		return sim.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "normal":
		return sim.Normal{Mu: d.Mu, Sigma: d.Sigma}, nil
	case "shifted":
		inner, err := decodeDist(d.D)
		if err != nil {
			return nil, err
		}
		return sim.Shifted{Offset: d.Offset, D: inner}, nil
	case "lognormal":
		return sim.LogNormal{MuLog: d.MuLog, SigmaLog: d.SigmaLog}, nil
	default:
		return nil, fmt.Errorf("snapshot: unknown distribution kind %q", d.Kind)
	}
}

type siteDTO struct {
	Name              string   `json:"name"`
	Domain            string   `json:"domain"`
	Capacity          int      `json:"capacity"`
	Weight            float64  `json:"weight"`
	NodeLifetime      *distDTO `json:"node_lifetime,omitempty"`
	BatchPreemptEvery *distDTO `json:"batch_preempt_every,omitempty"`
	BatchPreemptFrac  float64  `json:"batch_preempt_frac,omitempty"`
	UplinkBps         float64  `json:"uplink_bps"`
	DownlinkBps       float64  `json:"downlink_bps"`
}

type poolCfgDTO struct {
	ProvisionDelay   *distDTO `json:"provision_delay,omitempty"`
	DiskBytesPerNode float64  `json:"disk_bytes_per_node"`
	MapSlots         int      `json:"map_slots"`
	ReduceSlots      int      `json:"reduce_slots"`
}

type gridDTO struct {
	TargetNodes    int        `json:"target_nodes"`
	Sites          []siteDTO  `json:"sites"`
	Pool           poolCfgDTO `json:"pool"`
	ProvisionBound sim.Time   `json:"provision_bound"`
}

// configDTO is core.Config with the sim.Dist interface fields replaced by
// their kind-discriminated wire forms; everything else is plain data and
// rides through as-is.
type configDTO struct {
	Seed                 int64              `json:"seed"`
	Grid                 *gridDTO           `json:"grid,omitempty"`
	Static               []core.StaticGroup `json:"static,omitempty"`
	Net                  netmodel.Config    `json:"net"`
	HDFS                 hdfs.Config        `json:"hdfs"`
	MapRed               mapred.Config      `json:"mapred"`
	Costs                core.JobCosts      `json:"costs"`
	Policies             core.Policies      `json:"policies"`
	Zombie               core.ZombieMode    `json:"zombie"`
	DiskCheckInterval    sim.Time           `json:"disk_check_interval"`
	SampleInterval       sim.Time           `json:"sample_interval"`
	RunBound             sim.Time           `json:"run_bound"`
	MasterBackoffInitial sim.Time           `json:"master_backoff_initial"`
	MasterBackoffMax     sim.Time           `json:"master_backoff_max"`
	MasterRetryTotal     sim.Time           `json:"master_retry_total"`
}

func encodeConfig(cfg core.Config) (configDTO, error) {
	dto := configDTO{
		Seed:                 cfg.Seed,
		Static:               cfg.Static,
		Net:                  cfg.Net,
		HDFS:                 cfg.HDFS,
		MapRed:               cfg.MapRed,
		Costs:                cfg.Costs,
		Policies:             cfg.Policies,
		Zombie:               cfg.Zombie,
		DiskCheckInterval:    cfg.DiskCheckInterval,
		SampleInterval:       cfg.SampleInterval,
		RunBound:             cfg.RunBound,
		MasterBackoffInitial: cfg.MasterBackoffInitial,
		MasterBackoffMax:     cfg.MasterBackoffMax,
		MasterRetryTotal:     cfg.MasterRetryTotal,
	}
	if cfg.Grid != nil {
		g := &gridDTO{TargetNodes: cfg.Grid.TargetNodes, ProvisionBound: cfg.Grid.ProvisionBound}
		for _, s := range cfg.Grid.Sites {
			life, err := encodeDist(s.NodeLifetime)
			if err != nil {
				return configDTO{}, fmt.Errorf("site %q lifetime: %w", s.Name, err)
			}
			batch, err := encodeDist(s.BatchPreemptEvery)
			if err != nil {
				return configDTO{}, fmt.Errorf("site %q batch-preempt: %w", s.Name, err)
			}
			g.Sites = append(g.Sites, siteDTO{
				Name: s.Name, Domain: s.Domain, Capacity: s.Capacity, Weight: s.Weight,
				NodeLifetime: life, BatchPreemptEvery: batch, BatchPreemptFrac: s.BatchPreemptFrac,
				UplinkBps: s.UplinkBps, DownlinkBps: s.DownlinkBps,
			})
		}
		delay, err := encodeDist(cfg.Grid.Pool.ProvisionDelay)
		if err != nil {
			return configDTO{}, fmt.Errorf("pool provision delay: %w", err)
		}
		g.Pool = poolCfgDTO{
			ProvisionDelay:   delay,
			DiskBytesPerNode: cfg.Grid.Pool.DiskBytesPerNode,
			MapSlots:         cfg.Grid.Pool.MapSlots,
			ReduceSlots:      cfg.Grid.Pool.ReduceSlots,
		}
		dto.Grid = g
	}
	return dto, nil
}

func decodeConfig(dto configDTO) (core.Config, error) {
	cfg := core.Config{
		Seed:                 dto.Seed,
		Static:               dto.Static,
		Net:                  dto.Net,
		HDFS:                 dto.HDFS,
		MapRed:               dto.MapRed,
		Costs:                dto.Costs,
		Policies:             dto.Policies,
		Zombie:               dto.Zombie,
		DiskCheckInterval:    dto.DiskCheckInterval,
		SampleInterval:       dto.SampleInterval,
		RunBound:             dto.RunBound,
		MasterBackoffInitial: dto.MasterBackoffInitial,
		MasterBackoffMax:     dto.MasterBackoffMax,
		MasterRetryTotal:     dto.MasterRetryTotal,
	}
	if dto.Grid != nil {
		g := &core.GridConfig{TargetNodes: dto.Grid.TargetNodes, ProvisionBound: dto.Grid.ProvisionBound}
		for _, s := range dto.Grid.Sites {
			life, err := decodeDist(s.NodeLifetime)
			if err != nil {
				return core.Config{}, fmt.Errorf("site %q lifetime: %w", s.Name, err)
			}
			batch, err := decodeDist(s.BatchPreemptEvery)
			if err != nil {
				return core.Config{}, fmt.Errorf("site %q batch-preempt: %w", s.Name, err)
			}
			g.Sites = append(g.Sites, grid.SiteConfig{
				Name: s.Name, Domain: s.Domain, Capacity: s.Capacity, Weight: s.Weight,
				NodeLifetime: life, BatchPreemptEvery: batch, BatchPreemptFrac: s.BatchPreemptFrac,
				UplinkBps: s.UplinkBps, DownlinkBps: s.DownlinkBps,
			})
		}
		delay, err := decodeDist(dto.Grid.Pool.ProvisionDelay)
		if err != nil {
			return core.Config{}, fmt.Errorf("pool provision delay: %w", err)
		}
		g.Pool = grid.PoolConfig{
			ProvisionDelay:   delay,
			DiskBytesPerNode: dto.Grid.Pool.DiskBytesPerNode,
			MapSlots:         dto.Grid.Pool.MapSlots,
			ReduceSlots:      dto.Grid.Pool.ReduceSlots,
		}
		cfg.Grid = g
	}
	return cfg, nil
}
