package core

import (
	"errors"
	"fmt"

	"hog/internal/event"
	"hog/internal/sim"
)

// Scenario is an ordered, validated script of fault-injection and operations
// actions — the paper's evaluation vocabulary (site-wide preemption, churn
// bursts, elastic retargets, balancer rounds) as first-class data instead of
// ad-hoc engine callbacks poking simulation internals.
//
// A scenario is built fluently (NewScenario(...).SiteOutageAt(...)...) and
// installed with System.Apply, which validates every step against the target
// system up front: unknown site names, fractions outside (0,1], pool actions
// on a static cluster, and negative offsets are rejected before the run
// starts instead of misfiring mid-simulation. Timed steps are anchored to
// the workload start (the instant provisioning completes and RunWorkload
// begins submitting, the paper's §IV.B procedure); same-instant steps fire
// in declaration order. Condition-triggered steps are polled on the
// scenario's Poll interval and fire at most once.
//
// Scenarios hold no per-run state: the same Scenario value can be applied to
// any number of systems.
type Scenario struct {
	name string
	poll sim.Time

	steps []*scenarioStep
	errs  []error
}

// scenarioStep is one action. Timed steps carry an offset from workload
// start; conditional steps carry a predicate polled until it first holds.
type scenarioStep struct {
	at    sim.Time
	timed bool
	desc  string
	keys  []string            // targets a timed step acts on, for conflict detection
	check func(*System) error // static validation against the target system
	cond  func(*System) bool  // conditional steps only
	run   func(*System)
	spec  *StepSpec // serializable form; nil for When's arbitrary closures
}

// StepSpec is the serializable form of one typed scenario step. Every
// builder verb except When records one, so an applied scenario can be
// encoded into a snapshot and rebuilt verb-for-verb on restore
// (ScenarioFromSpec). Fields not used by a verb are zero and omitted from
// JSON.
type StepSpec struct {
	// Verb names the builder method: "site-outage", "churn-burst",
	// "kill-fraction", "retarget-pool", "rebalance", "degrade-network",
	// "crash-namenode", "crash-jobtracker", "restart-masters",
	// "retarget-alive-below", "partition-site", "partition-nodes",
	// "heal-partition", "degrade-nodes", "restore-nodes",
	// "corrupt-replicas".
	Verb      string   `json:"verb"`
	At        sim.Time `json:"at,omitempty"`
	Site      string   `json:"site,omitempty"`
	Frac      float64  `json:"frac,omitempty"`
	Target    int      `json:"target,omitempty"`
	Threshold float64  `json:"threshold,omitempty"`
	MaxMoves  int      `json:"max_moves,omitempty"`
	Factor    float64  `json:"factor,omitempty"`
	Below     int      `json:"below,omitempty"`
	// Beyond-crash-stop fault fields (faults.go): Mode is a partition's cut
	// direction ("both"/"in"/"out"), Count a node-granular verb's victim
	// count, Loss a gray node's heartbeat-drop probability, File a
	// corruption target.
	Mode  string  `json:"mode,omitempty"`
	Count int     `json:"count,omitempty"`
	Loss  float64 `json:"loss,omitempty"`
	File  string  `json:"file,omitempty"`
}

// ScenarioSpec is the serializable form of a whole scenario.
type ScenarioSpec struct {
	Name  string     `json:"name"`
	Poll  sim.Time   `json:"poll"`
	Steps []StepSpec `json:"steps"`
}

// Spec returns the scenario's serializable form. It fails when the scenario
// carries build errors or contains a step the typed vocabulary cannot
// express — a When step's arbitrary closures cannot be serialized, so a
// scenario using When cannot ride along in a snapshot.
func (sc *Scenario) Spec() (ScenarioSpec, error) {
	if len(sc.errs) > 0 {
		return ScenarioSpec{}, fmt.Errorf("core: scenario %q invalid: %w", sc.name, errors.Join(sc.errs...))
	}
	out := ScenarioSpec{Name: sc.name, Poll: sc.poll}
	for _, st := range sc.steps {
		if st.spec == nil {
			return ScenarioSpec{}, fmt.Errorf("core: scenario %q: step %q has no serializable form (When closures cannot be snapshotted)", sc.name, st.desc)
		}
		out.Steps = append(out.Steps, *st.spec)
	}
	return out, nil
}

// ScenarioFromSpec rebuilds a scenario from its serializable form by
// replaying the builder verbs, so a restored scenario behaves exactly like
// the original. Unknown verbs are an error (a snapshot written by a newer
// version, or a corrupted one).
func ScenarioFromSpec(spec ScenarioSpec) (*Scenario, error) {
	sc := NewScenario(spec.Name)
	if spec.Poll != 0 {
		sc.Poll(spec.Poll)
	}
	for _, st := range spec.Steps {
		switch st.Verb {
		case "site-outage":
			sc.SiteOutageAt(st.At, st.Site, st.Frac)
		case "churn-burst":
			sc.ChurnBurst(st.At, st.Frac)
		case "kill-fraction":
			sc.KillFraction(st.At, st.Frac)
		case "retarget-pool":
			sc.RetargetPool(st.At, st.Target)
		case "rebalance":
			sc.RebalanceAt(st.At, st.Threshold, st.MaxMoves)
		case "degrade-network":
			sc.DegradeNetwork(st.At, st.Site, st.Factor)
		case "crash-namenode":
			sc.CrashNameNodeAt(st.At)
		case "crash-jobtracker":
			sc.CrashJobTrackerAt(st.At)
		case "restart-masters":
			sc.RestartMastersAfter(st.At)
		case "retarget-alive-below":
			sc.RetargetWhenAliveBelow(st.Below, st.Target)
		case "partition-site":
			sc.PartitionSiteAt(st.At, st.Site, st.Mode)
		case "partition-nodes":
			sc.PartitionNodesAt(st.At, st.Site, st.Count, st.Mode)
		case "heal-partition":
			sc.HealPartitionAt(st.At, st.Site)
		case "degrade-nodes":
			sc.DegradeNodesAt(st.At, st.Site, st.Count, st.Factor, st.Loss)
		case "restore-nodes":
			sc.RestoreNodesAt(st.At, st.Site)
		case "corrupt-replicas":
			sc.CorruptReplicasAt(st.At, st.File, st.Count)
		default:
			return nil, fmt.Errorf("core: scenario %q: unknown step verb %q", spec.Name, st.Verb)
		}
	}
	if len(sc.errs) > 0 {
		return nil, fmt.Errorf("core: scenario %q invalid: %w", spec.Name, errors.Join(sc.errs...))
	}
	return sc, nil
}

// NewScenario returns an empty scenario. The name labels validation errors.
func NewScenario(name string) *Scenario {
	return &Scenario{name: name, poll: 5 * sim.Second}
}

// Name returns the scenario's label.
func (sc *Scenario) Name() string { return sc.name }

// Steps returns the number of scripted actions.
func (sc *Scenario) Steps() int { return len(sc.steps) }

// Poll sets the predicate polling period for condition-triggered steps
// (default 5 simulated seconds). Periods under a millisecond are rejected:
// a microsecond poll fires a million events per simulated second, so one
// scenario from an untrusted spec could stall a whole run.
func (sc *Scenario) Poll(interval sim.Time) *Scenario {
	if interval < sim.Millisecond {
		sc.errs = append(sc.errs, fmt.Errorf("poll interval %v under 1ms", interval))
		return sc
	}
	sc.poll = interval
	return sc
}

func (sc *Scenario) addTimed(at sim.Time, desc string, keys []string, check func(*System) error, run func(*System), spec *StepSpec) *Scenario {
	if at < 0 {
		sc.errs = append(sc.errs, fmt.Errorf("%s at negative offset %v", desc, at))
		return sc
	}
	sc.steps = append(sc.steps, &scenarioStep{at: at, timed: true, desc: desc, keys: keys, check: check, run: run, spec: spec})
	return sc
}

func (sc *Scenario) addCond(desc string, check func(*System) error, cond func(*System) bool, run func(*System), spec *StepSpec) *Scenario {
	sc.steps = append(sc.steps, &scenarioStep{desc: desc, check: check, cond: cond, run: run, spec: spec})
	return sc
}

// checkFrac validates a preemption/kill fraction at build time.
func (sc *Scenario) checkFrac(desc string, frac float64) bool {
	if frac <= 0 || frac > 1 {
		sc.errs = append(sc.errs, fmt.Errorf("%s fraction %g outside (0,1]", desc, frac))
		return false
	}
	return true
}

// needPool is the Apply-time check for actions that drive the glide-in pool.
func needPool(desc string) func(*System) error {
	return func(s *System) error {
		if s.Pool == nil {
			return fmt.Errorf("%s requires a grid system (static cluster has no pool)", desc)
		}
		return nil
	}
}

// needSite validates a site name against the pool's site list.
func needSite(desc, site string) func(*System) error {
	return func(s *System) error {
		if s.Pool == nil {
			return fmt.Errorf("%s requires a grid system (static cluster has no pool)", desc)
		}
		if s.Pool.SiteIndexByName(site) < 0 {
			return fmt.Errorf("%s: no site named %q (have %v)", desc, site, s.Pool.SiteNames())
		}
		return nil
	}
}

// SiteOutageAt takes fraction frac of the named site's workers down at
// offset at from workload start — the paper's §III.B.1 batch-preemption
// failure domain as a scripted fault. A SiteOutage event is emitted with the
// number of workers lost.
func (sc *Scenario) SiteOutageAt(at sim.Time, site string, frac float64) *Scenario {
	desc := fmt.Sprintf("site outage %q", site)
	if !sc.checkFrac(desc, frac) {
		return sc
	}
	return sc.addTimed(at, desc, []string{"site:" + site}, needSite(desc, site), func(s *System) {
		killed, _ := s.Pool.PreemptSiteNamed(site, frac)
		if s.bus.Active() {
			ev := event.At(event.SiteOutage, s.Eng.Now())
			ev.Site = site
			ev.Value = killed
			s.bus.Emit(ev)
		}
	}, &StepSpec{Verb: "site-outage", At: at, Site: site, Frac: frac})
}

// ChurnBurst preempts fraction frac of the pool's workers at every site
// simultaneously at offset at — a grid-wide preemption storm from a
// higher-priority campaign.
func (sc *Scenario) ChurnBurst(at sim.Time, frac float64) *Scenario {
	const desc = "churn burst"
	if !sc.checkFrac(desc, frac) {
		return sc
	}
	return sc.addTimed(at, desc, []string{"pool:members"}, needPool(desc), func(s *System) {
		s.Pool.BurstPreempt(frac)
	}, &StepSpec{Verb: "churn-burst", At: at, Frac: frac})
}

// KillFraction kills fraction frac of all alive workers at offset at, chosen
// uniformly across the pool; the pool requests replacements.
func (sc *Scenario) KillFraction(at sim.Time, frac float64) *Scenario {
	const desc = "kill fraction"
	if !sc.checkFrac(desc, frac) {
		return sc
	}
	return sc.addTimed(at, desc, []string{"pool:members"}, needPool(desc), func(s *System) {
		s.Pool.KillFraction(frac)
	}, &StepSpec{Verb: "kill-fraction", At: at, Frac: frac})
}

// RetargetPool changes the pool's target size at offset at (the paper's
// elastic growth: "the number of nodes can grow and shrink elastically").
func (sc *Scenario) RetargetPool(at sim.Time, target int) *Scenario {
	desc := fmt.Sprintf("retarget pool to %d", target)
	if target < 0 {
		sc.errs = append(sc.errs, fmt.Errorf("%s: negative target", desc))
		return sc
	}
	return sc.addTimed(at, desc, []string{"pool:target"}, needPool(desc), func(s *System) {
		s.Pool.SetTarget(target)
	}, &StepSpec{Verb: "retarget-pool", At: at, Target: target})
}

// RebalanceAt runs one HDFS balancer round at offset at, moving replicas
// from nodes above the mean utilisation by more than threshold to nodes
// below it, bounded by maxMoves.
func (sc *Scenario) RebalanceAt(at sim.Time, threshold float64, maxMoves int) *Scenario {
	const desc = "hdfs rebalance"
	if threshold < 0 || maxMoves <= 0 {
		sc.errs = append(sc.errs, fmt.Errorf("%s: threshold %g / maxMoves %d invalid", desc, threshold, maxMoves))
		return sc
	}
	return sc.addTimed(at, desc, []string{"balancer"}, nil, func(s *System) {
		s.NN.BalanceOnce(threshold, maxMoves)
	}, &StepSpec{Verb: "rebalance", At: at, Threshold: threshold, MaxMoves: maxMoves})
}

// DegradeNetwork scales the named site's WAN uplink and downlink capacity by
// factor at offset at (factor 0.1 = a 10x-degraded WAN path; factors above 1
// model an upgrade). Works on grid sites and the static cluster's
// "cluster.local" site alike.
func (sc *Scenario) DegradeNetwork(at sim.Time, site string, factor float64) *Scenario {
	desc := fmt.Sprintf("degrade network %q", site)
	if factor <= 0 {
		sc.errs = append(sc.errs, fmt.Errorf("%s: non-positive factor %g", desc, factor))
		return sc
	}
	check := func(s *System) error {
		if _, ok := s.Net.SiteByName(site); !ok {
			return fmt.Errorf("%s: no network site named %q", desc, site)
		}
		return nil
	}
	return sc.addTimed(at, desc, []string{"net:" + site}, check, func(s *System) {
		id, ok := s.Net.SiteByName(site)
		if !ok {
			return
		}
		up, down := s.Net.SiteBandwidth(id)
		s.Net.SetSiteBandwidth(id, up*factor, down*factor)
	}, &StepSpec{Verb: "degrade-network", At: at, Site: site, Factor: factor})
}

// CrashNameNodeAt fails the namenode at offset at from workload start. Its
// soft state (the block map) is lost; physical blocks on datanodes survive.
// Writes stall and replication stops until RestartMastersAfter brings it
// back through safe mode (docs/FAULTS.md).
func (sc *Scenario) CrashNameNodeAt(at sim.Time) *Scenario {
	return sc.addTimed(at, "crash namenode", []string{"master:nn"}, nil, func(s *System) {
		s.CrashNameNode()
	}, &StepSpec{Verb: "crash-namenode", At: at})
}

// CrashJobTrackerAt fails the JobTracker at offset at from workload start.
// In-flight task state is lost; completed map output on surviving nodes is
// kept across restart.
func (sc *Scenario) CrashJobTrackerAt(at sim.Time) *Scenario {
	return sc.addTimed(at, "crash jobtracker", []string{"master:jt"}, nil, func(s *System) {
		s.CrashJobTracker()
	}, &StepSpec{Verb: "crash-jobtracker", At: at})
}

// RestartMastersAfter restarts whichever masters are down at offset at from
// workload start. The namenode re-enters service through safe mode; trackers
// re-register with the JobTracker as their backed-off retries land.
func (sc *Scenario) RestartMastersAfter(at sim.Time) *Scenario {
	return sc.addTimed(at, "restart masters", []string{"master:nn", "master:jt"}, nil, func(s *System) {
		s.RestartMasters()
	}, &StepSpec{Verb: "restart-masters", At: at})
}

// RetargetWhenAliveBelow raises the pool target to target the first time the
// alive worker count drops below threshold — scripted self-healing for
// outage scenarios.
func (sc *Scenario) RetargetWhenAliveBelow(threshold, target int) *Scenario {
	desc := fmt.Sprintf("retarget to %d when alive < %d", target, threshold)
	if threshold <= 0 || target < 0 {
		sc.errs = append(sc.errs, fmt.Errorf("%s: invalid threshold/target", desc))
		return sc
	}
	return sc.addCond(desc, needPool(desc),
		func(s *System) bool { return s.Pool.AliveCount() < threshold },
		func(s *System) { s.Pool.SetTarget(target) },
		&StepSpec{Verb: "retarget-alive-below", Below: threshold, Target: target})
}

// needNetSite validates a site name against the network's site registry at
// Apply time — unlike needSite it accepts the static cluster's
// "cluster.local" too.
func needNetSite(desc, site string) func(*System) error {
	return func(s *System) error {
		if _, ok := s.Net.SiteByName(site); !ok {
			return fmt.Errorf("%s: no network site named %q", desc, site)
		}
		return nil
	}
}

// checkMode validates a partition mode string at build time.
func (sc *Scenario) checkMode(desc, mode string) bool {
	if _, _, err := partitionCuts(mode); err != nil {
		sc.errs = append(sc.errs, fmt.Errorf("%s: %w", desc, err))
		return false
	}
	return true
}

// PartitionSiteAt cuts the named site off from the rest of the fabric at
// offset at (mode "both", "in", or "out" — see faults.go). Heartbeats and
// data across the cut stop; the masters' dead timeouts fire exactly as for
// a mass crash, but the daemons survive and HealPartitionAt revives them.
func (sc *Scenario) PartitionSiteAt(at sim.Time, site, mode string) *Scenario {
	desc := fmt.Sprintf("partition site %q", site)
	if !sc.checkMode(desc, mode) {
		return sc
	}
	return sc.addTimed(at, desc, []string{"net-part:" + site}, needNetSite(desc, site), func(s *System) {
		s.PartitionSiteNamed(site, mode)
	}, &StepSpec{Verb: "partition-site", At: at, Site: site, Mode: mode})
}

// PartitionNodesAt installs node-level cuts on the count lowest-ID healthy
// workers of the named site at offset at — victims are resolved when the
// step fires, because node IDs do not exist before provisioning.
func (sc *Scenario) PartitionNodesAt(at sim.Time, site string, count int, mode string) *Scenario {
	desc := fmt.Sprintf("partition %d nodes at %q", count, site)
	if !sc.checkMode(desc, mode) {
		return sc
	}
	if count <= 0 {
		sc.errs = append(sc.errs, fmt.Errorf("%s: non-positive count", desc))
		return sc
	}
	return sc.addTimed(at, desc, []string{"net-part-nodes:" + site}, needNetSite(desc, site), func(s *System) {
		s.PartitionNodesNamed(site, count, mode)
	}, &StepSpec{Verb: "partition-nodes", At: at, Site: site, Count: count, Mode: mode})
}

// HealPartitionAt lifts the site-level cut on the named site and every
// node-level cut on workers there at offset at, running heal-side recovery
// (datanode re-registration with preserved inventory, tracker revival,
// zombie-task resolution — faults.go).
func (sc *Scenario) HealPartitionAt(at sim.Time, site string) *Scenario {
	desc := fmt.Sprintf("heal partition %q", site)
	return sc.addTimed(at, desc, []string{"net-part:" + site, "net-part-nodes:" + site}, needNetSite(desc, site), func(s *System) {
		s.HealPartitionNamed(site)
	}, &StepSpec{Verb: "heal-partition", At: at, Site: site})
}

// DegradeNodesAt puts the count lowest-ID healthy workers of the named site
// under gray degradation at offset at: disks derated to 1/factor of nominal,
// compute slowed by the same factor, each heartbeat dropped with probability
// loss, and the nodes excluded from replica placement while flagged.
func (sc *Scenario) DegradeNodesAt(at sim.Time, site string, count int, factor, loss float64) *Scenario {
	desc := fmt.Sprintf("degrade %d nodes at %q", count, site)
	if count <= 0 || factor < 1 || loss < 0 || loss >= 1 {
		sc.errs = append(sc.errs, fmt.Errorf("%s: count %d / factor %g / loss %g invalid", desc, count, factor, loss))
		return sc
	}
	return sc.addTimed(at, desc, []string{"degrade:" + site}, needNetSite(desc, site), func(s *System) {
		s.DegradeNodesNamed(site, count, factor, loss)
	}, &StepSpec{Verb: "degrade-nodes", At: at, Site: site, Count: count, Factor: factor, Loss: loss})
}

// RestoreNodesAt lifts gray degradation from every degraded worker at the
// named site at offset at.
func (sc *Scenario) RestoreNodesAt(at sim.Time, site string) *Scenario {
	desc := fmt.Sprintf("restore nodes at %q", site)
	return sc.addTimed(at, desc, []string{"degrade:" + site}, needNetSite(desc, site), func(s *System) {
		s.RestoreNodesNamed(site)
	}, &StepSpec{Verb: "restore-nodes", At: at, Site: site})
}

// CorruptReplicasAt silently corrupts up to count replicas of the named file
// at offset at (lowest block, lowest holder IDs first — fire-time
// resolution). The namenode learns nothing until a reader's checksum
// verification catches a bad copy; workload input files are staged as
// "/in/<job-name>".
func (sc *Scenario) CorruptReplicasAt(at sim.Time, file string, count int) *Scenario {
	desc := fmt.Sprintf("corrupt %d replicas of %q", count, file)
	if count <= 0 || file == "" {
		sc.errs = append(sc.errs, fmt.Errorf("%s: invalid count or empty file", desc))
		return sc
	}
	return sc.addTimed(at, desc, []string{"corrupt:" + file}, nil, func(s *System) {
		s.CorruptFileReplicas(file, count)
	}, &StepSpec{Verb: "corrupt-replicas", At: at, File: file, Count: count})
}

// When adds a generic condition-triggered step: cond is polled on the
// scenario's Poll interval and do fires once, the first time it holds. It is
// the escape hatch for conditions the typed vocabulary does not cover; cond
// must be a pure read of system state.
func (sc *Scenario) When(desc string, cond func(*System) bool, do func(*System)) *Scenario {
	if cond == nil || do == nil {
		sc.errs = append(sc.errs, fmt.Errorf("when %q: nil condition or action", desc))
		return sc
	}
	return sc.addCond("when "+desc, nil, cond, do, nil)
}

// Apply validates the scenario against this system and installs it. Every
// step is checked up front — builder-time errors (bad fractions, negative
// offsets) and system-dependent ones (unknown sites, pool actions on a
// static cluster) all surface here, before anything runs. Scenarios must be
// applied before RunWorkload; their timed steps are anchored to the workload
// start it establishes.
func (s *System) Apply(sc *Scenario) error {
	if s.scenariosArmed {
		return fmt.Errorf("core: scenario %q applied after the workload started", sc.name)
	}
	if len(sc.errs) > 0 {
		return fmt.Errorf("core: scenario %q invalid: %w", sc.name, errors.Join(sc.errs...))
	}
	if len(sc.steps) == 0 {
		return fmt.Errorf("core: scenario %q has no actions", sc.name)
	}
	for _, st := range sc.steps {
		if st.check != nil {
			if err := st.check(s); err != nil {
				return fmt.Errorf("core: scenario %q: %w", sc.name, err)
			}
		}
	}
	// Same-instant steps fire in declaration order, so two actions on the
	// same target at the same offset have an order-dependent outcome the
	// author almost certainly did not intend (crash+restart at t, two
	// outages of one site at t). Reject them — within this scenario and
	// against every scenario already applied to this system.
	staged := make(map[string]string)
	for _, st := range sc.steps {
		if !st.timed {
			continue
		}
		for _, key := range st.keys {
			k := fmt.Sprintf("%v|%s", st.at, key)
			if prev, ok := s.timedKeys[k]; ok {
				return fmt.Errorf("core: scenario %q: %s at %v conflicts with already-applied %s (same instant, same target %s)",
					sc.name, st.desc, st.at, prev, key)
			}
			if prev, ok := staged[k]; ok {
				return fmt.Errorf("core: scenario %q: %s at %v conflicts with %s (same instant, same target %s)",
					sc.name, st.desc, st.at, prev, key)
			}
			staged[k] = st.desc
		}
	}
	if s.timedKeys == nil {
		s.timedKeys = make(map[string]string)
	}
	for k, d := range staged {
		s.timedKeys[k] = d
	}
	s.scenarios = append(s.scenarios, sc)
	return nil
}

// armScenarios schedules every installed scenario's steps relative to the
// current instant (the workload start). Timed steps become engine events in
// declaration order; conditional steps share one poller per scenario that
// stops itself once every condition has fired.
func (s *System) armScenarios() {
	if s.scenariosArmed {
		return
	}
	s.scenariosArmed = true
	start := s.Eng.Now()
	for _, sc := range s.scenarios {
		s.armScenario(sc, start)
	}
}

// armScenario schedules one scenario's steps relative to anchor.
func (s *System) armScenario(sc *Scenario, anchor sim.Time) {
	var conds []*scenarioStep
	for _, st := range sc.steps {
		if st.timed {
			st := st
			s.Eng.Schedule(anchor+st.at, func() { st.run(s) })
		} else {
			conds = append(conds, st)
		}
	}
	if len(conds) > 0 {
		fired := make([]bool, len(conds))
		var tk *sim.Ticker
		tk = s.Eng.Every(sc.poll, func() {
			remaining := false
			for i, st := range conds {
				if fired[i] {
					continue
				}
				if st.cond(s) {
					fired[i] = true
					st.run(s)
				} else {
					remaining = true
				}
			}
			if !remaining {
				tk.Stop()
			}
		})
	}
}

// ApplyDivergence validates sc against this system and arms it immediately,
// anchored at the current instant instead of the workload start — the
// divergence half of a what-if fork: restore a snapshot, diverge, run on.
// Only an in-flight run (phase started) can diverge, and a diverged system
// can no longer be snapshotted (snapshot.Save rejects it): its history is
// not reproducible from config + pre-start scenarios alone.
func (s *System) ApplyDivergence(sc *Scenario) error {
	if s.phase != PhaseStarted {
		return fmt.Errorf("core: divergence %q applied to a %v system (restore a mid-run snapshot first)", sc.name, s.phase)
	}
	if len(sc.errs) > 0 {
		return fmt.Errorf("core: divergence %q invalid: %w", sc.name, errors.Join(sc.errs...))
	}
	if len(sc.steps) == 0 {
		return fmt.Errorf("core: divergence %q has no actions", sc.name)
	}
	for _, st := range sc.steps {
		if st.check != nil {
			if err := st.check(s); err != nil {
				return fmt.Errorf("core: divergence %q: %w", sc.name, err)
			}
		}
	}
	s.diverged = true
	s.armScenario(sc, s.Eng.Now())
	return nil
}
