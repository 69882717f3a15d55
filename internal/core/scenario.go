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
// A scenario is built fluently (NewScenario(...).SiteOutageAt(...)...) or
// from its serializable form (ScenarioFromSpec); either way it is nothing
// but its ScenarioSpec, and every verb is one entry of the verbs table
// below. System.Apply validates every step against the target system up
// front: unknown site names, fractions outside (0,1], pool actions on a
// static cluster, and negative offsets are rejected before the run starts
// instead of misfiring mid-simulation. Timed steps are anchored to the
// workload start (the instant provisioning completes and RunWorkload begins
// submitting, the paper's §IV.B procedure); same-instant steps fire in
// declaration order. Condition-triggered steps are polled on the scenario's
// Poll interval and fire at most once.
//
// Scenarios hold no per-run state: the same Scenario value can be applied to
// any number of systems.
type Scenario struct {
	spec ScenarioSpec
	errs []error // argument errors found while building
}

// StepSpec is one scenario step. Builder verbs and ScenarioFromSpec both
// record it as is, so an applied scenario is encoded into a snapshot or a
// /fork body and rebuilt step for step. Fields not used by a verb are zero
// and omitted from JSON.
type StepSpec struct {
	// Verb names the action: "site-outage", "churn-burst",
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

// verb is everything one step verb means: the rules on its arguments
// (checked when the step is built), what the target system must have
// (checked at Apply), the targets a timed step acts on (two steps sharing
// one at the same instant conflict), and its action. A verb with a cond is
// condition-triggered: its step ignores At and fires the first time cond
// holds.
type verb struct {
	args  func(StepSpec) error
	need  need
	keys  []string
	scope func(StepSpec) string // which site or file the keys are about; nil for system-wide ones
	cond  func(*System, StepSpec) bool
	run   func(*System, StepSpec)
}

// need is what a verb requires of the system it is applied to.
type need uint8

const (
	needNothing  need = iota
	needPool          // a grid system
	needPoolSite      // a grid system with a site named StepSpec.Site
	needNetSite       // a network site named StepSpec.Site; the static cluster's "cluster.local" too
)

func bySite(st StepSpec) string { return st.Site }
func byFile(st StepSpec) string { return st.File }

var verbs = map[string]verb{
	"site-outage": {args: fracArg, need: needPoolSite, keys: []string{"site"}, scope: bySite,
		run: func(s *System, st StepSpec) {
			killed, _ := s.Pool.PreemptSiteNamed(st.Site, st.Frac) // site checked at Apply
			if s.bus.Active() {
				ev := event.At(event.SiteOutage, s.Eng.Now())
				ev.Site = st.Site
				ev.Value = killed
				s.bus.Emit(ev)
			}
		}},
	"churn-burst": {args: fracArg, need: needPool, keys: []string{"pool:members"},
		run: func(s *System, st StepSpec) { s.Pool.BurstPreempt(st.Frac) }},
	"kill-fraction": {args: fracArg, need: needPool, keys: []string{"pool:members"},
		run: func(s *System, st StepSpec) { s.Pool.KillFraction(st.Frac) }},
	"retarget-pool": {need: needPool, keys: []string{"pool:target"},
		args: func(st StepSpec) error {
			if st.Target < 0 {
				return fmt.Errorf("negative target %d", st.Target)
			}
			return nil
		},
		run: func(s *System, st StepSpec) { s.Pool.SetTarget(st.Target) }},
	"rebalance": {keys: []string{"balancer"},
		args: func(st StepSpec) error {
			if st.Threshold < 0 || st.MaxMoves <= 0 {
				return fmt.Errorf("threshold %g / maxMoves %d invalid", st.Threshold, st.MaxMoves)
			}
			return nil
		},
		run: func(s *System, st StepSpec) { s.NN.BalanceOnce(st.Threshold, st.MaxMoves) }},
	"degrade-network": {need: needNetSite, keys: []string{"net"}, scope: bySite,
		args: func(st StepSpec) error {
			if st.Factor <= 0 {
				return fmt.Errorf("non-positive factor %g", st.Factor)
			}
			return nil
		},
		run: func(s *System, st StepSpec) {
			id, _ := s.Net.SiteByName(st.Site) // checked at Apply
			up, down := s.Net.SiteBandwidth(id)
			s.Net.SetSiteBandwidth(id, up*st.Factor, down*st.Factor)
		}},
	"crash-namenode": {keys: []string{"master:nn"},
		run: func(s *System, _ StepSpec) { s.NN.Crash() }},
	"crash-jobtracker": {keys: []string{"master:jt"},
		run: func(s *System, _ StepSpec) { s.JT.Crash() }},
	"restart-masters": {keys: []string{"master:nn", "master:jt"},
		run: func(s *System, _ StepSpec) {
			if s.NN.Down() {
				s.NN.Restart()
			}
			if s.JT.Down() {
				s.JT.Restart()
			}
		}},
	"retarget-alive-below": {need: needPool,
		args: func(st StepSpec) error {
			if st.Below <= 0 || st.Target < 0 {
				return fmt.Errorf("threshold %d / target %d invalid", st.Below, st.Target)
			}
			return nil
		},
		cond: func(s *System, st StepSpec) bool { return s.Pool.AliveCount() < st.Below },
		run:  func(s *System, st StepSpec) { s.Pool.SetTarget(st.Target) }},
	"partition-site": {args: modeArg, need: needNetSite, keys: []string{"net-part"}, scope: bySite,
		run: func(s *System, st StepSpec) { s.partitionSite(st.Site, st.Mode) }},
	"partition-nodes": {need: needNetSite, keys: []string{"net-part-nodes"}, scope: bySite,
		args: func(st StepSpec) error {
			if st.Count <= 0 {
				return fmt.Errorf("non-positive count %d", st.Count)
			}
			return modeArg(st)
		},
		run: func(s *System, st StepSpec) { s.partitionNodes(st.Site, st.Count, st.Mode) }},
	"heal-partition": {need: needNetSite, keys: []string{"net-part", "net-part-nodes"}, scope: bySite,
		run: func(s *System, st StepSpec) { s.healPartition(st.Site) }},
	"degrade-nodes": {need: needNetSite, keys: []string{"degrade"}, scope: bySite,
		args: func(st StepSpec) error {
			if st.Count <= 0 || st.Factor < 1 || st.Loss < 0 || st.Loss >= 1 {
				return fmt.Errorf("count %d / factor %g / loss %g invalid", st.Count, st.Factor, st.Loss)
			}
			return nil
		},
		run: func(s *System, st StepSpec) { s.degradeNodes(st.Site, st.Count, st.Factor, st.Loss) }},
	"restore-nodes": {need: needNetSite, keys: []string{"degrade"}, scope: bySite,
		run: func(s *System, st StepSpec) { s.restoreNodes(st.Site) }},
	"corrupt-replicas": {keys: []string{"corrupt"}, scope: byFile,
		args: func(st StepSpec) error {
			if st.Count <= 0 || st.File == "" {
				return fmt.Errorf("count %d / file %q invalid", st.Count, st.File)
			}
			return nil
		},
		run: func(s *System, st StepSpec) { s.corruptReplicas(st.File, st.Count) }},
}

// fracArg is the argument rule of the preemption and kill verbs.
func fracArg(st StepSpec) error {
	if st.Frac <= 0 || st.Frac > 1 {
		return fmt.Errorf("fraction %g outside (0,1]", st.Frac)
	}
	return nil
}

// modeArg is the argument rule of the partition verbs.
func modeArg(st StepSpec) error {
	_, _, err := partitionCuts(st.Mode)
	return err
}

// label names a step in error messages: its verb and the site or file it is
// about.
func label(st StepSpec) string {
	if v, ok := verbs[st.Verb]; ok && v.scope != nil {
		return fmt.Sprintf("%s %q", st.Verb, v.scope(st))
	}
	return st.Verb
}

// check reports whether s has what a step with this need requires.
func (n need) check(s *System, site string) error {
	switch n {
	case needPool, needPoolSite:
		if s.Pool == nil {
			return errors.New("requires a grid system (static cluster has no pool)")
		}
		if n == needPoolSite && s.Pool.SiteIndexByName(site) < 0 {
			return fmt.Errorf("no site named %q (have %v)", site, s.Pool.SiteNames())
		}
	case needNetSite:
		if _, ok := s.Net.SiteByName(site); !ok {
			return fmt.Errorf("no network site named %q", site)
		}
	}
	return nil
}

// Spec returns the scenario's serializable form. It fails when the scenario
// carries build errors.
func (sc *Scenario) Spec() (ScenarioSpec, error) {
	if err := sc.err(); err != nil {
		return ScenarioSpec{}, err
	}
	out := sc.spec
	out.Steps = append([]StepSpec(nil), sc.spec.Steps...)
	return out, nil
}

// ScenarioFromSpec validates each step of a serializable scenario and wraps
// it, so a restored scenario behaves exactly like the original. Unknown
// verbs are an error (a snapshot written by a newer version, or a corrupted
// one). A zero Poll keeps the default.
func ScenarioFromSpec(spec ScenarioSpec) (*Scenario, error) {
	sc := NewScenario(spec.Name)
	if spec.Poll != 0 {
		sc.Poll(spec.Poll)
	}
	for _, st := range spec.Steps {
		sc.add(st)
	}
	if err := sc.err(); err != nil {
		return nil, err
	}
	return sc, nil
}

// NewScenario returns an empty scenario. The name labels validation errors.
func NewScenario(name string) *Scenario {
	return &Scenario{spec: ScenarioSpec{Name: name, Poll: 5 * sim.Second}}
}

// Name returns the scenario's label.
func (sc *Scenario) Name() string { return sc.spec.Name }

// Steps returns the number of scripted actions.
func (sc *Scenario) Steps() int { return len(sc.spec.Steps) }

func (sc *Scenario) err() error {
	if len(sc.errs) == 0 {
		return nil
	}
	return fmt.Errorf("core: scenario %q invalid: %w", sc.spec.Name, errors.Join(sc.errs...))
}

// Poll sets the predicate polling period for condition-triggered steps
// (default 5 simulated seconds). Periods under a millisecond are rejected:
// a microsecond poll fires a million events per simulated second, so one
// scenario from an untrusted spec could stall a whole run.
func (sc *Scenario) Poll(interval sim.Time) *Scenario {
	if interval < sim.Millisecond {
		sc.errs = append(sc.errs, fmt.Errorf("poll interval %v under 1ms", interval))
		return sc
	}
	sc.spec.Poll = interval
	return sc
}

// add checks st against its verb's argument rules and appends it, or
// records why it cannot be.
func (sc *Scenario) add(st StepSpec) *Scenario {
	v, ok := verbs[st.Verb]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("unknown step verb %q", st.Verb)
	case v.cond == nil && st.At < 0:
		err = fmt.Errorf("%s at negative offset %v", label(st), st.At)
	case v.args != nil:
		if err = v.args(st); err != nil {
			err = fmt.Errorf("%s: %w", label(st), err)
		}
	}
	if err != nil {
		sc.errs = append(sc.errs, err)
	} else {
		sc.spec.Steps = append(sc.spec.Steps, st)
	}
	return sc
}

// SiteOutageAt takes fraction frac of the named site's workers down at
// offset at from workload start — the paper's §III.B.1 batch-preemption
// failure domain as a scripted fault. A SiteOutage event is emitted with the
// number of workers lost.
func (sc *Scenario) SiteOutageAt(at sim.Time, site string, frac float64) *Scenario {
	return sc.add(StepSpec{Verb: "site-outage", At: at, Site: site, Frac: frac})
}

// ChurnBurst preempts fraction frac of the pool's workers at every site
// simultaneously at offset at — a grid-wide preemption storm from a
// higher-priority campaign.
func (sc *Scenario) ChurnBurst(at sim.Time, frac float64) *Scenario {
	return sc.add(StepSpec{Verb: "churn-burst", At: at, Frac: frac})
}

// KillFraction kills fraction frac of all alive workers at offset at, chosen
// uniformly across the pool; the pool requests replacements.
func (sc *Scenario) KillFraction(at sim.Time, frac float64) *Scenario {
	return sc.add(StepSpec{Verb: "kill-fraction", At: at, Frac: frac})
}

// RetargetPool changes the pool's target size at offset at (the paper's
// elastic growth: "the number of nodes can grow and shrink elastically").
func (sc *Scenario) RetargetPool(at sim.Time, target int) *Scenario {
	return sc.add(StepSpec{Verb: "retarget-pool", At: at, Target: target})
}

// RebalanceAt runs one HDFS balancer round at offset at, moving replicas
// from nodes above the mean utilisation by more than threshold to nodes
// below it, bounded by maxMoves.
func (sc *Scenario) RebalanceAt(at sim.Time, threshold float64, maxMoves int) *Scenario {
	return sc.add(StepSpec{Verb: "rebalance", At: at, Threshold: threshold, MaxMoves: maxMoves})
}

// DegradeNetwork scales the named site's WAN uplink and downlink capacity by
// factor at offset at (factor 0.1 = a 10x-degraded WAN path; factors above 1
// model an upgrade). Works on grid sites and the static cluster's
// "cluster.local" site alike.
func (sc *Scenario) DegradeNetwork(at sim.Time, site string, factor float64) *Scenario {
	return sc.add(StepSpec{Verb: "degrade-network", At: at, Site: site, Factor: factor})
}

// CrashNameNodeAt fails the namenode at offset at from workload start. Its
// soft state (the block map) is lost; physical blocks on datanodes survive.
// Writes stall and replication stops until RestartMastersAfter brings it
// back through safe mode (docs/FAULTS.md).
func (sc *Scenario) CrashNameNodeAt(at sim.Time) *Scenario {
	return sc.add(StepSpec{Verb: "crash-namenode", At: at})
}

// CrashJobTrackerAt fails the JobTracker at offset at from workload start.
// In-flight task state is lost; completed map output on surviving nodes is
// kept across restart.
func (sc *Scenario) CrashJobTrackerAt(at sim.Time) *Scenario {
	return sc.add(StepSpec{Verb: "crash-jobtracker", At: at})
}

// RestartMastersAfter restarts whichever masters are down at offset at from
// workload start. The namenode re-enters service through safe mode; trackers
// re-register with the JobTracker as their backed-off retries land.
func (sc *Scenario) RestartMastersAfter(at sim.Time) *Scenario {
	return sc.add(StepSpec{Verb: "restart-masters", At: at})
}

// RetargetWhenAliveBelow raises the pool target to target the first time the
// alive worker count drops below threshold — scripted self-healing for
// outage scenarios.
func (sc *Scenario) RetargetWhenAliveBelow(threshold, target int) *Scenario {
	return sc.add(StepSpec{Verb: "retarget-alive-below", Below: threshold, Target: target})
}

// PartitionSiteAt cuts the named site off from the rest of the fabric at
// offset at (mode "both", "in", or "out" — see faults.go). Heartbeats and
// data across the cut stop; the masters' dead timeouts fire exactly as for
// a mass crash, but the daemons survive and HealPartitionAt revives them.
func (sc *Scenario) PartitionSiteAt(at sim.Time, site, mode string) *Scenario {
	return sc.add(StepSpec{Verb: "partition-site", At: at, Site: site, Mode: mode})
}

// PartitionNodesAt installs node-level cuts on the count lowest-ID healthy
// workers of the named site at offset at — victims are resolved when the
// step fires, because node IDs do not exist before provisioning.
func (sc *Scenario) PartitionNodesAt(at sim.Time, site string, count int, mode string) *Scenario {
	return sc.add(StepSpec{Verb: "partition-nodes", At: at, Site: site, Count: count, Mode: mode})
}

// HealPartitionAt lifts the site-level cut on the named site and every
// node-level cut on workers there at offset at, running heal-side recovery
// (datanode re-registration with preserved inventory, tracker revival,
// zombie-task resolution — faults.go).
func (sc *Scenario) HealPartitionAt(at sim.Time, site string) *Scenario {
	return sc.add(StepSpec{Verb: "heal-partition", At: at, Site: site})
}

// DegradeNodesAt puts the count lowest-ID healthy workers of the named site
// under gray degradation at offset at: disks derated to 1/factor of nominal,
// compute slowed by the same factor, each heartbeat dropped with probability
// loss, and the nodes excluded from replica placement while flagged.
func (sc *Scenario) DegradeNodesAt(at sim.Time, site string, count int, factor, loss float64) *Scenario {
	return sc.add(StepSpec{Verb: "degrade-nodes", At: at, Site: site, Count: count, Factor: factor, Loss: loss})
}

// RestoreNodesAt lifts gray degradation from every degraded worker at the
// named site at offset at.
func (sc *Scenario) RestoreNodesAt(at sim.Time, site string) *Scenario {
	return sc.add(StepSpec{Verb: "restore-nodes", At: at, Site: site})
}

// CorruptReplicasAt silently corrupts up to count replicas of the named file
// at offset at (lowest block, lowest holder IDs first — fire-time
// resolution). The namenode learns nothing until a reader's checksum
// verification catches a bad copy; workload input files are staged as
// "/in/<job-name>".
func (sc *Scenario) CorruptReplicasAt(at sim.Time, file string, count int) *Scenario {
	return sc.add(StepSpec{Verb: "corrupt-replicas", At: at, File: file, Count: count})
}

// conflictKey is one target a timed step acts on at one instant, on the
// workload-start timeline.
type conflictKey struct {
	at     sim.Time
	target string
	scope  string
}

// admit is the validation Apply and ApplyDivergence share, run on a spec
// whose arguments were checked when its steps were built. It rejects an
// empty script, a step whose site or pool this system lacks, an offset or
// poll longer than the run bound (such a step can never fire, and a hostile
// one would overflow the engine clock), and two timed steps acting on the
// same target at the same instant: same-instant steps fire in declaration
// order, so their outcome would depend on that order alone (crash+restart
// at t, two outages of one site at t). Conflicts are checked
// within spec and against every step admitted before; shift places spec's
// offsets on the workload-start timeline. On success spec's targets are
// recorded for later scenarios.
func (s *System) admit(spec ScenarioSpec, kind string, shift sim.Time) error {
	name := spec.Name
	if len(spec.Steps) == 0 {
		return fmt.Errorf("core: %s %q has no actions", kind, name)
	}
	bound := s.cfg.RunBound
	staged := make(map[conflictKey]StepSpec)
	for _, st := range spec.Steps {
		v := verbs[st.Verb]
		if err := v.need.check(s, st.Site); err != nil {
			return fmt.Errorf("core: %s %q: %s: %w", kind, name, label(st), err)
		}
		if v.cond != nil {
			if spec.Poll > bound {
				return fmt.Errorf("core: %s %q: poll interval %v beyond the run bound %v", kind, name, spec.Poll, bound)
			}
			continue
		}
		if st.At > bound {
			return fmt.Errorf("core: %s %q: %s at %v beyond the run bound %v", kind, name, label(st), st.At, bound)
		}
		for _, target := range v.keys {
			k := conflictKey{at: st.At + shift, target: target}
			if v.scope != nil {
				k.scope = v.scope(st)
			}
			if prev, ok := s.timedKeys[k]; ok {
				return fmt.Errorf("core: %s %q: %s at %v conflicts with already-applied %s (same instant, same target %s)",
					kind, name, label(st), st.At, label(prev), target)
			}
			if prev, ok := staged[k]; ok {
				return fmt.Errorf("core: %s %q: %s at %v conflicts with %s (same instant, same target %s)",
					kind, name, label(st), st.At, label(prev), target)
			}
			staged[k] = st
		}
	}
	if s.timedKeys == nil {
		s.timedKeys = make(map[conflictKey]StepSpec, len(staged))
	}
	for k, st := range staged {
		s.timedKeys[k] = st
	}
	return nil
}

// Apply validates the scenario against this system and installs it. Every
// step is checked up front — builder-time errors (bad fractions, negative
// offsets) and system-dependent ones (unknown sites, pool actions on a
// static cluster, same-instant conflicts) all surface here, before anything
// runs. Scenarios must be applied before RunWorkload; their timed steps are
// anchored to the workload start it establishes. Apply keeps a copy of the
// steps, so steps added to sc later do not reach this system.
func (s *System) Apply(sc *Scenario) error {
	if s.scenariosArmed {
		return fmt.Errorf("core: scenario %q applied after the workload started", sc.spec.Name)
	}
	spec, err := sc.Spec() // a copy, fixed from here on
	if err != nil {
		return err
	}
	if err := s.admit(spec, "scenario", 0); err != nil {
		return err
	}
	s.scenarios = append(s.scenarios, spec)
	return nil
}

// armScenarios schedules every installed scenario's steps relative to the
// current instant (the workload start).
func (s *System) armScenarios() {
	if s.scenariosArmed {
		return
	}
	s.scenariosArmed = true
	start := s.Eng.Now()
	for _, spec := range s.scenarios {
		s.armScenario(spec, start)
	}
}

// armScenario schedules one admitted scenario's steps relative to anchor.
// Timed steps become engine events in declaration order; conditional steps
// share one poller that stops itself once every condition has fired.
func (s *System) armScenario(spec ScenarioSpec, anchor sim.Time) {
	var conds []*StepSpec
	for i := range spec.Steps {
		st := &spec.Steps[i]
		v := verbs[st.Verb]
		if v.cond != nil {
			conds = append(conds, st)
			continue
		}
		run := v.run
		s.Eng.Schedule(anchor+st.At, func() { run(s, *st) })
	}
	if len(conds) > 0 {
		fired := make([]bool, len(conds))
		var tk *sim.Ticker
		tk = s.Eng.Every(spec.Poll, func() {
			remaining := false
			for i, st := range conds {
				if fired[i] {
					continue
				}
				if v := verbs[st.Verb]; v.cond(s, *st) {
					fired[i] = true
					v.run(s, *st)
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

// ApplyDivergence validates sc against this system exactly as Apply does and
// arms it immediately, anchored at the current instant instead of the
// workload start — the divergence half of a what-if fork: restore a
// snapshot, diverge, run on. Only an in-flight run (phase started) can
// diverge, and a diverged system can no longer be snapshotted
// (snapshot.Save rejects it): its history is not reproducible from config +
// pre-start scenarios alone.
func (s *System) ApplyDivergence(sc *Scenario) error {
	if s.phase != PhaseStarted {
		return fmt.Errorf("core: divergence %q applied to a %v system (restore a mid-run snapshot first)", sc.spec.Name, s.phase)
	}
	now := s.Eng.Now()
	spec, err := sc.Spec()
	if err != nil {
		return err
	}
	if err := s.admit(spec, "divergence", now-s.runStart); err != nil {
		return err
	}
	s.diverged = true
	s.armScenario(spec, now)
	return nil
}
