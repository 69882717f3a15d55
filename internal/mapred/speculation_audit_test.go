package mapred_test

import (
	"fmt"
	"testing"

	"hog/internal/audit"
	"hog/internal/disk"
	"hog/internal/event"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
	"hog/internal/sim"
)

// specRig is a three-tracker JobTracker with the auditor on its event bus,
// running a two-map job: trackers 0 and 1 hold its maps, tracker 2 is idle,
// and tracker 1 runs at a tenth of nominal speed.
type specRig struct {
	eng *sim.Engine
	jt  *mapred.JobTracker
	aud *audit.Auditor
	job *mapred.Job
	ids []netmodel.NodeID
}

func newSpecRig(t *testing.T) *specRig {
	t.Helper()
	eng := sim.New(1)
	net := netmodel.New(eng, netmodel.Config{})
	dt := disk.NewTracker()
	nn := hdfs.NewNamenode(eng, net, dt, hdfs.Config{Replication: 1})
	jt := mapred.NewJobTracker(eng, net, nn, dt, mapred.DefaultConfig())
	r := &specRig{eng: eng, jt: jt, aud: audit.New()}
	jt.Events = &event.Bus{}
	jt.Events.Subscribe(r.aud)
	r.aud.Attach(nn, jt)
	site := net.AddSite("a.edu", 1e9, 1e9)
	for i := 0; i < 3; i++ {
		host := fmt.Sprintf("n%d.a.edu", i)
		id := net.AddNode(site, host)
		dt.SetCapacity(id, 10e9)
		d := nn.Register(id, host)
		jt.RegisterTracker(id, host, d.Site, 1, 1)
		r.ids = append(r.ids, id)
	}
	jt.Tracker(r.ids[1]).Speed = 0.1
	nn.SeedFile("/in/spec", 2*hdfs.DefaultBlockSize, 0)
	r.job = jt.Submit(mapred.JobConfig{Name: "spec", InputFile: "/in/spec"})
	jt.HeartbeatTracker(jt.Tracker(r.ids[0]))
	jt.HeartbeatTracker(jt.Tracker(r.ids[1]))
	if got := r.job.Counters().MapAttemptsStarted; got != 2 {
		t.Fatalf("%d map attempts launched, want 2", got)
	}
	return r
}

// TestSpeculationPolicyRuleFires launches a copy of a map that has run for
// no time at all, which the threshold policy cannot justify: the audit's
// speculation-policy rule must fire exactly once.
func TestSpeculationPolicyRuleFires(t *testing.T) {
	r := newSpecRig(t)
	r.jt.LaunchSpeculativeMap(r.job, 0, r.ids[2])
	if got := r.aud.Count(); got != 1 {
		t.Fatalf("%d violations, want 1: %v", got, r.aud.Violations())
	}
	if v := r.aud.Violations()[0]; v.Rule != "speculation-policy" {
		t.Fatalf("rule %q fired, want speculation-policy: %v", v.Rule, v)
	}
}

// TestJustifiedSpeculationPasses lets the fast map finish, waits until the
// slow one is past the minimum runtime and the slowdown threshold, and lets
// the scheduler itself launch the speculative copy on the idle tracker: the
// audit must raise nothing.
func TestJustifiedSpeculationPasses(t *testing.T) {
	r := newSpecRig(t)
	r.eng.RunWhile(func() bool { return r.job.CompletedMaps() < 1 })
	r.eng.RunUntil(r.eng.Now() + 60*sim.Second)
	if r.job.CompletedMaps() != 1 {
		t.Fatalf("%d maps completed, want only the fast one", r.job.CompletedMaps())
	}
	r.jt.HeartbeatTracker(r.jt.Tracker(r.ids[2]))
	if got := r.job.Counters().SpeculativeMaps; got != 1 {
		t.Fatalf("%d speculative maps launched, want 1", got)
	}
	if n := r.aud.Count(); n != 0 {
		t.Fatalf("a justified speculative launch raised %v", r.aud.Violations())
	}
}
