package snapshot

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hog/internal/core"
	"hog/internal/grid"
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/sim"
	"hog/internal/workload"
)

// fullConfig returns a config with every field set to a non-zero value,
// on a grid supply or, when static, on the dedicated cluster.
func fullConfig(static bool) core.Config {
	cfg := core.HOGConfig(12, grid.ChurnStable, 9)
	if static {
		cfg = core.DedicatedClusterConfig(9)
	} else {
		for i := range cfg.Grid.Sites {
			s := &cfg.Grid.Sites[i]
			s.Weight = float64(i + 1)
			s.NodeLifetime.Offset = sim.Minute
			s.BatchPreemptEvery.Offset = 2 * sim.Minute
		}
	}
	cfg.HDFS.PlacementPolicy = hdfs.PlacementFlat
	cfg.HDFS.ReplicationOrder = hdfs.ReplicationRarest
	cfg.MapRed.SchedulerPolicy = mapred.SchedulerFair
	cfg.MapRed.SpeculationPolicy = mapred.SpeculationSiteLoad
	cfg.MapRed.Pools = map[string]mapred.PoolConfig{"1": {Weight: 2, MaxRunning: 3}, "6": {Weight: 0.5, MaxRunning: 1}}
	cfg.MapRed.EagerRedundancy = true
	cfg.MapRed.LocalityWait = 5 * sim.Second
	cfg.Zombie = core.ZombieDiskCheck
	cfg.DiskCheckInterval = 2 * sim.Minute
	cfg.SampleInterval = 20 * sim.Second
	cfg.RunBound = 30 * sim.Hour
	cfg.MasterBackoffInitial = 2 * sim.Second
	cfg.MasterBackoffMax = 12 * sim.Second
	cfg.MasterRetryTotal = 20 * sim.Minute
	return cfg
}

// zeroFields lists the paths of the zero-valued leaves under v, skipping
// the top-level fields named in skip. A config field added later starts at
// zero, so it shows up here until fullConfig sets it.
func zeroFields(v reflect.Value, path string, skip map[string]bool) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return []string{path}
		}
		return zeroFields(v.Elem(), path, skip)
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if !skip[name] {
				out = append(out, zeroFields(v.Field(i), path+"."+name, nil)...)
			}
		}
		return out
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			return []string{path}
		}
		var out []string
		if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				out = append(out, zeroFields(v.Index(i), path+"[]", nil)...)
			}
		} else {
			for it := v.MapRange(); it.Next(); {
				out = append(out, zeroFields(it.Value(), path+"[]", nil)...)
			}
		}
		return out
	}
	if v.IsZero() {
		return []string{path}
	}
	return nil
}

// TestConfigRoundTrip: a config with every field set survives Save →
// Restore unchanged, on a grid and on a static supply. The payload carries
// core.Config itself, so this is what keeps a new config field from being
// dropped on the way through a snapshot.
func TestConfigRoundTrip(t *testing.T) {
	for _, static := range []bool{false, true} {
		name, skip := "grid", map[string]bool{"Static": true}
		if static {
			name, skip = "static", map[string]bool{"Grid": true}
		}
		t.Run(name, func(t *testing.T) {
			cfg := fullConfig(static)
			if zero := zeroFields(reflect.ValueOf(cfg), "Config", skip); len(zero) > 0 {
				t.Fatalf("fixture leaves fields at zero: %v", zero)
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := Save(sys)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.Config(); !reflect.DeepEqual(got, cfg) {
				t.Fatalf("config changed through Save/Restore:\n saved    %+v\n restored %+v", cfg, got)
			}
		})
	}
}

// smallBody returns the payload of a 12-node HOG system saved before its
// workload starts.
func smallBody(tb testing.TB) []byte {
	tb.Helper()
	sys, err := core.NewSystem(core.HOGConfig(12, grid.ChurnStable, 1))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := Save(sys)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := unframe(data)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// editedBody is smallBody with edit applied to its config.
func editedBody(tb testing.TB, edit func(*core.Config)) []byte {
	tb.Helper()
	var p payload
	if err := json.Unmarshal(smallBody(tb), &p); err != nil {
		tb.Fatal(err)
	}
	edit(&p.Config)
	body, err := json.Marshal(&p)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// negativeLifetime gives the first site's node lifetime a negative mean.
func negativeLifetime(c *core.Config) { c.Grid.Sites[0].NodeLifetime.Mean = -sim.Hour }

// TestRestoreRejectsNegativeDist: a well-framed snapshot whose config
// carries a negative distribution mean is refused by Restore. It used to
// restore and then panic at the first lifetime sample.
func TestRestoreRejectsNegativeDist(t *testing.T) {
	_, err := Restore(frame(editedBody(t, negativeLifetime)))
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Restore of a negative node lifetime: err = %v, want a negative-mean error", err)
	}
}

// TestRestoreRejectsHugeSupply: a payload whose grid asks for 1e12 workers
// is refused by Restore before anything is built. Its pool used to queue one
// provision event per worker up to the sites' capacity.
func TestRestoreRejectsHugeSupply(t *testing.T) {
	_, err := Restore(frame(editedBody(t, func(c *core.Config) {
		c.Grid.Sites[0].Capacity = 1e12
		c.Grid.TargetNodes = 1e12
	})))
	if err == nil || !strings.Contains(err.Error(), "worker ceiling") {
		t.Fatalf("Restore of a 1e12-worker site: err = %v, want a worker-ceiling error", err)
	}
}

// fuzzMaxNodes bounds the worker count a FuzzRestore input may ask for, so
// each accepted input stays a small run.
const fuzzMaxNodes = 64

// fuzzTooBig reports whether p's recipe can ask for more than fuzzMaxNodes
// workers: through its grid target, its static groups, or a scenario's
// retarget.
func fuzzTooBig(p payload) bool {
	if g := p.Config.Grid; g != nil && g.TargetNodes > fuzzMaxNodes {
		return true
	}
	static := 0
	for _, g := range p.Config.Static {
		if g.Count > fuzzMaxNodes {
			return true
		}
		static += g.Count
	}
	if static > fuzzMaxNodes {
		return true
	}
	for _, sc := range p.Scenarios {
		for _, st := range sc.Steps {
			if st.Target > fuzzMaxNodes {
				return true
			}
		}
	}
	return false
}

// FuzzRestore feeds hostile payloads, framed with a valid checksum, through
// Restore: the config, the scenarios and the census all come from the
// input. Restore may reject an input with an error but must never panic.
// An accepted system then runs a one-job workload for ten simulated
// minutes, so what it restored is exercised as well as decoded.
func FuzzRestore(f *testing.F) {
	f.Add(smallBody(f))
	f.Add(editedBody(f, negativeLifetime))
	// Regression: a 64-byte block size split the one-job workload's input
	// into two million blocks, and the run took minutes.
	f.Add(editedBody(f, func(c *core.Config) { c.HDFS.BlockSize = 64 }))
	f.Fuzz(func(t *testing.T, body []byte) {
		var p payload
		if json.Unmarshal(body, &p) == nil && fuzzTooBig(p) {
			t.Skip("asks for more than fuzzMaxNodes workers")
		}
		sys, err := Restore(frame(body))
		if err != nil {
			return
		}
		if sys.Phase() == core.PhaseBuilt {
			jobs := &workload.Schedule{Jobs: []workload.JobSpec{{Name: "fz", Maps: 2, Reduces: 1, InputBytes: 128e6}}}
			if err := sys.StartWorkload(jobs); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.RunTo(sys.Eng.Now() + 10*sim.Minute); err != nil {
			t.Fatal(err)
		}
	})
}
