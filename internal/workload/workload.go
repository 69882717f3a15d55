// Package workload reconstructs the paper's evaluation workload (§IV.A): a
// submission schedule derived from Facebook's October 2009 production trace
// as binned by Zaharia et al. (Table I), truncated to the first six bins
// (Table II) because "most jobs at Facebook are small and our test cluster
// is limited in size", with exponential inter-arrival times of mean 14
// seconds giving a roughly 21-minute submission schedule of 88 jobs.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"hog/internal/sim"
)

// Bin is one row of the paper's Table I / Table II.
type Bin struct {
	// Bin number, 1-9.
	Bin int
	// MapsAtFacebook describes the bin's range in the original trace
	// (reporting only).
	MapsAtFacebook string
	// PercentAtFacebook is the share of Facebook jobs in this bin.
	PercentAtFacebook float64
	// Maps is the number of map tasks used in the benchmark.
	Maps int
	// Reduces is the number of reduce tasks (Table II; zero for bins the
	// paper excludes).
	Reduces int
	// Jobs is the number of benchmark jobs drawn from this bin.
	Jobs int
}

// Table1 returns the paper's Table I: the nine Facebook bins with the
// benchmark job counts of the 100-job schedule.
func Table1() []Bin {
	return []Bin{
		{1, "1", 39, 1, 1, 38},
		{2, "2", 16, 2, 1, 16},
		{3, "3-20", 14, 10, 5, 14},
		{4, "21-60", 9, 50, 10, 8},
		{5, "61-150", 6, 100, 20, 6},
		{6, "151-300", 6, 200, 30, 6},
		{7, "301-500", 4, 400, 0, 4},
		{8, "501-1500", 4, 800, 0, 4},
		{9, ">1501", 3, 4800, 0, 4},
	}
}

// Table2 returns the paper's Table II: the truncated six-bin workload with
// the reduce counts the paper introduces ("They number in a non-decreasing
// pattern compared to job's map tasks").
func Table2() []Bin {
	t := Table1()[:6]
	return t
}

// TotalJobs sums the job counts of the given bins.
func TotalJobs(bins []Bin) int {
	n := 0
	for _, b := range bins {
		n += b.Jobs
	}
	return n
}

// TotalMaps sums maps over all jobs in the given bins.
func TotalMaps(bins []Bin) int {
	n := 0
	for _, b := range bins {
		n += b.Jobs * b.Maps
	}
	return n
}

// JobSpec is one job in a submission schedule.
type JobSpec struct {
	// Name is unique within the schedule.
	Name string
	// Bin is the Table I bin the job was drawn from.
	Bin int
	// Maps and Reduces are the task counts.
	Maps, Reduces int
	// InputBytes is Maps * the block size (one map per 64 MB block).
	InputBytes float64
	// Submit is the offset from schedule start.
	Submit sim.Time
}

// Schedule is a reproducible submission schedule.
type Schedule struct {
	Jobs []JobSpec
	// MeanInterarrival is the exponential mean used (14 s in the paper).
	MeanInterarrival sim.Time
	Seed             int64
}

// Span returns the time of the last submission.
func (s *Schedule) Span() sim.Time {
	if len(s.Jobs) == 0 {
		return 0
	}
	return s.Jobs[len(s.Jobs)-1].Submit
}

// Config parameterises schedule generation.
type Config struct {
	// Bins to draw from; defaults to Table2.
	Bins []Bin
	// MeanInterarrival between submissions; defaults to 14 s.
	MeanInterarrival sim.Time
	// BlockSize for sizing inputs; defaults to 64 MB.
	BlockSize float64
	// Scale multiplies every bin's job count (1 = the paper's 88 jobs).
	// Fractional scales round half-up per bin but keep at least one job in
	// every scaled bin.
	Scale float64
}

// Generate builds the schedule: the bins' jobs in randomized order with
// exponential inter-arrival gaps, exactly as the paper constructs its
// benchmark from the Facebook distribution.
func Generate(seed int64, cfg Config) *Schedule {
	bins := cfg.Bins
	if bins == nil {
		bins = Table2()
	}
	mean := cfg.MeanInterarrival
	if mean <= 0 {
		mean = 14 * sim.Second
	}
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = 64e6
	}
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	r := rand.New(rand.NewSource(seed))
	var jobs []JobSpec
	for _, b := range bins {
		n := int(float64(b.Jobs)*scale + 0.5)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			jobs = append(jobs, JobSpec{
				Bin:        b.Bin,
				Maps:       b.Maps,
				Reduces:    b.Reduces,
				InputBytes: float64(b.Maps) * bs,
			})
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var t sim.Time
	gap := sim.Dist{Mean: mean}
	for i := range jobs {
		if i > 0 {
			t += gap.Sample(r)
		}
		jobs[i].Submit = t
		jobs[i].Name = fmt.Sprintf("job-%03d-bin%d", i, jobs[i].Bin)
	}
	return &Schedule{Jobs: jobs, MeanInterarrival: mean, Seed: seed}
}

// BinSummary aggregates per-bin results of a finished run.
type BinSummary struct {
	Bin       int
	Jobs      int
	Maps      int
	Reduces   int
	MeanResp  sim.Time
	WorstResp sim.Time
}

// SummarizeByBin groups (bin, responseTime) pairs into per-bin rows.
func SummarizeByBin(bins []int, resp []sim.Time) []BinSummary {
	if len(bins) != len(resp) {
		panic("workload: bins and resp length mismatch")
	}
	agg := map[int]*BinSummary{}
	for i, b := range bins {
		s := agg[b]
		if s == nil {
			s = &BinSummary{Bin: b}
			agg[b] = s
		}
		s.Jobs++
		s.MeanResp += resp[i]
		if resp[i] > s.WorstResp {
			s.WorstResp = resp[i]
		}
	}
	var out []BinSummary
	for _, s := range agg {
		s.MeanResp /= sim.Time(s.Jobs)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bin < out[j].Bin })
	return out
}
