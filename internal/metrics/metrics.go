// Package metrics provides the measurement utilities used by the paper's
// evaluation: node-availability time series with the "area beneath the
// curve" statistic of Table IV, and summary statistics over job response
// times.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hog/internal/sim"
)

// Point is one time-series sample.
type Point struct {
	T sim.Time
	V float64
}

// Series is a step time series: the value holds from one sample until the
// next. The paper's Figure 5 plots available HOG nodes as such a series and
// Table IV integrates it ("We also use the area which is beneath the curve
// ... to demonstrate the node fluctuation").
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample; time must be non-decreasing.
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic("metrics: series time went backwards")
	}
	s.points = append(s.points, Point{t, v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// At returns the step value at time t (the last sample at or before t), or
// 0 before the first sample.
func (s *Series) At(t sim.Time) float64 {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.points[i-1].V
}

// AreaBetween integrates the step series from t0 to t1 in value·seconds —
// Table IV's "area beneath curves" (node-seconds of availability over the
// workload execution window).
func (s *Series) AreaBetween(t0, t1 sim.Time) float64 {
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	var area float64
	prevT := t0
	prevV := s.At(t0)
	for _, p := range s.points {
		if p.T <= t0 {
			continue
		}
		if p.T >= t1 {
			break
		}
		area += float64(prevV * (p.T - prevT).Seconds())
		prevT, prevV = p.T, p.V
	}
	area += float64(prevV * (t1 - prevT).Seconds())
	return area
}

// Min and Max return the extreme sample values (0 for empty series).
func (s *Series) Min() float64 {
	if len(s.points) == 0 {
		return 0
	}
	m := s.points[0].V
	for _, p := range s.points {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Max returns the largest sample value.
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// ASCIIPlot renders the series as a small terminal plot (width x height
// characters), the closest a text harness gets to regenerating Figure 5.
func (s *Series) ASCIIPlot(width, height int, t0, t1 sim.Time) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	maxV := s.Max()
	if maxV <= 0 {
		maxV = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for x := 0; x < width; x++ {
		t := t0 + sim.Time(float64(t1-t0)*float64(x)/float64(width-1))
		v := s.At(t)
		y := int(v / maxV * float64(height-1))
		if y > height-1 {
			y = height - 1
		}
		grid[height-1-y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.0f)\n", s.Name, maxV)
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "t=%.0fs .. t=%.0fs\n", t0.Seconds(), t1.Seconds())
	return b.String()
}

// Summary holds order statistics of a sample of durations.
type Summary struct {
	N                  int
	Mean, Std          sim.Time
	Min, Max           sim.Time
	P50, P90, P95, P99 sim.Time
}

// Summarize computes order statistics; an empty input yields a zero Summary.
func Summarize(xs []sim.Time) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	ys := make([]sim.Time, len(xs))
	copy(ys, xs)
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	var sum, sumsq float64
	for _, y := range ys {
		sum += float64(y)
		sumsq += float64(float64(y) * float64(y))
	}
	n := float64(len(ys))
	mean := sum / n
	variance := sumsq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	q := func(p float64) sim.Time {
		idx := int(p * float64(len(ys)-1))
		return ys[idx]
	}
	return Summary{
		N:    len(ys),
		Mean: sim.Time(mean),
		Std:  sim.Time(math.Sqrt(variance)),
		Min:  ys[0],
		Max:  ys[len(ys)-1],
		P50:  q(0.50),
		P90:  q(0.90),
		P95:  q(0.95),
		P99:  q(0.99),
	}
}

// String formats the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.N, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// FloatSummary holds the per-point statistics the experiment harness
// aggregates across seeds: mean, extrema, and population standard deviation.
type FloatSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Std  float64 `json:"std"`
}

// SummarizeFloats computes FloatSummary over a sample; an empty input yields
// a zero summary.
func SummarizeFloats(xs []float64) FloatSummary {
	if len(xs) == 0 {
		return FloatSummary{}
	}
	s := FloatSummary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sqdev float64
	for _, x := range xs {
		d := x - s.Mean
		sqdev += float64(d * d)
	}
	s.Std = math.Sqrt(sqdev / float64(len(xs)))
	return s
}

// Group splits rows into groups sharing a key, in first-seen key order: the
// per-point view of a sweep repeated across seeds.
func Group[R any, K comparable](rows []R, key func(R) K) [][]R {
	var order []K
	byKey := map[K][]R{}
	for _, r := range rows {
		k := key(r)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	out := make([][]R, len(order))
	for i, k := range order {
		out[i] = byKey[k]
	}
	return out
}
