// Package traceio exports simulation time series as CSV so figures can be
// regenerated by external plotting tools — the workflow the paper's own
// evaluation used (node-count traces behind Figure 5).
package traceio

import (
	"encoding/csv"
	"io"
	"strconv"

	"hog/internal/metrics"
)

// WriteSeriesCSV writes a step time series as (t_seconds, value) rows.
func WriteSeriesCSV(w io.Writer, s *metrics.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_s", s.Name}); err != nil {
		return err
	}
	for _, p := range s.Points() {
		if err := cw.Write([]string{
			strconv.FormatFloat(p.T.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(p.V, 'f', 3, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
