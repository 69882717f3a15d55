package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"hog/internal/sim"
)

// WriteCSV emits the schedule in the cmd/genworkload CSV format:
// submit_s,name,bin,maps,reduces,input_bytes.
func (s *Schedule) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"submit_s", "name", "bin", "maps", "reduces", "input_bytes"}); err != nil {
		return err
	}
	for _, j := range s.Jobs {
		if err := cw.Write([]string{
			strconv.FormatFloat(j.Submit.Seconds(), 'f', 3, 64),
			j.Name,
			strconv.Itoa(j.Bin),
			strconv.Itoa(j.Maps),
			strconv.Itoa(j.Reduces),
			strconv.FormatFloat(j.InputBytes, 'f', 0, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a schedule written by WriteCSV (or hand-authored in the
// same format), enabling replay of external traces through the simulator.
// Rows must be sorted by submit time; names must be non-empty and unique;
// submit_s and input_bytes must be finite.
func ReadCSV(r io.Reader) (*Schedule, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: parsing schedule CSV: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("workload: empty schedule CSV")
	}
	if len(recs[0]) < 6 || recs[0][0] != "submit_s" {
		return nil, fmt.Errorf("workload: unexpected header %v", recs[0])
	}
	s := &Schedule{}
	seen := make(map[string]bool)
	var prev sim.Time
	for i, rec := range recs[1:] {
		rowErr := func(err error) error {
			return fmt.Errorf("workload: schedule CSV row %d: %w", i+2, err)
		}
		submitS, err := parseFinite("submit_s", rec[0])
		if err != nil {
			return nil, rowErr(err)
		}
		bin, err := strconv.Atoi(rec[2])
		if err != nil {
			return nil, rowErr(err)
		}
		maps, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, rowErr(err)
		}
		reduces, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, rowErr(err)
		}
		input, err := parseFinite("input_bytes", rec[5])
		if err != nil {
			return nil, rowErr(err)
		}
		name := rec[1]
		if name == "" {
			return nil, rowErr(fmt.Errorf("empty job name"))
		}
		if seen[name] {
			return nil, rowErr(fmt.Errorf("duplicate job name %q", name))
		}
		seen[name] = true
		if maps < 1 || reduces < 0 || input <= 0 {
			return nil, rowErr(fmt.Errorf("invalid shape maps=%d reduces=%d input=%.0f", maps, reduces, input))
		}
		submit := sim.Seconds(submitS)
		if submit < prev {
			return nil, rowErr(fmt.Errorf("submissions out of order"))
		}
		prev = submit
		s.Jobs = append(s.Jobs, JobSpec{
			Name: name, Bin: bin, Maps: maps, Reduces: reduces,
			InputBytes: input, Submit: submit,
		})
	}
	return s, nil
}

// parseFinite parses a float column, rejecting NaN and ±Inf: neither is a
// time or a size, and both slip past the range checks above (NaN compares
// false with everything).
func parseFinite(column, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s %q is not a finite number", column, s)
	}
	return v, nil
}
