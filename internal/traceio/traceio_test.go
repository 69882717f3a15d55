package traceio

import (
	"bytes"
	"encoding/csv"
	"testing"

	"hog/internal/metrics"
	"hog/internal/sim"
)

func sampleSeries() *metrics.Series {
	s := metrics.NewSeries("nodes")
	s.Add(0, 55)
	s.Add(10*sim.Second, 52)
	s.Add(25*sim.Second, 55)
	return s
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want header + 3", len(rows))
	}
	if rows[0][0] != "t_s" || rows[0][1] != "nodes" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[2][0] != "10.000" || rows[2][1] != "52.000" {
		t.Fatalf("row = %v", rows[2])
	}
}
