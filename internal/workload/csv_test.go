package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate(9, Config{Scale: 0.5})
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(orig.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(got.Jobs), len(orig.Jobs))
	}
	for i := range got.Jobs {
		a, b := orig.Jobs[i], got.Jobs[i]
		if a.Name != b.Name || a.Bin != b.Bin || a.Maps != b.Maps ||
			a.Reduces != b.Reduces || a.InputBytes != b.InputBytes {
			t.Fatalf("row %d differs: %+v vs %+v", i, a, b)
		}
		// Submit times round-trip at millisecond precision.
		diff := a.Submit - b.Submit
		if diff < 0 {
			diff = -diff
		}
		if diff.Seconds() > 0.002 {
			t.Fatalf("row %d submit drift: %v vs %v", i, a.Submit, b.Submit)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"bad header", "x,y\n1,2\n"},
		{"bad number", "submit_s,name,bin,maps,reduces,input_bytes\nzzz,j1,1,1,1,64\n"},
		{"empty name", "submit_s,name,bin,maps,reduces,input_bytes\n0,,1,1,1,64\n"},
		{"dup name", "submit_s,name,bin,maps,reduces,input_bytes\n0,j,1,1,1,64\n1,j,1,1,1,64\n"},
		{"zero maps", "submit_s,name,bin,maps,reduces,input_bytes\n0,j,1,0,1,64\n"},
		{"negative reduces", "submit_s,name,bin,maps,reduces,input_bytes\n0,j,1,1,-1,64\n"},
		{"out of order", "submit_s,name,bin,maps,reduces,input_bytes\n5,j1,1,1,1,64\n1,j2,1,1,1,64\n"},
		{"NaN submit", "submit_s,name,bin,maps,reduces,input_bytes\nNaN,j,1,1,1,64\n"},
		{"Inf submit", "submit_s,name,bin,maps,reduces,input_bytes\n0,j1,1,1,1,64\n+Inf,j2,1,1,1,64\n"},
		{"NaN input", "submit_s,name,bin,maps,reduces,input_bytes\n0,j,1,1,1,NaN\n"},
		{"Inf input", "submit_s,name,bin,maps,reduces,input_bytes\n0,j,1,1,1,+Inf\n"},
		{"Infinity input", "submit_s,name,bin,maps,reduces,input_bytes\n0,j,1,1,1,infinity\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestReadCSVHandAuthored(t *testing.T) {
	in := `submit_s,name,bin,maps,reduces,input_bytes
0.000,tiny,1,1,1,64000000
10.500,mid,4,50,10,3200000000
`
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Jobs) != 2 || s.Jobs[1].Maps != 50 {
		t.Fatalf("parsed %+v", s.Jobs)
	}
	if s.Span().Seconds() != 10.5 {
		t.Fatalf("span = %v", s.Span())
	}
}
