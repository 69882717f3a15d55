// Command genworkload emits the paper's Facebook-derived submission schedule
// (§IV.A, Tables I/II) as a table, CSV, or JSON for use by external tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hog/internal/workload"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "schedule seed")
		scale  = flag.Float64("scale", 1.0, "workload scale")
		format = flag.String("format", "table", "output format: table|csv|json")
		bins   = flag.Bool("bins", false, "print the bin tables instead of a schedule")
	)
	flag.Parse()

	if *bins {
		fmt.Println("Table I (Facebook bins):")
		for _, b := range workload.Table1() {
			fmt.Printf("  bin %d: maps %-9s (%2.0f%% at FB) -> bench %4d maps x %2d jobs\n",
				b.Bin, b.MapsAtFacebook, b.PercentAtFacebook, b.Maps, b.Jobs)
		}
		fmt.Println("Table II (truncated, with reduces):")
		for _, b := range workload.Table2() {
			fmt.Printf("  bin %d: %4d maps, %2d reduces, %2d jobs\n", b.Bin, b.Maps, b.Reduces, b.Jobs)
		}
		return
	}

	s := workload.Generate(*seed, workload.Config{Scale: *scale})
	switch *format {
	case "table":
		fmt.Printf("# %d jobs, span %.0fs, mean gap %.0fs, seed %d\n",
			len(s.Jobs), s.Span().Seconds(), s.MeanInterarrival.Seconds(), s.Seed)
		fmt.Println("# submit(s)  name              bin  maps  reduces  input(MB)")
		for _, j := range s.Jobs {
			fmt.Printf("%10.1f  %-16s %4d  %4d  %7d  %9.0f\n",
				j.Submit.Seconds(), j.Name, j.Bin, j.Maps, j.Reduces, j.InputBytes/1e6)
		}
	case "csv":
		if err := s.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
}
