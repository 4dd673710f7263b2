// Command paperfigs regenerates every table and figure of the paper's
// evaluation section and prints them in order.
//
// Usage:
//
//	paperfigs                  # all exhibits (the validation figures simulate)
//	paperfigs -only figure9    # a single exhibit
//	paperfigs -list            # list exhibit IDs
//	paperfigs -full            # paper-length simulation horizons for figure11
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"lattol/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	var (
		only  = flag.String("only", "", "render only the exhibit with this ID")
		list  = flag.Bool("list", false, "list exhibit IDs and exit")
		full  = flag.Bool("full", false, "use paper-length simulation horizons (slow)")
		ext   = flag.Bool("extensions", false, "also render the extension studies")
		quiet = flag.Bool("quiet", false, "suppress the live stderr progress counter")
	)
	flag.Parse()

	exhibits := experiments.All()
	if *ext || strings.HasPrefix(*only, "ext-") {
		exhibits = append(exhibits, experiments.Extensions()...)
	}
	if *full {
		for i := range exhibits {
			switch exhibits[i].ID {
			case "figure11":
				exhibits[i].Render = func() (string, error) {
					d, err := experiments.Figure11(experiments.ValidationOptions{Warmup: 50000, Duration: 1000000})
					if err != nil {
						return "", err
					}
					return d.Render(), nil
				}
			case "validation-det":
				exhibits[i].Render = func() (string, error) {
					d, err := experiments.ValidationDeterministic(experiments.ValidationOptions{Warmup: 50000, Duration: 1000000})
					if err != nil {
						return "", err
					}
					return d.Render(), nil
				}
			}
		}
	}

	if *list {
		for _, e := range exhibits {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	// Live sweep progress: every driver reports finished points through the
	// experiments progress hook; paint them as a transient stderr counter.
	current := "warmup"
	if !*quiet {
		experiments.SetProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rpaperfigs: %s %d/%d points   ", current, done, total)
		})
	}
	clearProgress := func() {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r%60s\r", "")
		}
	}

	found := false
	for _, e := range exhibits {
		if *only != "" && e.ID != *only {
			continue
		}
		found = true
		current = e.ID
		start := time.Now()
		out, err := e.Render()
		clearProgress()
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		header := fmt.Sprintf("==== %s: %s ", e.ID, e.Title)
		fmt.Println(header + strings.Repeat("=", max(0, 78-len(header))))
		fmt.Print(out)
		fmt.Println()
		// Timing goes to stderr so stdout is reproducible byte for byte
		// (docs/sample-output.txt is checked against it).
		fmt.Fprintf(os.Stderr, "(%s rendered in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if !found {
		fmt.Fprintf(os.Stderr, "paperfigs: no exhibit %q; use -list\n", *only)
		os.Exit(1)
	}
}
