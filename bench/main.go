// Command lattolbench is the repository benchmark: closed-loop HTTP load
// from internal/client against in-process lattold nodes, one process per
// workload.
//
// Usage:
//
//	lattolbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	            [--out FILE] [--spans FILE]
//	lattolbench compare A.jsonl B.jsonl
//
// A run prints every metric by name with its unit, then, as its last line,
// one JSON object with the keys correct, attempted, failed and metrics: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// --out appends the full result (every metric, the host) as one JSON line,
// the input of compare. Without --workload every workload runs, each in its
// own process. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("lattolbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty: every workload, one process each)")
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := fs.String("out", "", "append the full result as one JSON line to this file")
	spans := fs.String("spans", "", "traced run: write the spans as JSON lines to this file (default .bench_build/spans-WORKLOAD.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "lattolbench: --seconds must be >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "" {
		return runAll(args)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "lattolbench: unknown workload %q\n", *name)
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	cfg := runConfig{
		w:           w,
		seed:        *seed,
		window:      window,
		warmup:      min(5*time.Second, window/4),
		trace:       *trace == 1,
		minSetups:   5,
		setupBudget: 500 * time.Millisecond,
		replayN:     replayRequests,
		spans:       *spans,
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lattolbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "lattolbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "lattolbench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in a fresh process of this program.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lattolbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "lattolbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// valueUnit is one metric of the one-line JSON result.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every measured metric with its unit, the traced run's
// self-time table and any notes, and ends with the one-line JSON result: the
// end-to-end metrics of an untraced run or the per-layer metrics of a traced
// one.
func report(w io.Writer, res *result) error {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed %d, %s %.0f s window; host %d CPUs, GOMAXPROCS %d, %s, %s\n",
		res.Workload, res.Seed, mode, res.Seconds, res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.CPUModel)
	for _, table := range [][]metricSpec{endToEnd, perLayer, extras} {
		for _, spec := range table {
			if v, ok := res.Metrics[spec.Name]; ok {
				fmt.Fprintf(w, "%-12s %-32s %16.6g %s\n", res.Workload, spec.Name, v, spec.Unit)
			}
		}
	}
	if res.selfTable != "" {
		fmt.Fprint(w, res.selfTable)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	want := endToEnd
	if res.Trace {
		want = perLayer
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for _, spec := range want {
		v, ok := res.Metrics[spec.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, spec.Name)
		}
		line.Metrics[spec.Name] = valueUnit{v, spec.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendResult appends res as one JSON line to path.
func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
