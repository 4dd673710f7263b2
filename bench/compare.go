package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain compares two sets of runs (JSON-line files written with
// --out), A the parent and B the change, metric by metric and workload by
// workload, by the rule of the choosing-metrics guide (§8):
//
//   - each side's median and quartiles, and the change of the medians;
//   - the share of pairs (A's i-th run against B's i-th run of the same
//     workload) that B wins, ties counting for neither side;
//   - regression: B's median worse than A's by more than the bound;
//   - gain: B wins at least nine tenths of the pairs and the medians differ
//     by more than A's interquartile distance;
//   - unresolved: either side's spread (interquartile distance over median)
//     is wider than the bound, unless every B run beats every A run.
//
// Runs marked invalid (Little's law out of band, or wrong answers) are left
// out and counted.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: lattolbench compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "lattolbench compare: %v\n", err)
		return 1
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "lattolbench compare: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%-11s %-15s %-40s %-40s %6s %8s %6s  %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "B wins", "change", "bound", "verdict")
	for _, wl := range workloads {
		av, aBad := a.values(wl.name)
		bv, bBad := b.values(wl.name)
		if len(av) == 0 || len(bv) == 0 {
			continue
		}
		if aBad+bBad > 0 {
			fmt.Fprintf(w, "%-11s (left out %d invalid A runs, %d invalid B runs)\n", wl.name, aBad, bBad)
		}
		for _, spec := range endToEnd {
			c := compareMetric(spec, av[spec.Name], bv[spec.Name])
			if c.verdict == "" {
				continue
			}
			fmt.Fprintf(w, "%-11s %-15s %-40s %-40s %5.0f%% %+7.2f%% %5.0f%%  %s\n", wl.name, spec.Name,
				fmt.Sprintf("%.6g [%.6g %.6g]", c.qa[1], c.qa[0], c.qa[2]),
				fmt.Sprintf("%.6g [%.6g %.6g]", c.qb[1], c.qb[0], c.qb[2]),
				100*c.wins, 100*c.change, 100*spec.Bound, c.verdict)
		}
	}
	return 0
}

// resultSet is every run of one side of a comparison, in file order.
type resultSet []*result

func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out resultSet
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// values returns, per metric, the values of the set's valid untraced runs
// of one workload in run order, and the number of invalid runs left out.
func (rs resultSet) values(workload string) (map[string][]float64, int) {
	out := map[string][]float64{}
	bad := 0
	for _, r := range rs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if !r.Valid || !r.Correct {
			bad++
			continue
		}
		for name, v := range r.Metrics {
			out[name] = append(out[name], v)
		}
	}
	return out, bad
}

// comparison is the verdict on one metric of one workload.
type comparison struct {
	qa, qb  [3]float64
	wins    float64 // share of pairs B wins
	change  float64 // relative change of the median, B against A
	verdict string  // "" when either side has no values
}

func compareMetric(spec metricSpec, av, bv []float64) comparison {
	var c comparison
	if len(av) == 0 || len(bv) == 0 {
		return c
	}
	better := func(x, y float64) bool { // x reads better than y
		if spec.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c.qa, c.qb = quartiles(av), quartiles(bv)
	c.change = (c.qb[1] - c.qa[1]) / c.qa[1]
	worse := c.change // how much worse B's median reads, as a share of A's
	if spec.Better == "higher" {
		worse = -worse
	}
	pairs := min(len(av), len(bv))
	var won int
	for i := 0; i < pairs; i++ {
		if better(bv[i], av[i]) {
			won++
		}
	}
	c.wins = float64(won) / float64(pairs)
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
		}
	}
	spreadA := (c.qa[2] - c.qa[0]) / c.qa[1]
	spreadB := (c.qb[2] - c.qb[0]) / c.qb[1]
	switch {
	case math.Max(spreadA, spreadB) > spec.Bound && !allBetter:
		c.verdict = "unresolved"
	case worse > spec.Bound:
		c.verdict = "regression"
	case c.wins >= 0.9 && worse < 0 && math.Abs(c.qb[1]-c.qa[1]) > c.qa[2]-c.qa[0]:
		c.verdict = "gain"
	default:
		c.verdict = "within bound"
	}
	return c
}
