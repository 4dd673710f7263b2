package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lattol/internal/eval"
	"lattol/internal/inverse"
	"lattol/internal/mms"
)

// TestSmoke runs every workload for one second, traced and untraced, and
// asserts that every metric BENCHMARK.json names is emitted and that no
// request failed or came back wrong.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				res, err := run(runConfig{
					w:         w,
					seed:      1,
					window:    time.Second,
					warmup:    250 * time.Millisecond,
					trace:     trace,
					minSetups: 1,
					replayN:   200,
					spans:     filepath.Join(t.TempDir(), "spans.jsonl"),
				})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if res.Failed != 0 || res.Metrics["loadgen.fail_ratio"] != 0 || res.Attempted == 0 {
					t.Errorf("trace=%v: %d of %d requests failed: %v", trace, res.Failed, res.Attempted, res.Notes)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				var out bytes.Buffer
				if err := report(&out, res); err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				for _, m := range want {
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("trace=%v: metric %s not emitted", trace, m.Name)
					}
				}
			}
		})
	}
}

// TestStreamDeterminism pins the stream to its seed: the same seed gives
// byte-identical requests, another seed different ones.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newStream(7), newStream(7), newStream(8)
		same := 0
		for i := int64(0); i < 500; i++ {
			ra, rb, rc := w.next(a, i), w.next(b, i), w.next(c, i)
			if !bytes.Equal(ra.body, rb.body) || ra.kind != rb.kind {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w.name, i)
			}
			if bytes.Equal(ra.body, rc.body) {
				same++
			}
		}
		if same > 5 {
			t.Errorf("%s: %d of 500 requests identical under seeds 7 and 8", w.name, same)
		}
	}
}

// TestPlanBasesFeasible guards the no-failure property of bulk-plan: every
// popular plan base reaches the tol_network target at some thread count.
func TestPlanBasesFeasible(t *testing.T) {
	metric, err := inverse.ParseMetric("tol_network")
	if err != nil {
		t.Fatal(err)
	}
	knob, err := mms.ParseParam("nt")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for j := 0; j < planBases; j++ {
			base := config(keyModel(seed, streamPlanBases, j, 0.2))
			spec := inverse.Spec{Base: base, Knob: knob, Metric: metric, Target: planTarget}
			if _, err := inverse.Solve(context.Background(), eval.NewSolver(), spec); err != nil {
				t.Fatalf("seed %d base %d %+v: %v", seed, j, base, err)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {99, 49.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestQuartiles compares with Python's statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the union of its
// children, clipped to the span; grandchildren count only for their parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "client.call", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "client.roundtrip", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "client.roundtrip", Start: 20, End: 50},
		{Trace: 1, ID: 4, Parent: 1, Name: "client.roundtrip", Start: 90, End: 120},
		{Trace: 1, ID: 5, Parent: 3, Name: "serve.http", Start: 25, End: 45},
	}
	st := analyze(spans)
	if got := st["client.call"].self; !reflect.DeepEqual(got, []float64{0.05}) {
		t.Errorf("client.call self = %v µs, want [0.05]", got)
	}
	if got := st["client.roundtrip"].self; !reflect.DeepEqual(got, []float64{0.01, 0.02, 0.03}) {
		t.Errorf("client.roundtrip self = %v µs, want [0.01 0.02 0.03]", got)
	}
	if got := st["serve.http"].selfByTree[1]; got != 0.02 {
		t.Errorf("serve.http self in trace 1 = %v µs, want 0.02", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := metricSpec{Name: "throughput_rel", Better: "higher", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{scale(1), "within bound"},
		{scale(0.8), "regression"},
		{scale(1.05), "gain"},
		{[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, "unresolved"},
	} {
		if got := compareMetric(spec, a, c.b).verdict; got != c.want {
			t.Errorf("B = %v: verdict %q, want %q", c.b, got, c.want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program defines.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the program's tables.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %+v, program %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %+v, program %+v", b.PerLayer, perLayer)
	}
}
