package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w      *workload
	seed   int64
	window time.Duration
	warmup time.Duration
	trace  bool
	// The nodes are set up at least minSetups times and until setupBudget
	// is spent (at most maxSetups times); setup_s derives from the median.
	minSetups   int
	setupBudget time.Duration
	// replayN is the number of requests the traced run replays.
	replayN int
	// spans, when set, is the file the traced run writes its spans to.
	spans string
}

// Little's-law band for a valid closed loop: throughput × mean latency /
// senders is the share of the senders' time spent inside requests. Below
// littleMin the generator spends its own time between requests and the
// latencies no longer describe a closed loop.
const (
	littleMin = 0.9
	littleMax = 1.0
)

// maxSetups caps the set-ups of one run. Each leaves closed loopback
// connections behind in TIME_WAIT, and thousands of those slow every later
// connect by a millisecond.
const maxSetups = 50

// slice is the length of one workload (or reference) slice of the window:
// short enough that the host's speed barely moves between a slice and its
// reference neighbour.
const slice = 500 * time.Millisecond

// result is everything one run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Valid     bool               `json:"valid"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`

	selfTable string // the traced run's per-layer self-time table
}

// hostInfo records the machine a result was measured on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// procSnap is a point reading of the process's own resource counters.
type procSnap struct {
	cpu                time.Duration
	allocs, bytes, gcs float64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return procSnap{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: float64(s[0].Value.Uint64()),
		bytes:  float64(s[1].Value.Uint64()),
		gcs:    float64(s[2].Value.Uint64()),
	}
}

func (a procSnap) minus(b procSnap) procSnap {
	return procSnap{a.cpu - b.cpu, a.allocs - b.allocs, a.bytes - b.bytes, a.gcs - b.gcs}
}

func (a procSnap) plus(b procSnap) procSnap {
	return procSnap{a.cpu + b.cpu, a.allocs + b.allocs, a.bytes + b.bytes, a.gcs + b.gcs}
}

// heapLiveMB forces a collection and returns the live heap it found.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// setUp starts the workload's nodes — every node up and answering /healthz,
// the surrogate grid built where the workload serves one — each time
// followed by a reference set-up (ref.go) that calibrates it. A single-node
// set-up takes well under a millisecond, so only the median of many is
// steady. It records the set-up metrics in m and returns the last nodes.
func setUp(cfg runConfig, rec *recorder, m map[string]float64) (*nodeSet, error) {
	var setups, refSetups, ratios []float64
	for began := time.Now(); ; {
		start := time.Now()
		ns, err := startNodes(cfg.w.nodes, cfg.w.grid, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		refTook, err := refSetup()
		if err != nil {
			ns.close()
			return nil, err
		}
		setups = append(setups, took.Seconds())
		refSetups = append(refSetups, refTook.Seconds())
		ratios = append(ratios, float64(took)/float64(refTook))
		if len(setups) >= maxSetups || (len(setups) >= cfg.minSetups && time.Since(began) >= cfg.setupBudget) {
			m["loadgen.setup_wall_s"] = median(setups)
			m["loadgen.ref_setup_s"] = median(refSetups)
			m["setup_s"] = median(ratios) * refSetupBase.Seconds()
			return ns, nil
		}
		ns.close()
	}
}

// run executes one run: set-up, warm-up, the measured window, the answer
// check and, when tracing, the replay.
func run(cfg runConfig) (*result, error) {
	w := cfg.w
	s := newStream(cfg.seed)
	res := &result{Workload: w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		Host: host(), Metrics: map[string]float64{}}
	m := res.Metrics
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	ns, err := setUp(cfg, rec, m)
	if err != nil {
		return nil, err
	}
	defer ns.close() // a no-op once the traced run has closed them

	ctx := context.Background()
	senders := runtime.NumCPU()
	lg := newLoadgen(w, s, ns, senders, rec)
	defer lg.close()
	ref, err := startRef(senders)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	base, err := ns.scrape()
	if err != nil {
		return nil, err
	}
	warmEnd := time.Now().Add(cfg.warmup)
	if err := lg.prewarm(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	lg.phase(ctx, warmEnd, false)
	ref.phase(time.Now().Add(slice), false)

	// The window: workload and reference slices alternate, and only the
	// workload slices count toward the workload's time and process costs.
	before, err := ns.scrape()
	if err != nil {
		return nil, err
	}
	var busy time.Duration
	var cost procSnap
	for k := 0; k < max(1, int(cfg.window/(2*slice))); k++ {
		p0, start := readProc(), time.Now()
		lg.phase(ctx, start.Add(slice), true)
		busy += time.Since(start)
		cost = cost.plus(readProc().minus(p0))
		ref.phase(time.Now().Add(slice), true)
	}
	elapsed := busy.Seconds()
	after, err := ns.scrape()
	if err != nil {
		return nil, err
	}
	if ref.errs > 0 || len(ref.lat) == 0 {
		return nil, fmt.Errorf("reference loop: %d of its requests failed", ref.errs)
	}

	// End-to-end: the closed loop's own view.
	var lat, untraced []float64
	var samples []sample
	for _, snd := range lg.senders {
		res.Attempted += snd.attempts
		res.Failed += snd.failed
		res.Notes = append(res.Notes, snd.errs...)
		lat = append(lat, snd.lat...)
		for i, tr := range snd.traced {
			if !tr {
				untraced = append(untraced, snd.lat[i])
			}
		}
		samples = append(samples, snd.samples...)
		snd.lat, snd.traced, snd.samples = nil, nil, nil
	}
	sort.Float64s(lat)
	sort.Float64s(ref.lat)
	attempted := float64(max(res.Attempted, 1))
	m["loadgen.throughput_rps"] = float64(len(lat)) / elapsed
	m["loadgen.latency_p50_us"] = percentile(lat, 50)
	m["loadgen.latency_p99_us"] = percentile(lat, 99)
	m["loadgen.latency_p999_us"] = percentile(lat, 99.9)
	m["loadgen.ref_throughput_rps"] = float64(len(ref.lat)) / ref.busy.Seconds()
	m["loadgen.ref_latency_us"] = math.Sqrt(percentile(ref.lat, 50) * mean(ref.lat))
	m["throughput_rel"] = m["loadgen.throughput_rps"] / m["loadgen.ref_throughput_rps"]
	m["latency_p50_rel"] = m["loadgen.latency_p50_us"] / m["loadgen.ref_latency_us"]
	m["latency_p99_rel"] = m["loadgen.latency_p99_us"] / m["loadgen.ref_latency_us"]
	m["loadgen.requests"] = float64(res.Attempted)
	m["loadgen.little_ratio"] = m["loadgen.throughput_rps"] * mean(lat) / 1e6 / float64(senders)
	ref.lat = nil
	if cfg.trace && len(lat) > 0 {
		// Under a closed loop throughput is senders / mean latency, so the
		// share of it tracing costs is how much the traced requests raise
		// the mean above the untraced ones.
		m["loadgen.trace_overhead_ratio"] = 1 - mean(untraced)/mean(lat)
	}

	// The answer check, after the window so it is not timed.
	mismatches, msgs := checker{w: w, s: s}.verify(samples)
	m["loadgen.checked"] = float64(len(samples))
	res.Failed += mismatches
	res.Notes = append(res.Notes, msgs...)
	m["loadgen.fail_ratio"] = float64(res.Failed) / attempted
	res.Correct = res.Failed == 0

	// Layers seen from /metrics, summed over the nodes.
	win := func(name string) float64 { return delta(before, after, name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	lookups := win("lattold_cache_hits_total") + win("lattold_cache_coalesced_total") + win("lattold_cache_misses_total")
	m["serve.cache.hit_ratio"] = ratio(win("lattold_cache_hits_total"), lookups)
	m["serve.cache.coalesced_ratio"] = ratio(win("lattold_cache_coalesced_total"), lookups)
	m["serve.cache.evictions_per_kreq"] = 1e3 * win("lattold_cache_evictions_total") / attempted
	// The pool's per-solve means cover every solve of the run, warm-up
	// included: on solve-hot the pool works only then.
	m["serve.pool.queue_wait_us_mean"] = 1e6 * ratio(delta(base, after, "lattold_queue_wait_seconds_sum"), delta(base, after, "lattold_queue_wait_seconds_count"))
	m["serve.pool.solve_us_mean"] = 1e6 * ratio(delta(base, after, "lattold_solve_seconds_sum"), delta(base, after, "lattold_solve_seconds_count"))
	m["serve.pool.busy_ratio"] = win("lattold_solve_seconds_sum") / (float64(runtime.GOMAXPROCS(0)*len(ns.nodes)) * elapsed)
	m["serve.pool.solves_per_req"] = win("lattold_solves_total") / attempted
	m["serve.shed_per_kreq"] = 1e3 * (win(`lattold_shed_total{reason="queue_full"}`) +
		win(`lattold_shed_total{reason="draining"}`) + win(`lattold_shed_total{reason="rate_limited"}`)) / attempted
	surrHits := win("lattold_surrogate_hits_total")
	m["surrogate.hit_ratio"] = ratio(surrHits, surrHits+win(`lattold_surrogate_fallbacks_total{reason="bound_exceeded"}`)+
		win(`lattold_surrogate_fallbacks_total{reason="ineligible"}`))
	m["surrogate.refines_per_kreq"] = 1e3 * win("lattold_surrogate_refines_total") / attempted
	m["cluster.forward_ratio"] = win(`lattold_peer_requests_total{outcome="forwarded"}`) / attempted
	m["cluster.fallback_ratio"] = win(`lattold_peer_requests_total{outcome="fallback_local"}`) / attempted
	m["process.cpu_us_per_req"] = float64(cost.cpu) / 1e3 / attempted
	m["process.allocs_per_req"] = cost.allocs / attempted
	m["process.alloc_bytes_per_req"] = cost.bytes / attempted
	m["process.gc_per_kreq"] = 1e3 * cost.gcs / attempted

	lit := m["loadgen.little_ratio"]
	res.Valid = lit >= littleMin && lit <= littleMax
	if !res.Valid {
		res.Notes = append(res.Notes, fmt.Sprintf("invalid run: loadgen.little_ratio %.4f outside [%v, %v]", lit, littleMin, littleMax))
	}

	if !cfg.trace {
		// Everything the run itself kept is released first, so the live
		// heap is the nodes' state plus the benchmark's fixed tables.
		m["heap_live_mb"] = heapLiveMB()
		return res, nil
	}

	spans := rec.snapshot()
	stats := analyze(spans)
	self := func(name string, p float64) float64 {
		if st := stats[name]; st != nil {
			return percentile(st.self, p)
		}
		return 0
	}
	m["client.self_us_p50"] = self("client.call", 50)
	m["transport.self_us_p50"] = self("client.roundtrip", 50)
	m["serve.http_us_p50"] = self("serve.http", 50)
	m["serve.http_us_p99"] = self("serve.http", 99)
	m["cluster.forward_us_p50"], m["cluster.forward_self_us_p50"] = 0, 0 // no ring, no forwards
	if st := stats["cluster.forward"]; st != nil {
		m["cluster.forward_us_p50"] = percentile(st.total, 50)
		m["cluster.forward_self_us_p50"] = percentile(st.self, 50)
	}
	var tb strings.Builder
	writeSelfTable(&tb, stats)
	res.selfTable = tb.String()

	ns.close()
	layers, err := replay(w, s, cfg.replayN)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	// serve.wire_us is derived: the handler time a request spends outside
	// the evaluator, i.e. the mean over traced requests of their serve.http
	// self time (every node the request crossed) minus the replayed
	// evaluator time per request.
	var perTrace []float64
	if st := stats["serve.http"]; st != nil {
		for _, v := range st.selfByTree {
			perTrace = append(perTrace, v)
		}
	}
	m["serve.wire_us"] = mean(perTrace) - m["serve.eval.request_us"]

	if cfg.spans != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}
