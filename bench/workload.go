package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	lattolclient "lattol/internal/client"
)

// The request stream of every workload is a pure function of (seed, request
// index): a sender draws the next index, builds the body before its timer
// starts, and the answer check and the traced replay regenerate any request
// from its index alone.

const (
	hotKeys     = 512  // solve-hot: Zipf-popular configurations
	planBases   = 256  // bulk-plan: Zipf-popular plan base models
	clusterKeys = 8192 // cluster-3: Zipf-popular keys, more than one LRU holds
	zipfS       = 1.1  // key popularity exponent
	maxError    = 0.05 // max_error of the surrogate-tier share of solve-cold
	batchItems  = 32   // bulk-plan batch size
	clusterBulk = 16   // cluster-3 batch size
	sweepSteps  = 18   // bulk-plan sweep points: p_remote 0.05..0.90
	planTarget  = 0.9  // bulk-plan: threads for tol_network >= planTarget
)

// kind is the endpoint a request goes to.
type kind uint8

const (
	kindSolve kind = iota
	kindTolerance
	kindBatch
	kindSweep
	kindPlan
)

func (k kind) path() string {
	return [...]string{"/v1/solve", "/v1/tolerance", "/v1/batch", "/v1/sweep", "/v1/plan"}[k]
}

// sweepRequest is the wire body of POST /v1/sweep (the client library has
// no typed sweep call).
type sweepRequest struct {
	lattolclient.ModelRequest
	Param string  `json:"param"`
	From  float64 `json:"from"`
	To    float64 `json:"to"`
	Steps int     `json:"steps"`
}

// request is one generated request: its endpoint, its logical content (what
// the answer check and the replay need) and the exact bytes sent.
type request struct {
	kind kind
	// hot is the index of the Zipf-popular key the request names, -1 when
	// the request is built from new points.
	hot   int
	model lattolclient.ModelRequest // solve and tolerance; the base of sweep and plan
	items []lattolclient.BatchItemRequest
	body  []byte
}

// workload is one traffic mix against one lattold topology.
type workload struct {
	name string
	why  string
	// nodes is the number of lattold nodes; more than one forms a ring.
	nodes int
	// grid installs the default surrogate grid on every node, built at
	// set-up (see startNodes).
	grid bool
	// prewarm is the number of popular solve keys, drawn from sub-stream
	// keySet, that are solved before the window.
	prewarm int
	keySet  uint64
	// next builds request i of the stream.
	next func(s *stream, i int64) request
}

// workloads is the benchmark's traffic; bench/README.md gives the reasons.
var workloads = []*workload{
	// 100% solves of 512 popular configurations, all cached in warm-up.
	{
		name:    "solve-hot",
		why:     "Zipf hits on 512 cached configs: isolates client, net/http, JSON and LRU; solver changes must not move it",
		nodes:   1,
		prewarm: hotKeys,
		keySet:  streamHotKeys,
		next: func(s *stream, i int64) request {
			r := derive(s.seed, streamHotPick, uint64(i))
			j := s.zipf(&r, hotKeys)
			return s.encode(request{kind: kindSolve, hot: j, model: keyModel(s.seed, streamHotKeys, j, 0.85)})
		},
	},
	// 50% exact solves (K alternating 4 and 8), 20% tolerances, 30% solves
	// with max_error inside the surrogate grid; every point new.
	{
		name:  "solve-cold",
		why:   "every point new: exact misses evict the LRU and run mms.Build and AMVA on the pool; 30% max_error hits the surrogate grid",
		nodes: 1,
		grid:  true,
		next: func(s *stream, i int64) request {
			r := derive(s.seed, streamColdPick, uint64(i))
			switch u := r.float(); {
			case u < 0.5:
				k := 4
				if i%2 == 1 {
					k = 8
				}
				return s.encode(request{kind: kindSolve, hot: -1, model: newModel(s.seed, streamColdSolve, uint64(i), k)})
			case u < 0.7:
				return s.encode(request{kind: kindTolerance, hot: -1, model: newModel(s.seed, streamColdTol, uint64(i), 4)})
			default:
				m := newModel(s.seed, streamColdApprox, uint64(i), 4)
				m.MaxError = maxError
				return s.encode(request{kind: kindSolve, hot: -1, model: m})
			}
		},
	},
	// 15% batches of 32 new items, 15% 18-point p_remote sweeps from a new
	// base, 70% thread-count plans over 256 popular bases. Plans answer in
	// 0.07–0.4 ms, batches and sweeps in 0.6–2 ms, and the batch and sweep
	// latencies are themselves bimodal (fast while the other sender plans,
	// slow while it also solves). The median must lie inside one dense mode:
	// with plans at 30% or 50% of the traffic it fell on a gap between modes
	// and moved by up to 20% between runs; at 70% it lies inside the plans,
	// while batches and sweeps still take about three quarters of the time
	// the senders wait.
	{
		name:  "bulk-plan",
		why:   "batch, sweep and plan: the lockstep batch kernel and the inverse planner, several-KB responses, plans reusing cached probes",
		nodes: 1,
		next: func(s *stream, i int64) request {
			r := derive(s.seed, streamBulkPick, uint64(i))
			switch u := r.float(); {
			case u < 0.15:
				items := make([]lattolclient.BatchItemRequest, batchItems)
				for j := range items {
					items[j].ModelRequest = newModel(s.seed, streamBulkBatch, uint64(i)*batchItems+uint64(j), 4)
					if j%2 == 1 {
						items[j].Op = "tolerance"
					}
				}
				return s.encode(request{kind: kindBatch, hot: -1, items: items})
			case u < 0.3:
				return s.encode(request{kind: kindSweep, hot: -1, model: newModel(s.seed, streamBulkSweep, uint64(i), 4)})
			default:
				j := s.zipf(&r, planBases)
				return s.encode(request{kind: kindPlan, hot: j, model: keyModel(s.seed, streamPlanBases, j, 0.2)})
			}
		},
	},
	// 70% solves of 8192 popular keys, 20% solves of new points, 10% batches
	// of 16 popular keys alternating solve and tolerance items.
	{
		name:    "cluster-3",
		why:     "3-node ring, 2/3 of keyed requests forwarded one hop; 8192 Zipf keys overflow one LRU but fit the ring's; batches split per owner",
		nodes:   3,
		prewarm: clusterKeys,
		keySet:  streamClusterKeys,
		next: func(s *stream, i int64) request {
			r := derive(s.seed, streamClusterPick, uint64(i))
			switch u := r.float(); {
			case u < 0.7:
				j := s.zipf(&r, clusterKeys)
				return s.encode(request{kind: kindSolve, hot: j, model: keyModel(s.seed, streamClusterKeys, j, 0.85)})
			case u < 0.9:
				return s.encode(request{kind: kindSolve, hot: -1, model: newModel(s.seed, streamClusterNew, uint64(i), 4)})
			default:
				items := make([]lattolclient.BatchItemRequest, clusterBulk)
				for j := range items {
					items[j].ModelRequest = keyModel(s.seed, streamClusterKeys, s.zipf(&r, clusterKeys), 0.85)
					if j%2 == 1 {
						items[j].Op = "tolerance"
					}
				}
				return s.encode(request{kind: kindBatch, hot: -1, items: items})
			}
		},
	},
}

// workloadByName returns the named workload, or nil.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmKey builds the request that prewarms popular key j: the same solve
// the stream sends for that key.
func (w *workload) warmKey(s *stream, j int) request {
	return s.encode(request{kind: kindSolve, hot: j, model: keyModel(s.seed, w.keySet, j, 0.85)})
}

// Sub-stream identifiers: every independent draw of a workload takes its
// randomness from its own stream, so adding a draw never shifts another.
const (
	streamHotPick uint64 = iota + 1
	streamHotKeys
	streamColdPick
	streamColdSolve
	streamColdTol
	streamColdApprox
	streamBulkPick
	streamBulkBatch
	streamBulkSweep
	streamPlanBases
	streamClusterPick
	streamClusterKeys
	streamClusterNew
)

// stream holds what a workload's generator precomputes for one seed.
type stream struct {
	seed int64
	cdfs map[int][]float64 // Zipf CDF per key-set size
}

func newStream(seed int64) *stream {
	s := &stream{seed: seed, cdfs: map[int][]float64{}}
	for _, n := range []int{hotKeys, planBases, clusterKeys} {
		cdf := make([]float64, n)
		var sum float64
		for k := range cdf {
			sum += math.Pow(float64(k+1), -zipfS)
			cdf[k] = sum
		}
		for k := range cdf {
			cdf[k] /= sum
		}
		cdf[n-1] = 1
		s.cdfs[n] = cdf
	}
	return s
}

// zipf draws a key index in [0, n) with P(k) ∝ (k+1)^-zipfS.
func (s *stream) zipf(r *rng, n int) int {
	return sort.SearchFloat64s(s.cdfs[n], r.float())
}

// encode fills in the request body. The stream's types always marshal, so a
// failure is a bug.
func (s *stream) encode(req request) request {
	var v any
	switch req.kind {
	case kindSolve:
		v = req.model
	case kindTolerance:
		v = lattolclient.ToleranceRequest{ModelRequest: req.model}
	case kindBatch:
		v = lattolclient.BatchRequest{Items: req.items}
	case kindSweep:
		v = sweepRequest{ModelRequest: req.model, Param: "premote", From: 0.05, To: 0.9, Steps: sweepSteps}
	case kindPlan:
		v = lattolclient.PlanRequest{ModelRequest: req.model, Knob: "nt", Metric: "tol_network", Target: planTarget}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding %s request: %v", req.kind.path(), err))
	}
	req.body = body
	return req
}

// baseModel is the configuration every generated model starts from: the
// paper's 4×4-torus defaults with the psw inside the surrogate grid.
func baseModel(k int) lattolclient.ModelRequest {
	return lattolclient.ModelRequest{K: k, MemoryTime: 10, SwitchTime: 10, Psw: 0.5}
}

// keyModel is popular key j of a key set: a K=4 point drawn uniformly over
// threads 1–10, runlength 5–30 and p_remote 0.05–pMax, inside the default
// surrogate grid.
func keyModel(seed int64, set uint64, j int, pMax float64) lattolclient.ModelRequest {
	r := derive(seed, set, uint64(j))
	m := baseModel(4)
	m.Threads = 1 + int(10*r.float())
	m.Runlength = 5 + 25*r.float()
	m.PRemote = 0.05 + (pMax-0.05)*r.float()
	return m
}

// Additive-recurrence steps of the three-dimensional generalized golden
// ratio (1/g, 1/g², 1/g³ with g⁴ = g + 1): consecutive points of one
// sub-stream never repeat and fill runlength × p_remote × threads evenly.
const goldenG = 1.2207440846057596

var goldenSteps = [3]float64{1 / goldenG, 1 / (goldenG * goldenG), 1 / (goldenG * goldenG * goldenG)}

// newModel is point i of a sub-stream: runlength 5–30, p_remote 0.05–0.9
// and threads 1–10 by golden-ratio stepping from a seed-derived offset.
func newModel(seed int64, sub uint64, i uint64, k int) lattolclient.ModelRequest {
	r := derive(seed, sub)
	var u [3]float64
	for d := range u {
		x := r.float() + math.Mod(float64(i)*goldenSteps[d], 1)
		u[d] = x - math.Floor(x)
	}
	m := baseModel(k)
	m.Runlength = 5 + 25*u[0]
	m.PRemote = 0.05 + 0.85*u[1]
	m.Threads = 1 + int(10*u[2])
	return m
}

// rng is a splitmix64 generator: a few nanoseconds to derive from (seed,
// index) and to draw, so per-request randomness costs nothing measurable.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// derive returns the generator of one (seed, parts...) coordinate.
func derive(seed int64, parts ...uint64) rng {
	r := rng(seed)
	for _, p := range parts {
		r = rng(r.next() ^ p)
	}
	return r
}
