// Package serve is the concurrent model-evaluation service: an HTTP/JSON
// layer over the analytical solvers (mva, mms, tolerance) built to sustain
// heavy concurrent load.
//
// Three mechanisms sit between a request and a solver invocation:
//
//   - Result caching with request coalescing: every request canonicalizes to
//     a Key; a sharded LRU holds finished results, and identical in-flight
//     requests share one solver invocation (singleflight) instead of
//     recomputing.
//   - Admission control: solves run on a bounded worker pool (one reusable
//     mms.Workspace per worker, so the steady state allocates nothing); the
//     pending queue is bounded, and requests beyond it are shed immediately
//     with ErrQueueFull (HTTP 429) rather than queued without bound. On
//     shutdown the pool drains: in-flight solves finish, new work is refused
//     with ErrDraining (HTTP 503).
//   - Observability: atomic counters and latency histograms (requests, cache
//     hit ratio, queue wait, solve latency, in-flight gauge) are exposed as a
//     plaintext /metrics endpoint — the daemon reports its own utilization
//     and latency the same way the paper reports U_p and round-trip latency.
package serve

import (
	"math"

	"lattol/internal/access"
	lattolclient "lattol/internal/client"
	"lattol/internal/mms"
	"lattol/internal/stats"
	"lattol/internal/tolerance"
	"lattol/internal/validate"
)

// The wire schema is defined once, in internal/client; serve names its types
// here so handlers, tests and callers keep writing serve.ModelRequest and the
// like. Field docs live on the definitions.
type (
	ModelRequest         = lattolclient.ModelRequest
	ToleranceRequest     = lattolclient.ToleranceRequest
	SweepRequest         = lattolclient.SweepRequest
	BatchItemRequest     = lattolclient.BatchItemRequest
	BatchRequest         = lattolclient.BatchRequest
	PlanRequest          = lattolclient.PlanRequest
	MetricsBody          = lattolclient.MetricsBody
	SolveResponse        = lattolclient.SolveResponse
	ToleranceResponse    = lattolclient.ToleranceResponse
	SweepPoint           = lattolclient.SweepPoint
	SweepResponse        = lattolclient.SweepResponse
	BatchItemResponse    = lattolclient.BatchItemResponse
	BatchResponse        = lattolclient.BatchResponse
	PlanProbe            = lattolclient.PlanProbe
	PlanResponse         = lattolclient.PlanResponse
	PlanFrontierPoint    = lattolclient.PlanFrontierPoint
	PlanFrontierResponse = lattolclient.PlanFrontierResponse
	HealthResponse       = lattolclient.HealthResponse
	ErrorBody            = lattolclient.ErrorBody
	ErrorResponse        = lattolclient.ErrorResponse
)

// itemKey canonicalizes one batch item: operation parse, component parse and
// configuration validation. modelKey behind it is the only request→Key
// function (SolveKey and ToleranceKey canonicalize single requests as items),
// so batch items share cache lines with /v1/solve and /v1/tolerance traffic.
func itemKey(r *BatchItemRequest) (Key, error) {
	return modelKey(&r.ModelRequest, r.Op, r.Subsystem, r.Mode)
}

// modelKey is itemKey over the item's fields, taken separately so a single
// request is canonicalized in place rather than copied into an item — the
// cache-hit path runs this on every request.
func modelKey(r *ModelRequest, opName, subsystem, modeName string) (Key, error) {
	var op opKind
	switch opName {
	case "", "solve":
		op = opSolve
	case "tolerance":
		op = opTolerance
	default:
		return Key{}, validate.Fieldf("serve.BatchItemRequest", "op", "= %q, want solve or tolerance", opName)
	}
	var sub tolerance.Subsystem
	var mode tolerance.IdealMode
	if op == opTolerance {
		var err error
		if sub, err = parseSubsystem(subsystem); err != nil {
			return Key{}, err
		}
		if mode, err = parseMode(modeName, sub); err != nil {
			return Key{}, err
		}
	} else if subsystem != "" || modeName != "" {
		return Key{}, validate.Fieldf("serve.BatchItemRequest", "op",
			"= %q with subsystem/mode set; only tolerance items judge a subsystem", opName)
	}
	cfg, solver, err := components(r)
	if err != nil {
		return Key{}, err
	}
	if err := validateConfig(cfg); err != nil {
		return Key{}, err
	}
	return canonicalKey(cfg, solver, op, sub, mode), nil
}

// opKind distinguishes the cached operation families. Solve and tolerance
// results live in one cache but under disjoint keys.
type opKind uint8

const (
	opSolve opKind = 1 + iota
	opTolerance
)

// Key is the canonical, comparable identity of one evaluation: two requests
// that must yield the same result map to the same Key. Canonicalization
// applies defaults (ports, solver) and zeroes fields the evaluation cannot
// depend on (pattern parameters when no access is remote, psw under the
// uniform pattern, subsystem/mode for plain solves), so equivalent requests
// coalesce and hit the same cache line. The key holds the canonical model
// configuration itself, which a cache miss solves as it is. All fields are
// scalars: building and comparing a Key allocates nothing, which keeps the
// cache-hit path at zero allocations per request.
type Key struct {
	cfg    mms.Config
	solver mms.Solver
	sub    tolerance.Subsystem
	mode   tolerance.IdealMode
	op     opKind
}

// canonicalKey builds the Key of one evaluation from a validated
// configuration, normalizing the configuration in place.
func canonicalKey(cfg mms.Config, solver mms.Solver, op opKind, sub tolerance.Subsystem, mode tolerance.IdealMode) Key {
	// +0 folds IEEE negative zero into positive zero so -0.0 and 0.0
	// requests share a key.
	cfg.Runlength += 0
	cfg.ContextSwitch += 0
	cfg.MemoryTime += 0
	cfg.SwitchTime += 0
	cfg.PRemote += 0
	cfg.Psw += 0
	cfg.MemoryPorts = max(cfg.MemoryPorts, 1)
	cfg.SwitchPorts = max(cfg.SwitchPorts, 1)
	if cfg.PRemote == 0 || cfg.K == 1 {
		// No access ever touches the network: the pattern is irrelevant.
		cfg.Uniform, cfg.GeometricMode, cfg.Psw = false, 0, 0
	} else if cfg.Uniform {
		// The uniform pattern has no locality parameter.
		cfg.GeometricMode, cfg.Psw = 0, 0
	}
	if op == opSolve {
		sub, mode = 0, 0
	}
	return Key{cfg: cfg, solver: solver, sub: sub, mode: mode, op: op}
}

// hash mixes the key's fields into a shard selector: word-at-a-time FNV-1a
// (whole uint64 per xor/multiply step, not per byte — the byte-wise variant
// costs ~120 serial multiplies and dominated the cache-hit profile) with a
// murmur3-style finalizer so the low bits the shard mask reads are fully
// avalanched despite the multiply-last word mixing.
func (k *Key) hash() uint64 {
	c := &k.cfg
	var pattern uint64
	if c.Uniform {
		pattern = 1
	}
	h := stats.NewFNV64()
	h.Add(uint64(k.op) | uint64(k.sub)<<8 | uint64(k.mode)<<16 | uint64(k.solver)<<24 |
		pattern<<32 | uint64(c.GeometricMode)<<40)
	h.Add(uint64(c.K))
	h.Add(uint64(c.Threads))
	h.Add(uint64(c.MemoryPorts))
	h.Add(uint64(c.SwitchPorts))
	h.Add(math.Float64bits(c.Runlength))
	h.Add(math.Float64bits(c.ContextSwitch))
	h.Add(math.Float64bits(c.MemoryTime))
	h.Add(math.Float64bits(c.SwitchTime))
	h.Add(math.Float64bits(c.PRemote))
	h.Add(math.Float64bits(c.Psw))
	return h.Sum()
}

// parsePattern resolves the wire pattern name: whether it is uniform.
func parsePattern(name string) (bool, error) {
	switch name {
	case "", "geometric":
		return false, nil
	case "uniform":
		return true, nil
	default:
		return false, validate.Fieldf("serve.ModelRequest", "pattern", "= %q, want geometric or uniform", name)
	}
}

// parseGeometricMode resolves the wire geometric-normalization name.
func parseGeometricMode(name string) (access.GeometricMode, error) {
	switch name {
	case "", "per-distance":
		return access.PerDistance, nil
	case "per-node":
		return access.PerNode, nil
	default:
		return 0, validate.Fieldf("serve.ModelRequest", "geometric_mode", "= %q, want per-distance or per-node", name)
	}
}

// parseSubsystem resolves the wire subsystem name (default: network).
func parseSubsystem(name string) (tolerance.Subsystem, error) {
	switch name {
	case "", "network":
		return tolerance.Network, nil
	case "memory":
		return tolerance.Memory, nil
	default:
		return 0, validate.Fieldf("serve.ToleranceRequest", "subsystem", "= %q, want network or memory", name)
	}
}

// parseMode resolves the wire ideal-mode name. The empty string selects the
// paper's preferred mode for the subsystem: zero-remote for the network
// ("modify application parameters"), zero-delay for memory.
func parseMode(name string, sub tolerance.Subsystem) (tolerance.IdealMode, error) {
	switch name {
	case "":
		if sub == tolerance.Network {
			return tolerance.ZeroRemote, nil
		}
		return tolerance.ZeroDelay, nil
	case "zero-delay":
		return tolerance.ZeroDelay, nil
	case "zero-remote":
		if sub != tolerance.Network {
			return 0, validate.Fieldf("serve.ToleranceRequest", "mode", "= %q, only defined for the network subsystem", name)
		}
		return tolerance.ZeroRemote, nil
	default:
		return 0, validate.Fieldf("serve.ToleranceRequest", "mode", "= %q, want zero-delay or zero-remote", name)
	}
}

// components parses the request's enum fields and assembles the (not yet
// validated) solver configuration.
func components(r *ModelRequest) (cfg mms.Config, solver mms.Solver, err error) {
	// MaxError is not part of the canonical Key (it selects how a result may
	// be produced, not which result), but it is still client input.
	if math.IsNaN(r.MaxError) || r.MaxError < 0 || r.MaxError >= 1 {
		err = validate.Fieldf("serve.ModelRequest", "MaxError", "= %v, want in [0,1)", r.MaxError)
		return
	}
	cfg = mms.Config{
		K:             r.K,
		Threads:       r.Threads,
		Runlength:     r.Runlength,
		ContextSwitch: r.ContextSwitch,
		MemoryTime:    r.MemoryTime,
		SwitchTime:    r.SwitchTime,
		PRemote:       r.PRemote,
		Psw:           r.Psw,
		MemoryPorts:   r.MemoryPorts,
		SwitchPorts:   r.SwitchPorts,
	}
	if cfg.Uniform, err = parsePattern(r.Pattern); err != nil {
		return
	}
	if cfg.GeometricMode, err = parseGeometricMode(r.GeometricMode); err != nil {
		return
	}
	solver, err = mms.ParseSolver(r.Solver)
	return
}

// Model-size caps on the wire. A solve runs to completion on its worker
// even after its request times out, so the largest model a request may name
// bounds how long one request can hold a worker and how much memory it
// takes. The worst case is the full AMVA solver, whose cost grows with the
// k² per-node classes: at k = 16 one tolerance evaluation (two solves) took
// 0.2–0.36 s and 38 MB on a 2-vCPU Xeon, against 2.7 s and 490 MB for a
// single solve at k = 32 and the 10 s default SolveTimeout. AMVA cost does
// not depend on the thread count (flat from 8 to 10⁶ threads) and exact MVA
// has its own state-space limit; the thread cap is the top of the planner's
// nt search domain, so every default-domain plan probe is a servable model.
// The caps are serve-side only: mms.Config and the CLIs accept larger models.
const (
	maxWireK       = 16
	maxWireThreads = 16384
)

// validateConfig checks a configuration without constructing its access
// pattern, then applies the wire's model-size caps.
func validateConfig(cfg mms.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.K > maxWireK {
		return validate.Fieldf("serve.ModelRequest", "K", "= %d, want <= %d (the model-size cap)", cfg.K, maxWireK)
	}
	if cfg.Threads > maxWireThreads {
		return validate.Fieldf("serve.ModelRequest", "Threads", "= %d, want <= %d (the model-size cap)", cfg.Threads, maxWireThreads)
	}
	return nil
}

// knobCap returns the model-size cap on a plan knob or frontier parameter,
// or 0 when the knob does not size the model.
func knobCap(p mms.Param) float64 {
	switch p.String() {
	case "k":
		return maxWireK
	case "nt":
		return maxWireThreads
	}
	return 0
}
