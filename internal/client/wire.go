package lattolclient

// This file is the lattold wire schema: every request and response body the
// daemon's /v1 endpoints, /healthz and error paths carry. It is the only
// definition. internal/serve names these types through aliases (serve already
// imports this package through the cluster transport, so the dependency runs
// serve → client and never back), which makes the client and the server
// encode and decode the same structs by construction. JSON encoding follows
// field order, so reordering fields or changing a tag changes the bytes on
// the wire. The daemon encodes responses with the reflection-free encoders
// in wirejson.go, which reproduce json.MarshalIndent byte for byte: a field
// added or changed here needs the matching line there, and the conformance
// oracle (TestWireEncodeEveryField) fails until it has it. A field of a type
// with ParseWire (the requests and BatchResponse with its nested types) also
// needs its decode line in wiredecode.go (TestWireDecodeEveryField).

// ModelRequest is the wire form of one model configuration plus solver
// choice — the body of POST /v1/solve and the base of the tolerance, sweep,
// batch and plan requests. Fields mirror mms.Config; zero values of the
// optional fields select the usual defaults (geometric pattern, per-distance
// normalization, single ports, symmetric AMVA).
type ModelRequest struct {
	K             int     `json:"k"`
	Threads       int     `json:"threads"`
	Runlength     float64 `json:"runlength"`
	ContextSwitch float64 `json:"context_switch,omitempty"`
	MemoryTime    float64 `json:"memory_time"`
	SwitchTime    float64 `json:"switch_time"`
	PRemote       float64 `json:"p_remote"`
	Psw           float64 `json:"psw,omitempty"`
	Pattern       string  `json:"pattern,omitempty"`        // "", "geometric" or "uniform"
	GeometricMode string  `json:"geometric_mode,omitempty"` // "", "per-distance" or "per-node"
	MemoryPorts   int     `json:"memory_ports,omitempty"`
	SwitchPorts   int     `json:"switch_ports,omitempty"`
	Solver        string  `json:"solver,omitempty"` // "", "symmetric", "full" or "exact"

	// MaxError, when positive, states the relative error the client will
	// accept on each reported metric and opts the request into the surrogate
	// tier: if a precomputed grid certifies an interpolated answer within
	// MaxError, that answer is served in sub-µs instead of running a solver.
	// Zero (the default) demands exact solves only. Cached exact results are
	// always preferred over interpolation. Applies to solve operations;
	// tolerance evaluations ignore it.
	MaxError float64 `json:"max_error,omitempty"`
}

// ToleranceRequest is the body of POST /v1/tolerance: a model plus the
// subsystem whose latency is judged and how the ideal system is derived.
type ToleranceRequest struct {
	ModelRequest
	Subsystem string `json:"subsystem,omitempty"` // "network" (default) or "memory"
	Mode      string `json:"mode,omitempty"`      // "", "zero-remote" or "zero-delay"
}

// SweepRequest is the body of POST /v1/sweep: a base model, the knob to
// sweep and the range. Every point is evaluated like one /v1/tolerance
// request per subsystem, through the same cache and worker pool.
type SweepRequest struct {
	ModelRequest
	Param string  `json:"param"`
	From  float64 `json:"from"`
	To    float64 `json:"to"`
	Steps int     `json:"steps"`
}

// BatchItemRequest is one element of POST /v1/batch's items: a model plus the
// operation to perform on it. Subsystem and mode apply to tolerance items
// only.
type BatchItemRequest struct {
	ModelRequest
	Op        string `json:"op,omitempty"`        // "" or "solve" (default), or "tolerance"
	Subsystem string `json:"subsystem,omitempty"` // as in ToleranceRequest
	Mode      string `json:"mode,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: a positional list of
// independent evaluations answered in one round trip. Item failures are
// positional — they never fail the batch.
type BatchRequest struct {
	Items []BatchItemRequest `json:"items"`
}

// PlanFrontierRequest selects frontier mode on a plan: re-solve the inverse
// problem at every value of a second swept parameter, tracing the
// feasibility frontier (e.g. "threads needed for tolerance ≥ 0.95, as
// p_remote grows").
type PlanFrontierRequest struct {
	Param string  `json:"param"`
	From  float64 `json:"from"`
	To    float64 `json:"to"`
	Steps int     `json:"steps"`
}

// PlanRequest is the body of POST /v1/plan: a base model plus the inverse
// question "find the extremal knob value such that metric relation target".
// The embedded model is the configuration every probe starts from; the knob
// overwrites one of its fields per probe. Probes run through the same cache
// and worker pool as forward requests, so plans share results with solve and
// tolerance traffic (and with each other).
type PlanRequest struct {
	ModelRequest
	// Knob is the parameter solved for: nt, r, l, s, c, premote, psw, k,
	// memports or swports.
	Knob string `json:"knob"`
	// Metric is the targeted measure: u_p, tol_network, tol_memory, s_obs,
	// l_obs, lambda_net or cycle_time.
	Metric string `json:"metric"`
	// Target is the metric value to reach.
	Target float64 `json:"target"`
	// Relation compares metric to target: ">=" (default) or "<=".
	Relation string `json:"relation,omitempty"`
	// KnobMin, KnobMax bound the search; both zero selects the knob's
	// default domain.
	KnobMin float64 `json:"knob_min,omitempty"`
	KnobMax float64 `json:"knob_max,omitempty"`
	// KnobTol is the relative bracket width at which a continuous knob is
	// converged (default 1e-6; integer knobs converge at width 1).
	KnobTol float64 `json:"knob_tol,omitempty"`
	// MaxProbes caps evaluator calls per plan (default 64).
	MaxProbes int `json:"max_probes,omitempty"`
	// Trace requests the probe-by-probe trace in the response.
	Trace bool `json:"trace,omitempty"`
	// Frontier, when present, selects frontier mode.
	Frontier *PlanFrontierRequest `json:"frontier,omitempty"`
}

// MetricsBody is the wire form of the paper's performance measures.
type MetricsBody struct {
	Up             float64 `json:"u_p"`
	LambdaProc     float64 `json:"lambda"`
	LambdaNet      float64 `json:"lambda_net"`
	SObs           float64 `json:"s_obs"`
	LObs           float64 `json:"l_obs"`
	CycleTime      float64 `json:"cycle_time"`
	MemUtilization float64 `json:"mem_utilization"`
	OutUtilization float64 `json:"out_utilization"`
	InUtilization  float64 `json:"in_utilization"`
	Iterations     int     `json:"iterations"`
}

// SolveResponse is the body of a successful POST /v1/solve. ErrorBound is
// present on interpolated (surrogate-tier) answers: the certified relative
// error bound of every reported metric, at most the request's max_error.
// Exact answers omit it. How the serving tier satisfied the request (hit,
// miss, coalesced, surrogate) rides in the X-Lattold-Cache response header.
type SolveResponse struct {
	Metrics    MetricsBody `json:"metrics"`
	ErrorBound float64     `json:"error_bound,omitempty"`
}

// ToleranceResponse is the body of a successful POST /v1/tolerance.
type ToleranceResponse struct {
	Subsystem string      `json:"subsystem"`
	Mode      string      `json:"mode"`
	Tol       float64     `json:"tol"`
	Zone      string      `json:"zone"`
	Real      MetricsBody `json:"real"`
	Ideal     MetricsBody `json:"ideal"`
}

// SweepPoint is one evaluated point of a sweep: the paper's measures plus
// both tolerance indices at that knob setting.
type SweepPoint struct {
	Value      float64     `json:"value"`
	Metrics    MetricsBody `json:"metrics"`
	TolNetwork float64     `json:"tol_network"`
	TolMemory  float64     `json:"tol_memory"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Param  string       `json:"param"`
	Points []SweepPoint `json:"points"`
}

// BatchItemResponse is the positional outcome of one batch item. Exactly one
// of Error, Solve and Tolerance is set; Cache accompanies the successful
// outcomes.
type BatchItemResponse struct {
	Error     *ErrorBody         `json:"error,omitempty"`
	Cache     string             `json:"cache,omitempty"`
	Solve     *SolveResponse     `json:"solve,omitempty"`
	Tolerance *ToleranceResponse `json:"tolerance,omitempty"`
}

// BatchResponse is the body of POST /v1/batch. The envelope is 200 whenever
// the batch itself was well-formed; item failures are reported positionally
// with the same status codes their single-request endpoints would return.
type BatchResponse struct {
	Results []BatchItemResponse `json:"results"`
}

// PlanProbe is the wire form of one probe-trace entry.
type PlanProbe struct {
	Knob     float64 `json:"knob"`
	Value    float64 `json:"value"`
	Feasible bool    `json:"feasible"`
	Solves   int     `json:"solves"`
}

// PlanResponse is the body of a successful POST /v1/plan (scalar mode) and
// the per-point payload of frontier mode. Value is the answer; Achieved is
// the metric observed there; Probes counts evaluator calls and Solves the
// model solves they actually ran (0 when every probe hit the cache).
type PlanResponse struct {
	Knob       string      `json:"knob"`
	Metric     string      `json:"metric"`
	Relation   string      `json:"relation"`
	Target     float64     `json:"target"`
	Value      float64     `json:"value"`
	Achieved   float64     `json:"achieved"`
	Objective  string      `json:"objective"`
	Binding    string      `json:"binding"`
	BracketLo  float64     `json:"bracket_lo"`
	BracketHi  float64     `json:"bracket_hi"`
	Probes     int         `json:"probes"`
	Solves     int         `json:"solves"`
	Metrics    MetricsBody `json:"metrics"`
	TolNetwork *float64    `json:"tol_network,omitempty"`
	TolMemory  *float64    `json:"tol_memory,omitempty"`
	Trace      []PlanProbe `json:"trace,omitempty"`
}

// PlanFrontierPoint is one swept point of a frontier response. Exactly one
// of Error and Plan is set.
type PlanFrontierPoint struct {
	Sweep float64       `json:"sweep"`
	Error *ErrorBody    `json:"error,omitempty"`
	Plan  *PlanResponse `json:"plan,omitempty"`
}

// PlanFrontierResponse is the body of POST /v1/plan in frontier mode.
type PlanFrontierResponse struct {
	Param  string              `json:"param"`
	Knob   string              `json:"knob"`
	Points []PlanFrontierPoint `json:"points"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ErrorBody names what went wrong; Field is present for validation failures
// and holds the wire name of the offending request field.
type ErrorBody struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}
