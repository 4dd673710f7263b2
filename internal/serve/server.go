package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
	"lattol/internal/inverse"
	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/validate"
)

func metricsBody(m mms.Metrics) MetricsBody {
	return MetricsBody{
		Up:             m.Up,
		LambdaProc:     m.LambdaProc,
		LambdaNet:      m.LambdaNet,
		SObs:           m.SObs,
		LObs:           m.LObs,
		CycleTime:      m.CycleTime,
		MemUtilization: m.MemUtilization,
		OutUtilization: m.OutUtilization,
		InUtilization:  m.InUtilization,
		Iterations:     m.Iterations,
	}
}

// goToWireField maps Go field names of the validated structs to their wire
// names, so a 400 points at the JSON field the client actually sent.
var goToWireField = map[string]string{
	"K":             "k",
	"Threads":       "threads",
	"Runlength":     "runlength",
	"ContextSwitch": "context_switch",
	"MemoryTime":    "memory_time",
	"SwitchTime":    "switch_time",
	"PRemote":       "p_remote",
	"Psw":           "psw",
	"MemoryPorts":   "memory_ports",
	"SwitchPorts":   "switch_ports",
	"Solver":        "solver",
	"MaxError":      "max_error",
	"Tolerance":     "tolerance",
	// inverse.Spec / inverse.FrontierSpec fields → PlanRequest wire names.
	"Knob":      "knob",
	"Metric":    "metric",
	"Target":    "target",
	"Relation":  "relation",
	"Lo":        "knob_min",
	"Hi":        "knob_max",
	"KnobTol":   "knob_tol",
	"MaxProbes": "max_probes",
	"Sweep":     "frontier.param",
	"From":      "frontier.from",
	"To":        "frontier.to",
	"Steps":     "frontier.steps",
}

func wireField(goName string) string {
	if w, ok := goToWireField[goName]; ok {
		return w
	}
	return goName
}

// Server is the HTTP facade over an Evaluator, optionally one node of a
// consistent-hash cluster (SetCluster) and optionally rate-limited per
// client (Config.RateLimit).
type Server struct {
	eval  *Evaluator
	mux   *http.ServeMux
	cl    *cluster.Cluster
	limit *rateLimiter
}

// NewServer builds a server (and its evaluator) for the configuration.
// Call Close after shutting down the HTTP listener to drain the pool.
func NewServer(cfg Config) *Server {
	return NewServerWith(NewEvaluator(cfg))
}

// NewServerWith wraps an existing evaluator.
func NewServerWith(eval *Evaluator) *Server {
	s := &Server{eval: eval, mux: http.NewServeMux()}
	if eval.cfg.RateLimit > 0 {
		s.limit = newRateLimiter(eval.cfg.RateLimit, eval.cfg.RateBurst)
		eval.met.rateClients = s.limit.clients
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/tolerance", s.handleTolerance)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler serving the v1 API, with per-client rate
// limiting in front when Config.RateLimit is set. The limiter admits POSTs
// only — GETs (health probes, metrics scrapes) are free — and exempts peer
// forwards: a forward already spent the origin node's budget for that
// client, and answering 429 to a peer would just bounce the work back as a
// local solve there.
func (s *Server) Handler() http.Handler {
	if s.limit == nil {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.Header.Get(cluster.ForwardHeader) == "" {
			if ok, retryAfter := s.limit.allow(clientID(r)); !ok {
				s.eval.met.shedRateLimited.Add(1)
				secs := int(retryAfter / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				s.writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("serve: client %q over the request rate limit", clientID(r)))
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Evaluator returns the underlying evaluation engine.
func (s *Server) Evaluator() *Evaluator { return s.eval }

// Close drains the evaluator. Call it after the HTTP server has stopped
// accepting requests (e.g. after http.Server.Shutdown returns), so in-flight
// handlers finish their evaluations first.
func (s *Server) Close() { s.eval.Close() }

// maxBodyBytes bounds a request body. A solve body is about 100 bytes, a
// 32-item batch 3–4 KB, and a batch of the default MaxBatchItems (1024) items
// 100–130 KB.
const maxBodyBytes = 1 << 20

// readBody reads the bounded request body, a declared length in one
// exact-size read (lattolclient.ReadBody). http.MaxBytesReader stays under it
// so an over-limit chunked body still closes the connection. The raw bytes
// are kept because the cluster layer forwards them verbatim — re-encoding a
// decoded request would have to prove it round-trips exactly; relaying bytes
// doesn't.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := lattolclient.ReadBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength, maxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	return body, nil
}

// decodeStrict decodes one JSON object from raw bytes: unknown fields and
// any non-whitespace byte after the object are errors. The fast path decodes
// canonical bodies; encoding/json decodes what it declines and writes every
// error message a 400 carries.
func decodeStrict(body []byte, dst any) error {
	if p, ok := dst.(lattolclient.WireParser); ok && p.ParseWire(body) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("invalid JSON body: trailing data after the request object")
	}
	return nil
}

// decodeJSON strictly decodes one JSON object straight off the request.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return decodeStrict(body, dst)
}

// statusFor maps an evaluation error to its HTTP status.
func statusFor(err error) int {
	var fe *validate.FieldError
	var nce *mva.NonConvergenceError
	var inf *inverse.InfeasibleError
	var nf *nonFiniteError
	var sse *mva.StateSpaceError
	switch {
	case errors.As(err, &fe):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &nce):
		// The model is well-formed but its fixed point did not stabilize:
		// the request cannot be served as posed.
		return http.StatusUnprocessableEntity
	case errors.As(err, &inf):
		// The plan is well-formed but no knob value in the search interval
		// reaches the target: the question has no answer as posed.
		return http.StatusUnprocessableEntity
	case errors.As(err, &nf):
		// The model is well-formed but its answer does not fit in float64.
		return http.StatusUnprocessableEntity
	case errors.As(err, &sse):
		// The model is well-formed but too large for the exact solver.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// wireBody is a response body that encodes itself: every response type of
// the wire schema appends the bytes json.MarshalIndent(body, "", "  ") would
// produce, without reflection (internal/client/wirejson.go).
type wireBody interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// wireBufs recycles response buffers across requests. Buffers that grew past
// maxPooledWire (a large sweep or frontier) are left to the collector rather
// than pinned in the pool.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledWire = 64 << 10

// writeJSON encodes body before anything is written, so an unencodable body
// (NaN and ±Inf have no JSON form) becomes a 500 error body instead of a
// status line followed by nothing. It declares the body's length: net/http
// does so by itself only for bodies under its 2 KB buffer and sends larger
// ones chunked, which the client can only read by growing a buffer.
func (s *Server) writeJSON(w http.ResponseWriter, code int, body wireBody) {
	bp := wireBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledWire {
			wireBufs.Put(bp)
		}
	}()
	b, err := body.AppendJSON((*bp)[:0])
	if err != nil {
		// An ErrorResponse always encodes, so this recurses at most once.
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: encoding the response: %w", err))
		return
	}
	b = append(b, '\n')
	*bp = b
	s.eval.met.countStatus(code)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		// Keep a more specific hint (the rate limiter's refill time, a relayed
		// peer's own header) when one is already set.
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, ErrorResponse{Error: ErrorBody{
		Status:  code,
		Message: err.Error(),
		Field:   wireField(validate.Field(err)),
	}})
}

// reqContext applies the per-request evaluation budget.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.eval.cfg.SolveTimeout)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.eval.met.requestsSolve.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req ModelRequest
	if err := decodeStrict(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if k, err := SolveKey(req); err == nil && s.routeKeyed(w, r, k.hash(), body) {
		return
	}
	ctx, cancel := s.reqContext(r)
	defer cancel()
	met, bound, st, err := s.eval.SolveBounded(ctx, req)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("X-Lattold-Cache", st.String())
	s.writeJSON(w, http.StatusOK, SolveResponse{Metrics: metricsBody(met), ErrorBound: bound})
}

func (s *Server) handleTolerance(w http.ResponseWriter, r *http.Request) {
	s.eval.met.requestsTolerance.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req ToleranceRequest
	if err := decodeStrict(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if k, err := ToleranceKey(req); err == nil && s.routeKeyed(w, r, k.hash(), body) {
		return
	}
	ctx, cancel := s.reqContext(r)
	defer cancel()
	out, st, err := s.eval.Tolerance(ctx, req)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("X-Lattold-Cache", st.String())
	s.writeJSON(w, http.StatusOK, ToleranceResponse{
		Subsystem: out.Subsystem.String(),
		Mode:      out.Mode.String(),
		Tol:       out.Tol,
		Zone:      out.Zone().String(),
		Real:      metricsBody(out.Real),
		Ideal:     metricsBody(out.Ideal),
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.eval.met.requestsSweep.Add(1)
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.reqContext(r)
	defer cancel()
	points, err := s.eval.Sweep(ctx, req)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, SweepResponse{Param: req.Param, Points: points})
}

// batchItemResponse renders one positional batch outcome onto the wire.
func batchItemResponse(item BatchItemRequest, o BatchOutcome) BatchItemResponse {
	var resp BatchItemResponse
	if err := o.Err; err != nil {
		resp.Error = &ErrorBody{
			Status:  statusFor(err),
			Message: err.Error(),
			Field:   wireField(validate.Field(err)),
		}
		return resp
	}
	resp.Cache = o.Cache.String()
	if item.Op == "tolerance" {
		t := o.Tolerance
		resp.Tolerance = &ToleranceResponse{
			Subsystem: t.Subsystem.String(),
			Mode:      t.Mode.String(),
			Tol:       t.Tol,
			Zone:      t.Zone().String(),
			Real:      metricsBody(t.Real),
			Ideal:     metricsBody(t.Ideal),
		}
	} else {
		resp.Solve = &SolveResponse{Metrics: metricsBody(o.Metrics), ErrorBound: o.Bound}
	}
	return resp
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.eval.met.requestsBatch.Add(1)
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.routeBatch(w, r, req) {
		return
	}
	ctx, cancel := s.reqContext(r)
	defer cancel()
	out := make([]BatchOutcome, len(req.Items))
	if err := s.eval.Batch(ctx, req.Items, out); err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	resp := BatchResponse{Results: make([]BatchItemResponse, len(out))}
	for i := range out {
		resp.Results[i] = batchItemResponse(req.Items[i], out[i])
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.eval.met.requestsHealth.Add(1)
	status, code := "ok", http.StatusOK
	if s.eval.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, HealthResponse{
		Status:        status,
		UptimeSeconds: time.Since(s.eval.met.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.eval.met.requestsMetrics.Add(1)
	s.eval.met.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.eval.met.WriteText(w)
}
