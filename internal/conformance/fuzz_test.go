package conformance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lattol/internal/access"
	lattolclient "lattol/internal/client"
	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/queueing"
	"lattol/internal/serve"
	"lattol/internal/validate"
)

// fold maps an arbitrary float64 into [lo, hi), replacing non-finite inputs
// with lo. Fuzzed numeric inputs pass through it wherever the model domain
// is bounded.
func fold(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(v), hi-lo)
}

// FuzzAMVASolve throws randomized small closed networks (2–4 stations, two
// classes, mixed FCFS/delay/multi-server) at the Bard–Schweitzer solver and
// demands every operational-law invariant of the solution: finiteness,
// Little's law, flow balance, the utilization law, asymptotic throughput
// bounds and fixed-point self-consistency. Convergence failures are
// tolerated (they are a documented error path); invariant violations and
// panics are not.
func FuzzAMVASolve(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(0), uint8(0), 1.0, 2.0, 3.0, 4.0, 1.0, 1.0, 1.0, 1.0)
	f.Add(uint8(6), uint8(0), uint8(1), uint8(2), 10.0, 10.0, 10.0, 10.0, 0.5, 0.0, 2.0, 1.0)
	f.Add(uint8(2), uint8(5), uint8(64), uint8(9), 0.5, 4.0, 1.5, 8.0, 0.0, 1.0, 0.0, 3.0)
	f.Fuzz(func(t *testing.T, pop1, pop2, kindMask, serverMask uint8, s0, s1, s2, s3, v0, v1, v2, v3 float64) {
		m := 2 + int(kindMask>>6)%3 // 2..4 stations
		svc := []float64{s0, s1, s2, s3}
		vis := []float64{v0, v1, v2, v3}
		stations := make([]queueing.Station, m)
		visitsA := make([]float64, m)
		visitsB := make([]float64, m)
		for i := range stations {
			stations[i] = queueing.Station{
				Name:        fmt.Sprintf("s%d", i),
				ServiceTime: fold(svc[i], 0.05, 20),
				Servers:     int(serverMask>>(2*i)) & 3,
			}
			if kindMask>>i&1 == 1 {
				stations[i].Kind = queueing.Delay
			}
			visitsA[i] = 1
			visitsB[i] = math.Floor(fold(vis[i], 0, 4))
		}
		net := &queueing.Network{
			Stations: stations,
			Classes: []queueing.Class{
				{Name: "a", Population: int(pop1 % 7), Visits: visitsA},
				{Name: "b", Population: int(pop2 % 7), Visits: visitsB},
			},
		}
		if net.Validate() != nil {
			t.Skip() // e.g. positive population with all-zero visits
		}
		res, err := mva.ApproxMultiClass(net, mva.AMVAOptions{})
		if err != nil {
			var nc *mva.NonConvergenceError
			if errors.As(err, &nc) {
				t.Skip()
			}
			t.Fatalf("AMVA failed on valid network: %v", err)
		}
		if err := CheckResult(net, res, Bands{}); err != nil {
			t.Fatalf("AMVA solution violates invariants on %+v: %v", net, err)
		}
	})
}

// FuzzMMSConfigValidate checks the validation contract of the model
// configuration: any config Validate accepts must build and solve without
// panicking, and a successful solve must satisfy the operational laws; any
// config Validate rejects must be rejected with a field-named error the
// serving layer can map to a structured 400.
func FuzzMMSConfigValidate(f *testing.F) {
	def := mms.DefaultConfig()
	f.Add(def.K, def.Threads, def.Runlength, 0.0, def.MemoryTime, def.SwitchTime, def.PRemote, def.Psw, 0, 0, uint8(0))
	f.Add(1, 3, 5.0, 1.0, 2.0, 0.0, 0.0, 0.0, 2, 0, uint8(1))
	f.Add(-2, 8, 10.0, 0.0, 10.0, 10.0, 1.5, 0.5, 0, -1, uint8(0))
	f.Fuzz(func(t *testing.T, k, threads int, runlength, contextSwitch, memoryTime, switchTime, pRemote, psw float64, memPorts, swPorts int, geoSel uint8) {
		// Bound the work, not the validity: positive K and Threads fold into
		// a solvable range, invalid (negative, zero-K) values pass through to
		// exercise the rejection paths.
		if k > 4 {
			k = 1 + k%4
		}
		if threads > 32 {
			threads %= 33
		}
		if memPorts > 4 {
			memPorts %= 5
		}
		if swPorts > 4 {
			swPorts %= 5
		}
		// Service times above 1e6 fold back into range so intermediate
		// products stay far from overflow; invalid values (negative, NaN,
		// ±Inf — Mod of +Inf is NaN) still reach Validate and must be
		// rejected there.
		bound := func(v float64) float64 {
			if v > 1e6 {
				return math.Mod(v, 1e6)
			}
			return v
		}
		cfg := mms.Config{
			K:             k,
			Threads:       threads,
			Runlength:     bound(runlength),
			ContextSwitch: bound(contextSwitch),
			MemoryTime:    bound(memoryTime),
			SwitchTime:    bound(switchTime),
			PRemote:       pRemote,
			Psw:           psw,
			GeometricMode: access.GeometricMode(geoSel % 2),
			MemoryPorts:   memPorts,
			SwitchPorts:   swPorts,
		}
		if err := cfg.Validate(); err != nil {
			if validate.Field(err) == "" {
				t.Fatalf("Validate rejected %+v without a field-named error: %v", cfg, err)
			}
			return
		}
		model, err := mms.Build(cfg)
		if err != nil {
			t.Fatalf("Build failed on validated config %+v: %v", cfg, err)
		}
		met, err := model.Solve(mms.SolveOptions{})
		if err != nil {
			if strings.Contains(err.Error(), "converge") {
				t.Skip() // documented error path for pathological ratios
			}
			t.Fatalf("Solve failed on validated config %+v: %v", cfg, err)
		}
		if err := CheckMetrics(model, met, Bands{}); err != nil {
			t.Fatalf("metrics violate invariants on %+v: %v", cfg, err)
		}
	})
}

// solveRequestConfig mirrors the serving layer's request→config assembly
// for the raw (un-canonicalized) request, so the fuzz target can compare
// "solve the raw request" against "solve what the canonical key denotes".
func solveRequestConfig(r serve.ModelRequest) mms.Config {
	cfg := mms.Config{
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
	if r.GeometricMode == "per-node" {
		cfg.GeometricMode = access.PerNode
	}
	cfg.Uniform = r.Pattern == "uniform"
	return cfg
}

// FuzzServeKeyCanonical fuzzes the request-canonicalization pipeline of the
// serving layer. For every valid request it demands:
//
//   - idempotence: the canonical Key re-canonicalizes to itself;
//   - irrelevance-field folding: mutations canonicalization documents as
//     irrelevant (psw under the uniform pattern, pattern parameters when no
//     access is remote, default spellings of ports/solver/pattern) map to
//     the same Key;
//   - answer preservation: the configuration the Key denotes solves to
//     exactly the metrics of the raw request's configuration — Key-equal
//     requests are served one cached result, so canonicalization must never
//     change the answer.
func FuzzServeKeyCanonical(f *testing.F) {
	f.Add(uint8(2), uint8(3), 10.0, 10.0, 10.0, 0.2, 0.5, uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(1), 5.0, 2.0, 1.0, 0.0, 0.0, uint8(1), uint8(2), uint8(1))
	f.Add(uint8(2), uint8(4), 1.0, 0.5, 2.0, 0.9, 0.9, uint8(2), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, k, threads uint8, runlength, memoryTime, switchTime, pRemote, psw float64, patSel, solverSel, portSel uint8) {
		r := serve.ModelRequest{
			K:           1 + int(k%2),
			Threads:     int(threads % 5),
			Runlength:   fold(runlength, 0.5, 20),
			MemoryTime:  fold(memoryTime, 0, 20),
			SwitchTime:  fold(switchTime, 0, 20),
			PRemote:     fold(pRemote, 0, 1),
			Psw:         fold(psw, 0.05, 1),
			Pattern:     []string{"", "geometric", "uniform"}[patSel%3],
			Solver:      []string{"", "symmetric", "symmetric-amva", "full", "exact"}[solverSel%5],
			MemoryPorts: int(portSel % 3),
			SwitchPorts: int(portSel>>2) % 3,
		}
		if r.K == 1 {
			r.PRemote = 0
		}
		key, err := serve.SolveKey(r)
		if err != nil {
			t.Skip()
		}
		if re := key.Recanonicalized(); re != key {
			t.Fatalf("canonicalization not idempotent for %+v:\n key %+v\n re  %+v", r, key, re)
		}

		// Mutations the canonicalization documents as irrelevant must not
		// move the key.
		for _, mut := range irrelevantMutations(r) {
			mk, err := serve.SolveKey(mut)
			if err != nil {
				t.Fatalf("mutated request %+v invalid: %v", mut, err)
			}
			if mk != key {
				t.Fatalf("irrelevant mutation changed the key:\n base %+v -> %+v\n mut  %+v -> %+v", r, key, mut, mk)
			}
		}

		// The canonical config must solve to exactly the raw request's
		// answer (defaults applied and irrelevant fields zeroed cannot move
		// a number).
		rawCfg := solveRequestConfig(r)
		opts := mms.SolveOptions{Solver: key.SolverChoice()}
		rawModel, err := mms.Build(rawCfg)
		if err != nil {
			t.Fatalf("raw config %+v failed to build: %v", rawCfg, err)
		}
		rawMet, rawErr := rawModel.Solve(opts)
		canonModel, err := mms.Build(key.ModelConfig())
		if err != nil {
			t.Fatalf("canonical config %+v failed to build: %v", key.ModelConfig(), err)
		}
		canonMet, canonErr := canonModel.Solve(opts)
		if (rawErr == nil) != (canonErr == nil) {
			t.Fatalf("raw and canonical solves disagree on error: %v vs %v", rawErr, canonErr)
		}
		if rawErr == nil && rawMet != canonMet {
			t.Fatalf("canonicalization changed the answer for %+v:\n raw   %+v\n canon %+v", r, rawMet, canonMet)
		}
	})
}

// irrelevantMutations returns request variants that must canonicalize to the
// same key as r.
func irrelevantMutations(r serve.ModelRequest) []serve.ModelRequest {
	var muts []serve.ModelRequest
	add := func(f func(*serve.ModelRequest)) {
		m := r
		f(&m)
		muts = append(muts, m)
	}
	if r.Pattern == "" {
		add(func(m *serve.ModelRequest) { m.Pattern = "geometric" })
	}
	if r.GeometricMode == "" {
		add(func(m *serve.ModelRequest) { m.GeometricMode = "per-distance" })
	}
	switch r.Solver {
	case "":
		add(func(m *serve.ModelRequest) { m.Solver = "symmetric" })
	case "symmetric":
		add(func(m *serve.ModelRequest) { m.Solver = "symmetric-amva" })
	case "full":
		add(func(m *serve.ModelRequest) { m.Solver = "full-amva" })
	case "exact":
		add(func(m *serve.ModelRequest) { m.Solver = "exact-mva" })
	}
	if r.MemoryPorts == 0 {
		add(func(m *serve.ModelRequest) { m.MemoryPorts = 1 })
	}
	if r.SwitchPorts == 0 {
		add(func(m *serve.ModelRequest) { m.SwitchPorts = 1 })
	}
	if r.PRemote == 0 {
		// No access touches the network: the whole pattern block is
		// irrelevant.
		add(func(m *serve.ModelRequest) { m.Psw = 0.123 })
		add(func(m *serve.ModelRequest) { m.Pattern = "uniform"; m.GeometricMode = "per-node"; m.Psw = 0.9 })
	} else if r.Pattern == "uniform" {
		// The uniform pattern has no locality parameter.
		add(func(m *serve.ModelRequest) { m.Psw = 0.123 })
		add(func(m *serve.ModelRequest) { m.GeometricMode = "per-node" })
	}
	return muts
}

// FuzzServeHTTP throws raw request bodies at every POST endpoint of a real
// Server.Handler() and demands the wire contract a client relies on:
//
//   - no panic, and no 500 — client input, however malformed, is answered
//     with a 4xx, or a 422 when well-formed but unanswerable, never blamed
//     on the server;
//   - every 2xx body decodes into the endpoint's lattolclient response type
//     with unknown fields disallowed;
//   - every non-2xx body decodes as an ErrorResponse whose status equals the
//     HTTP code.
//
// The client's wire types are the only definition of the schema, so this is
// the behavioural check that what the server writes is what they describe.
func FuzzServeHTTP(f *testing.F) {
	const model = `"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5`
	endpoints := [...]string{"/v1/solve", "/v1/tolerance", "/v1/sweep", "/v1/batch", "/v1/plan"}
	for _, seed := range []struct {
		ep   uint8
		body string
	}{
		{0, `{` + model + `}`},
		{0, `{` + model + `,"solver":"full","max_error":0.01}`},
		{0, `{` + model + `,"pattern":"uniform","solver":"exact"}`},
		{0, `{` + model + `,"memory_time":1e308}`},
		{0, `{"k":0}`},
		{0, `not json`},
		{1, `{` + model + `,"subsystem":"memory"}`},
		{1, `{` + model + `,"mode":"zero-delay"}`},
		{2, `{` + model + `,"param":"premote","from":0.1,"to":0.9,"steps":4}`},
		{2, `{` + model + `,"param":"bogus","steps":4}`},
		{3, `{"items":[{` + model + `},{` + model + `,"op":"tolerance"},{"k":-1}]}`},
		{3, `{"items":[]}`},
		{4, `{` + model + `,"knob":"nt","metric":"u_p","target":0.5,"trace":true}`},
		{4, `{` + model + `,"knob":"nt","metric":"tol_network","target":0.9,"frontier":{"param":"premote","from":0.1,"to":0.5,"steps":3}}`},
		{4, `{` + model + `,"knob":"nt","metric":"u_p","target":2}`},
	} {
		f.Add(seed.ep, []byte(seed.body))
	}
	srv := serve.NewServer(serve.Config{
		Workers:        2,
		QueueDepth:     16,
		SolveTimeout:   250 * time.Millisecond,
		MaxSweepPoints: 16,
		MaxBatchItems:  16,
	})
	f.Cleanup(srv.Close)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := endpoints[int(ep)%len(endpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		code := rec.Code
		if code == http.StatusInternalServerError {
			t.Fatalf("POST %s %q: 500: %s", path, body, rec.Body.Bytes())
		}
		if code < 200 || code > 299 {
			var e lattolclient.ErrorResponse
			if err := decodeWire(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("POST %s %q: %d body is not an ErrorResponse: %v\n%s", path, body, code, err, rec.Body.Bytes())
			}
			if e.Error.Status != code {
				t.Fatalf("POST %s %q: HTTP %d but error status %d", path, body, code, e.Error.Status)
			}
			return
		}
		var dst any
		switch path {
		case "/v1/solve":
			dst = new(lattolclient.SolveResponse)
		case "/v1/tolerance":
			dst = new(lattolclient.ToleranceResponse)
		case "/v1/sweep":
			dst = new(lattolclient.SweepResponse)
		case "/v1/batch":
			dst = new(lattolclient.BatchResponse)
		default:
			// The server decoded the request strictly to answer 2xx, so it
			// decodes here too and says which of the two plan shapes is due.
			var req lattolclient.PlanRequest
			if err := decodeWire(body, &req); err != nil {
				t.Fatalf("POST %s %q: 2xx for a body the schema rejects: %v", path, body, err)
			}
			dst = new(lattolclient.PlanResponse)
			if req.Frontier != nil {
				dst = new(lattolclient.PlanFrontierResponse)
			}
		}
		if err := decodeWire(rec.Body.Bytes(), dst); err != nil {
			t.Fatalf("POST %s %q: %d body does not decode as %T: %v\n%s", path, body, code, dst, err, rec.Body.Bytes())
		}
	})
}

// decodeWire decodes exactly one JSON value into dst, rejecting unknown
// fields and any non-whitespace byte after the value — the strictness the
// server applies to requests.
func decodeWire(b []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
