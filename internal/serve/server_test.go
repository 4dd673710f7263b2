package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer wires a Server over a small evaluator and returns both with
// an httptest listener. The caller owns shutdown via the returned close func.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decoding response body: %v", err)
	}
}

const validBody = `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5}`

func TestServerSolveOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/solve", validBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Lattold-Cache"); got != "miss" {
		t.Errorf("X-Lattold-Cache = %q, want miss", got)
	}
	var out SolveResponse
	decodeBody(t, resp, &out)
	if out.Metrics.Up <= 0 || out.Metrics.Up > 1 {
		t.Errorf("u_p = %v, want in (0,1]", out.Metrics.Up)
	}
	if out.Metrics.CycleTime <= 0 {
		t.Errorf("cycle_time = %v, want > 0", out.Metrics.CycleTime)
	}

	// The identical request is a cache hit.
	resp2 := postJSON(t, ts.URL+"/v1/solve", validBody)
	if got := resp2.Header.Get("X-Lattold-Cache"); got != "hit" {
		t.Errorf("repeat X-Lattold-Cache = %q, want hit", got)
	}
	var out2 SolveResponse
	decodeBody(t, resp2, &out2)
	if out2 != out {
		t.Errorf("cached body %+v differs from first %+v", out2, out)
	}
}

func TestServerToleranceOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/tolerance", validBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out ToleranceResponse
	decodeBody(t, resp, &out)
	if out.Subsystem != "network" || out.Mode != "zero-remote" {
		t.Errorf("defaults = %s/%s, want network/zero-remote", out.Subsystem, out.Mode)
	}
	if out.Tol <= 0 || out.Tol > 1.2 {
		t.Errorf("tol = %v, want in (0,1.2]", out.Tol)
	}
	if out.Zone == "" {
		t.Error("zone missing")
	}
	if out.Ideal.Up < out.Real.Up-1e-9 {
		t.Errorf("ideal u_p %v below real u_p %v", out.Ideal.Up, out.Real.Up)
	}
}

func TestServerSweepOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5,"param":"nt","from":2,"to":8,"steps":4}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out SweepResponse
	decodeBody(t, resp, &out)
	if out.Param != "nt" || len(out.Points) != 4 {
		t.Fatalf("param %q with %d points, want nt with 4", out.Param, len(out.Points))
	}
	for _, p := range out.Points {
		if p.TolNetwork <= 0 || p.TolMemory <= 0 {
			t.Errorf("nt=%v: tol_network=%v tol_memory=%v", p.Value, p.TolNetwork, p.TolMemory)
		}
	}
}

// TestServerGolden400s pins the error contract: malformed bodies and invalid
// fields produce 400 with a message and (for validation) the wire field name.
func TestServerGolden400s(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name      string
		path      string
		body      string
		wantField string
	}{
		{"malformed JSON", "/v1/solve", `{"k":4,`, ""},
		{"trailing data", "/v1/solve", validBody + `{"k":2}`, ""},
		{"trailing brackets", "/v1/solve", validBody + `]]]garbage`, ""},
		{"trailing brace after a batch", "/v1/batch", `{"items":[` + validBody + `]}}`, ""},
		{"unknown field", "/v1/solve", `{"k":4,"bogus":1}`, ""},
		{"wrong type", "/v1/solve", `{"k":"four"}`, ""},
		{"zero k", "/v1/solve", `{"k":0,"threads":8,"runlength":10,"memory_time":10,"switch_time":10}`, "k"},
		{"bad p_remote", "/v1/solve", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":1.5}`, "p_remote"},
		{"bad solver", "/v1/solve", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"solver":"bogus"}`, "solver"},
		{"bad subsystem", "/v1/tolerance", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"subsystem":"disk"}`, "subsystem"},
		{"memory with zero-remote", "/v1/tolerance", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"subsystem":"memory","mode":"zero-remote"}`, "mode"},
		{"bad sweep param", "/v1/sweep", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"param":"bogus","from":1,"to":2,"steps":2}`, "param"},
		{"zero sweep steps", "/v1/sweep", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"param":"nt","from":1,"to":2,"steps":0}`, "steps"},
		{"k over the size cap", "/v1/solve", `{"k":17,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5}`, "k"},
		{"threads over the size cap", "/v1/tolerance", `{"k":4,"threads":16385,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5}`, "threads"},
		{"psw sweep under the uniform pattern", "/v1/sweep", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"pattern":"uniform","param":"psw","from":0.1,"to":0.9,"steps":3}`, "param"},
		{"sweep past the k cap", "/v1/sweep", `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5,"param":"k","from":8,"to":24,"steps":3}`, "k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var out ErrorResponse
			decodeBody(t, resp, &out)
			if out.Error.Status != http.StatusBadRequest {
				t.Errorf("error.status = %d, want 400", out.Error.Status)
			}
			if out.Error.Message == "" {
				t.Error("error.message empty")
			}
			if out.Error.Field != tc.wantField {
				t.Errorf("error.field = %q, want %q (message: %s)", out.Error.Field, tc.wantField, out.Error.Message)
			}
		})
	}
}

// referenceDecode is decodeStrict without its fast path: encoding/json
// alone, which writes every decode error a 400 carries.
func referenceDecode(body []byte, dst any) error {
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

// TestDecodeMatchesReference sends bodies outside ParseWire's canonical
// subset, and a few inside it, through Server.Handler() and demands the
// outcome encoding/json alone gives. A body the reference rejects must come
// back as the 400 of that error, byte for byte. A body it decodes must be
// answered exactly as a twin server answers the value's canonical
// json.Marshal encoding. The servers have one worker each and see the same
// sequence of solves, so warm starts, and the iteration counts in their
// answers, agree.
func TestDecodeMatchesReference(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	twin := NewServer(Config{Workers: 1})
	defer twin.Close()
	const model = `"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5`
	cases := []struct {
		name, path, body string
		dst              any
	}{
		{"case-folded key", "/v1/solve", `{"K":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5}`, new(ModelRequest)},
		{"duplicate items", "/v1/batch", `{"items":[{` + model + `}],"items":[{"k":5,"op":"tolerance"}]}`, new(BatchRequest)},
		{"null", "/v1/tolerance", `{` + model + `,"max_error":null,"mode":null}`, new(ToleranceRequest)},
		{"fraction into an int", "/v1/solve", `{"k":4.0,"threads":8}`, new(ModelRequest)},
		{"float out of range", "/v1/solve", `{` + model + `,"max_error":1e400}`, new(ModelRequest)},
		{"leading zero", "/v1/sweep", `{` + model + `,"param":"nt","from":1,"to":4,"steps":01}`, new(SweepRequest)},
		{"plus sign", "/v1/solve", `{"k":+1}`, new(ModelRequest)},
		{"bare fraction", "/v1/solve", `{` + model + `,"max_error":.5}`, new(ModelRequest)},
		{"hex", "/v1/solve", `{"k":0x10}`, new(ModelRequest)},
		{"NaN", "/v1/plan", `{` + model + `,"knob":"nt","metric":"u_p","target":NaN}`, new(PlanRequest)},
		{"escaped string", "/v1/batch", `{"items":[{` + model + `,"op":"\u0074olerance"}]}`, new(BatchRequest)},
		{"invalid UTF-8", "/v1/solve", `{` + model + ",\"solver\":\"full\xff\"}", new(ModelRequest)},
		{"tab and CR whitespace", "/v1/plan", "{\t\"k\":4,\r\n\"threads\":8,\"runlength\":10,\"memory_time\":10,\"switch_time\":10,\t\"p_remote\":0.2,\"psw\":0.5,\"knob\":\"nt\",\"metric\":\"u_p\",\"target\":0.5,\"trace\":true}\r\n", new(PlanRequest)},
		{"unknown key after parsed fields", "/v1/solve", `{` + model + `,"solver":"full","bogus":1}`, new(ModelRequest)},
		{"trailing brackets", "/v1/solve", `{` + model + `}]]]garbage`, new(ModelRequest)},
		{"trailing brace", "/v1/batch", `{"items":[{` + model + `}]}}`, new(BatchRequest)},
	}
	post := func(h http.Handler, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := post(srv.Handler(), tc.path, tc.body)
			want := httptest.NewRecorder()
			if err := referenceDecode([]byte(tc.body), tc.dst); err != nil {
				srv.writeError(want, http.StatusBadRequest, err)
			} else {
				canonical, err := json.Marshal(tc.dst)
				if err != nil {
					t.Fatal(err)
				}
				want = post(twin.Handler(), tc.path, string(canonical))
			}
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("POST %s %q:\n got %d %s\nwant %d %s", tc.path, tc.body, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
			}
		})
	}
}

func TestServerMethodAndBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve status = %d, want 405", resp.StatusCode)
	}

	huge := `{"k":4,"threads":8` + strings.Repeat(" ", maxBodyBytes) + `}`
	resp = postJSON(t, ts.URL+"/v1/solve", huge)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body status = %d, want 400", resp.StatusCode)
	}
	if !resp.Close {
		t.Error("oversized body left the connection open")
	}
}

// TestServerChunkedRequestBody: a request of undeclared length is still read
// in full, and one over maxBodyBytes is still a 400 that closes the
// connection.
func TestServerChunkedRequestBody(t *testing.T) {
	srv := NewServer(Config{})
	var seenLen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenLen.Store(r.ContentLength)
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); srv.Close() })

	post := func(body string) *http.Response {
		t.Helper()
		// A MultiReader hides the length from net/http, which then sends
		// the body chunked.
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", io.MultiReader(strings.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := seenLen.Load(); got != -1 {
			t.Fatalf("server saw Content-Length %d, want -1 (chunked)", got)
		}
		return resp
	}

	resp := post(validBody)
	var out SolveResponse
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK || out.Metrics.Up <= 0 {
		t.Fatalf("chunked solve: status %d, u_p %v; want 200 with an answer", resp.StatusCode, out.Metrics.Up)
	}

	resp = post(`{"k":4,"threads":8` + strings.Repeat(" ", maxBodyBytes) + `}`)
	var e ErrorResponse
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized chunked body status = %d, want 400", resp.StatusCode)
	}
	if want := "invalid request body: http: request body too large"; e.Error.Message != want {
		t.Errorf("oversized chunked body message = %q, want %q", e.Error.Message, want)
	}
	if !resp.Close {
		t.Error("oversized chunked body left the connection open")
	}
}

// readDeclared reads a response body and checks that it travelled with an
// exact Content-Length rather than chunked, and that it is larger than the
// 2 KB net/http would have declared by itself.
func readDeclared(t *testing.T, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, body)
	}
	if len(body) <= 2048 {
		t.Fatalf("body is %d bytes, want more than 2048 to exercise the chunked threshold", len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding = %v, want none", resp.TransferEncoding)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("Content-Length = %d, want the body's %d bytes", resp.ContentLength, len(body))
	}
}

// TestServerDeclaresContentLength: answers larger than net/http's 2 KB
// pre-chunking buffer — a 32-item batch, a sweep and a plan frontier — carry
// an exact Content-Length and are not chunked.
func TestServerDeclaresContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	items := make([]string, 32)
	for i := range items {
		op := ""
		if i%2 == 1 {
			op = `,"op":"tolerance"`
		}
		items[i] = fmt.Sprintf(`{"k":4,"threads":%d,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5%s}`, 1+i/2, op)
	}
	sweep := `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5,"param":"premote","from":0.05,"to":0.9,"steps":18}`
	frontier := strings.Replace(planBody, `"target":0.95`,
		`"target":0.9,"frontier":{"param":"premote","from":0.05,"to":0.2,"steps":8}`, 1)
	for _, tc := range []struct{ name, path, body string }{
		{"batch32", "/v1/batch", `{"items":[` + strings.Join(items, ",") + `]}`},
		{"sweep", "/v1/sweep", sweep},
		{"plan-frontier", "/v1/plan", frontier},
	} {
		t.Run(tc.name, func(t *testing.T) { readDeclared(t, postJSON(t, ts.URL+tc.path, tc.body)) })
	}
}

// TestServerSheds429 gates the only worker, fills the single queue slot, and
// expects the next distinct request to come back 429 with Retry-After.
func TestServerSheds429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	var solves atomic.Int32
	gate := make(chan struct{})
	srv.Evaluator().solveHook = func(Key) {
		solves.Add(1)
		<-gate
	}
	defer close(gate)

	body := func(nt int) string {
		return fmt.Sprintf(`{"k":4,"threads":%d,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5}`, nt)
	}
	go func() { r := postJSON(t, ts.URL+"/v1/solve", body(1)); r.Body.Close() }()
	waitUntil(t, "worker occupied", func() bool { return solves.Load() == 1 })
	go func() { r := postJSON(t, ts.URL+"/v1/solve", body(2)); r.Body.Close() }()
	waitUntil(t, "queue slot filled", func() bool { return len(srv.Evaluator().tasks) == 1 })

	resp := postJSON(t, ts.URL+"/v1/solve", body(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var out ErrorResponse
	decodeBody(t, resp, &out)
	if !strings.Contains(out.Error.Message, "queue full") {
		t.Errorf("error.message = %q, want a queue-full explanation", out.Error.Message)
	}
}

// TestServerGracefulShutdown verifies the drain ordering: a gated in-flight
// request completes with 200 while http.Server.Shutdown waits, then the pool
// closes.
func TestServerGracefulShutdown(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Start()

	var solves atomic.Int32
	gate := make(chan struct{})
	srv.Evaluator().solveHook = func(Key) {
		solves.Add(1)
		<-gate
	}

	type reply struct {
		code  int
		cache string
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(validBody))
		if err != nil {
			replies <- reply{-1, err.Error()}
			return
		}
		defer resp.Body.Close()
		replies <- reply{resp.StatusCode, resp.Header.Get("X-Lattold-Cache")}
	}()
	waitUntil(t, "solve in flight", func() bool { return solves.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- ts.Config.Shutdown(context.Background()) }()
	// Shutdown must wait for the in-flight handler.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	got := <-replies
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d (%s), want 200", got.code, got.cache)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	srv.Close()
	if !srv.Evaluator().Draining() {
		t.Error("evaluator not draining after Close")
	}
}

func TestServerHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var h HealthResponse
	decodeBody(t, resp, &h)
	if h.Status != "ok" || h.UptimeSeconds < 0 {
		t.Errorf("health = %+v", h)
	}

	srv.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining status = %d, want 503", resp.StatusCode)
	}
	var h2 HealthResponse
	decodeBody(t, resp, &h2)
	if h2.Status != "draining" {
		t.Errorf("draining body status = %q", h2.Status)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Generate some traffic first: a miss, a hit, and a 400.
	postJSON(t, ts.URL+"/v1/solve", validBody).Body.Close()
	postJSON(t, ts.URL+"/v1/solve", validBody).Body.Close()
	postJSON(t, ts.URL+"/v1/solve", `{"k":0}`).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"lattold_requests_total{endpoint=\"solve\"} 3",
		"lattold_cache_hits_total 1",
		"lattold_cache_misses_total 1",
		"lattold_responses_total{class=\"2xx\"}",
		"lattold_responses_total{class=\"4xx\"}",
		"lattold_solve_seconds_bucket",
		"lattold_queue_wait_seconds_sum",
		"lattold_inflight_solves",
		"lattold_cache_hit_ratio",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestServerMetricsSolveIterations: a successful solve must land in the
// iteration-count histogram — every decade bucket renders and the count is
// positive (the solvers report their AMVA iteration counts).
func TestServerMetricsSolveIterations(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/solve", validBody).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`lattold_solve_iterations_bucket{le="1"}`,
		`lattold_solve_iterations_bucket{le="10"}`,
		`lattold_solve_iterations_bucket{le="100"}`,
		`lattold_solve_iterations_bucket{le="1000"}`,
		`lattold_solve_iterations_bucket{le="10000"}`,
		`lattold_solve_iterations_bucket{le="100000"}`,
		`lattold_solve_iterations_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	count := -1
	sum := -1
	for _, line := range strings.Split(text, "\n") {
		if _, err := fmt.Sscanf(line, "lattold_solve_iterations_count %d", &count); err == nil {
			continue
		}
		fmt.Sscanf(line, "lattold_solve_iterations_sum %d", &sum)
	}
	if count <= 0 {
		t.Errorf("lattold_solve_iterations_count = %d after a successful solve, want > 0", count)
	}
	if sum <= 0 {
		t.Errorf("lattold_solve_iterations_sum = %d after a successful solve, want > 0", sum)
	}
}

// TestServerBatch exercises POST /v1/batch end to end: a mixed item list
// returns a 200 envelope with positional outcomes — solve metrics, a
// tolerance judgment and a field-named 400 for the invalid item — and the
// batch counters land in /metrics.
func TestServerBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	tolItem := `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5,"op":"tolerance"}`
	body := `{"items":[` + validBody + `,` + tolItem + `,{"k":0}]}`
	resp := postJSON(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out BatchResponse
	decodeBody(t, resp, &out)
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}

	if r := out.Results[0]; r.Solve == nil || r.Error != nil || r.Tolerance != nil {
		t.Fatalf("item 0 = %+v, want a solve result", r)
	} else {
		if r.Cache != "miss" {
			t.Errorf("item 0 cache = %q, want miss", r.Cache)
		}
		if up := r.Solve.Metrics.Up; up <= 0 || up > 1 {
			t.Errorf("item 0 U_p = %v, want in (0,1]", up)
		}
	}
	if r := out.Results[1]; r.Tolerance == nil || r.Error != nil {
		t.Fatalf("item 1 = %+v, want a tolerance result", r)
	} else {
		if r.Tolerance.Subsystem != "network" || r.Tolerance.Mode != "zero-remote" {
			t.Errorf("item 1 defaults = %s/%s, want network/zero-remote", r.Tolerance.Subsystem, r.Tolerance.Mode)
		}
		if r.Tolerance.Zone == "" || r.Tolerance.Tol <= 0 {
			t.Errorf("item 1 tol = %v zone = %q", r.Tolerance.Tol, r.Tolerance.Zone)
		}
	}
	if r := out.Results[2]; r.Error == nil {
		t.Fatalf("item 2 = %+v, want an error", r)
	} else if r.Error.Status != http.StatusBadRequest || r.Error.Field != "k" {
		t.Errorf("item 2 error = %+v, want status 400 field k", r.Error)
	}

	// The batch shares cache lines with the single-request endpoints.
	solveResp := postJSON(t, ts.URL+"/v1/solve", validBody)
	if got := solveResp.Header.Get("X-Lattold-Cache"); got != "hit" {
		t.Errorf("follow-up solve cache = %q, want hit", got)
	}
	solveResp.Body.Close()

	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(metResp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lattold_requests_total{endpoint="batch"} 1`,
		"lattold_batch_items_total 3",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestServerBatchEnvelopeErrors: a malformed batch as a whole (no items) is a
// 400 on the envelope, not a 200 with positional errors.
func TestServerBatchEnvelopeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/batch", `{"items":[]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var out ErrorResponse
	decodeBody(t, resp, &out)
	if out.Error.Field != "items" {
		t.Errorf("field = %q, want items", out.Error.Field)
	}
}

// TestServerNonFiniteIs422: a valid configuration whose times overflow the
// solution out of float64 is answered with a 422 error body on every
// endpoint — never a 200 whose body could not be encoded — and is not cached.
// A batch reports it positionally without touching its neighbors. The
// overflowed solve must not leak into the worker's warm start either: the
// requests solved next on the same single worker still get finite answers.
func TestServerNonFiniteIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const (
		huge = `{"k":4,"threads":8,"runlength":10,"memory_time":1e308,"switch_time":10,"p_remote":0.2,"psw":0.5`
		tiny = `{"k":4,"threads":8,"runlength":1e-300,"memory_time":1e-300,"switch_time":1e-300,"p_remote":0.2,"psw":0.5`
	)
	for _, path := range []string{"/v1/solve", "/v1/tolerance"} {
		// The AMVA solvers report the overflow as non-convergence; exact MVA
		// returns non-finite metrics. Twice each: errors are not cached.
		for _, body := range []string{huge + `}`, huge + `,"solver":"full"}`, huge + `,"k":2,"threads":3,"solver":"exact"}`} {
			for try := 0; try < 2; try++ {
				resp := postJSON(t, ts.URL+path, body)
				var out ErrorResponse
				decodeBody(t, resp, &out)
				if resp.StatusCode != http.StatusUnprocessableEntity || out.Error.Status != http.StatusUnprocessableEntity || out.Error.Message == "" {
					t.Errorf("%s %s: status %d, error body %+v, want a 422 error body", path, body, resp.StatusCode, out.Error)
				}
			}
		}
		for _, body := range []string{tiny + `}`, tiny + `,"solver":"full"}`} {
			resp := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: status = %d, want 200", path, body, resp.StatusCode)
			}
			var out map[string]any
			decodeBody(t, resp, &out)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/batch", `{"items":[`+validBody+`,`+huge+`,"k":2,"threads":3,"solver":"exact"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status = %d, want 200", resp.StatusCode)
	}
	var out BatchResponse
	decodeBody(t, resp, &out)
	if len(out.Results) != 2 {
		t.Fatalf("batch: %d results, want 2", len(out.Results))
	}
	if out.Results[0].Error != nil || out.Results[0].Solve == nil {
		t.Errorf("batch item 0 = %+v, want a solve", out.Results[0])
	}
	if e := out.Results[1].Error; e == nil || e.Status != http.StatusUnprocessableEntity || !strings.Contains(e.Message, "not finite") {
		t.Errorf("batch item 1 error = %+v, want a 422 naming the non-finite value", e)
	}
}

// TestWriteJSONUnencodable: a body encoding/json rejects becomes a 500 error
// body, and the status line is not sent before the body is known to encode.
func TestWriteJSONUnencodable(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, SolveResponse{Metrics: MetricsBody{Up: math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var out ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("body %q does not decode: %v", rec.Body.String(), err)
	}
	if out.Error.Status != http.StatusInternalServerError || out.Error.Message == "" {
		t.Errorf("error body = %+v, want a 500 with a message", out.Error)
	}
	// The message carries encoding/json's own error text; clients may match
	// on it.
	if want := "serve: encoding the response: json: unsupported value: NaN"; out.Error.Message != want {
		t.Errorf("error message = %q, want %q", out.Error.Message, want)
	}
	if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
		t.Errorf("Content-Length = %q, want the error body's %s bytes", got, want)
	}
}
