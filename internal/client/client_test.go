package lattolclient_test

// Tests run the client against a real serve.Server (an external test package
// may import both sides of the serve→cluster→client chain), so the golden
// error bodies below are the server's actual words — if the wire format of a
// 400/429/503 drifts, these fail before any consumer notices.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/serve"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

var updateGolden = os.Getenv("LATTOL_UPDATE_GOLDEN") != ""

// checkGolden compares a response body against testdata/<name>, rewriting
// the file under LATTOL_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with LATTOL_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("wire body drifted from golden %s:\ngot:\n%s\nwant:\n%s", path, body, want)
	}
}

func startServer(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.NewServer(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return hs, srv
}

func validModel() lattolclient.ModelRequest {
	return lattolclient.ModelRequest{K: 2, Threads: 4, Runlength: 10, MemoryTime: 8, SwitchTime: 2, PRemote: 0.2, Psw: 0.5}
}

// TestGoldenError400 pins the validation-error wire body and asserts the
// server's field name and message survive into *APIError verbatim.
func TestGoldenError400(t *testing.T) {
	hs, _ := startServer(t, serve.Config{Workers: 1})
	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: -1})

	req := validModel()
	req.Threads = -3
	_, err := c.Solve(context.Background(), req)
	var apiErr *lattolclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Solve error = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest {
		t.Errorf("Status = %d, want 400", apiErr.Status)
	}
	if apiErr.Field != "threads" {
		t.Errorf("Field = %q, want %q (the wire name, verbatim)", apiErr.Field, "threads")
	}
	if apiErr.Message == "" {
		t.Error("Message empty, want the server's validation message verbatim")
	}

	raw, err := c.PostRaw(context.Background(), "/v1/solve", mustJSON(t, req), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "error_400.json", raw.Body)
}

// TestGoldenError429 pins the rate-limited wire body and asserts the client
// surfaces the Retry-After hint.
func TestGoldenError429(t *testing.T) {
	hs, _ := startServer(t, serve.Config{Workers: 1, RateLimit: 1e-9, RateBurst: 1})
	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: -1, ClientID: "golden"})

	// The bucket holds exactly one token and refills at a negligible rate:
	// the second request is deterministically shed.
	if _, err := c.Solve(context.Background(), validModel()); err != nil {
		t.Fatalf("first request: %v", err)
	}
	_, err := c.Solve(context.Background(), validModel())
	var apiErr *lattolclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Solve error = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Errorf("Status = %d, want 429", apiErr.Status)
	}
	if apiErr.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want the server's hint surfaced", apiErr.RetryAfter)
	}

	raw, err := c.PostRaw(context.Background(), "/v1/solve", mustJSON(t, validModel()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusTooManyRequests {
		t.Fatalf("raw status = %d, want 429", raw.Status)
	}
	checkGolden(t, "error_429.json", raw.Body)
}

// TestGoldenError503 pins the draining wire body and asserts the retry loop
// honors Retry-After on 503 — the backoff never undercuts the server's hint.
func TestGoldenError503(t *testing.T) {
	hs, srv := startServer(t, serve.Config{Workers: 1})
	srv.Close() // draining: every POST now answers 503

	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: -1})
	raw, err := c.PostRaw(context.Background(), "/v1/solve", mustJSON(t, validModel()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusServiceUnavailable {
		t.Fatalf("raw status = %d, want 503", raw.Status)
	}
	if ra := raw.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
	checkGolden(t, "error_503.json", raw.Body)

	// Retrying client: each backoff must be at least the server's 1s hint
	// (observed through the injected sleep, so no test time is spent).
	rc := lattolclient.New(hs.URL, lattolclient.Options{Retries: 2, BaseBackoff: time.Millisecond})
	var slept []time.Duration
	rc.SetSleep(func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	})
	_, err = rc.Solve(context.Background(), validModel())
	var apiErr *lattolclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Solve error = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter != time.Second {
		t.Errorf("got status %d retry-after %v, want 503 with 1s", apiErr.Status, apiErr.RetryAfter)
	}
	if len(slept) != 2 {
		t.Fatalf("retry sleeps = %d, want 2", len(slept))
	}
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("backoff %d = %v undercuts the server's Retry-After of 1s", i, d)
		}
	}
}

// TestRetryBackoffJitter drives the retry loop against a flaky handler and
// checks the exponential-ceiling-with-jitter shape of the chosen sleeps.
func TestRetryBackoffJitter(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","uptime_seconds":1}`))
	}))
	defer hs.Close()

	base := 100 * time.Millisecond
	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: 2, BaseBackoff: base, Seed: 42})
	var slept []time.Duration
	c.SetSleep(func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	})
	raw, err := c.PostRaw(context.Background(), "/v1/anything", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusOK {
		t.Fatalf("final status = %d, want 200 after retries", raw.Status)
	}
	if calls.Load() != 3 {
		t.Fatalf("handler calls = %d, want 3 (1 try + 2 retries)", calls.Load())
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(slept))
	}
	for i, d := range slept {
		ceil := base << i
		if d < ceil/2 || d > ceil {
			t.Errorf("backoff %d = %v, want jittered in [%v, %v]", i, d, ceil/2, ceil)
		}
	}
}

// TestNoRetryOn400 asserts deterministic client errors are not retried.
func TestNoRetryOn400(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":{"status":400,"message":"bad"}}`, http.StatusBadRequest)
	}))
	defer hs.Close()
	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: 3})
	raw, err := c.PostRaw(context.Background(), "/v1/solve", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusBadRequest || calls.Load() != 1 {
		t.Errorf("status %d after %d calls, want one un-retried 400", raw.Status, calls.Load())
	}
}

// TestHedgedRequest primes the latency window with fast responses, then
// stalls the primary: the hedge must fire and win. The primary is picked by
// identity (it lacks the attempt header), not by arrival order — the hedge
// may reach the server first.
func TestHedgedRequest(t *testing.T) {
	stall := make(chan struct{})
	primaryIn := make(chan struct{})
	var stalled atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hedged" {
			if r.Header.Get(lattolclient.AttemptHeader) == "" {
				// The primary blocks until the test releases it.
				if stalled.Add(1) == 1 {
					close(primaryIn)
				}
				<-stall
			} else {
				// The hedge answers once the primary is stalled, so the
				// assertions below never race the primary's arrival.
				<-primaryIn
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer hs.Close()

	c := lattolclient.New(hs.URL, lattolclient.Options{
		Retries:         -1,
		HedgeQuantile:   0.9,
		HedgeMinSamples: 1,
	})
	if _, err := c.PostRaw(context.Background(), "/prime", nil, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	raw, err := c.PostRaw(ctx, "/hedged", nil, nil)
	close(stall)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the hedge", raw.Status)
	}
	if stalled.Load() != 1 {
		t.Fatalf("stalled calls = %d, want exactly the primary", stalled.Load())
	}
	hedges, wins := c.Stats()
	if hedges != 1 || wins != 1 {
		t.Errorf("hedge stats = (%d launched, %d won), want (1, 1)", hedges, wins)
	}
}

// TestStressHedgeCancel hammers a jittery server with hedging armed from
// many goroutines — the race detector's view of the hedge bookkeeping and
// loser-cancellation paths. LATTOL_STRESS_OPS raises the budget in CI.
func TestStressHedgeCancel(t *testing.T) {
	ops := envInt("LATTOL_STRESS_OPS", 60)
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every third exchange is slow enough to trip the hedge timer.
		if calls.Add(1)%3 == 0 {
			select {
			case <-time.After(20 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer hs.Close()

	c := lattolclient.New(hs.URL, lattolclient.Options{
		Retries:         -1,
		HedgeQuantile:   0.5,
		HedgeMinSamples: 4,
	})
	var wg sync.WaitGroup
	errs := make(chan error, ops)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops/8+1; i++ {
				if _, err := c.PostRaw(context.Background(), "/stress", nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestReadBody pins the body read policy both sides of the wire share: a
// declared length is one exact allocation, a declared length over the limit
// is an error before anything is read, a body shorter than its declared
// length is an error, and an undeclared body is read to its end unless it
// passes the limit — never truncated to it.
func TestReadBody(t *testing.T) {
	const limit = 8
	for _, tc := range []struct {
		name     string
		body     string
		n        int64
		wantErr  error // matched with errors.Is; nil for success
		tooLarge bool
	}{
		{name: "declared", body: "12345", n: 5},
		{name: "declared at the limit", body: "12345678", n: 8},
		{name: "declared empty", body: "", n: 0},
		{name: "declared over the limit", body: "123456789", n: 9, tooLarge: true},
		{name: "shorter than declared", body: "123", n: 5, wantErr: io.ErrUnexpectedEOF},
		{name: "empty but declared", body: "", n: 5, wantErr: io.EOF},
		{name: "undeclared", body: "12345", n: -1},
		{name: "undeclared at the limit", body: "12345678", n: -1},
		{name: "undeclared over the limit", body: "123456789", n: -1, tooLarge: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := strings.NewReader(tc.body)
			got, err := lattolclient.ReadBody(r, tc.n, limit)
			var mbe *http.MaxBytesError
			switch {
			case tc.tooLarge:
				if !errors.As(err, &mbe) || mbe.Limit != limit {
					t.Fatalf("err = %v, want *http.MaxBytesError{Limit: %d}", err, limit)
				}
				if tc.n > limit && r.Len() != len(tc.body) {
					t.Errorf("read %d bytes of a body declared over the limit, want 0", len(tc.body)-r.Len())
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case err != nil:
				t.Fatal(err)
			case string(got) != tc.body:
				t.Fatalf("body = %q, want %q", got, tc.body)
			case tc.n >= 0 && cap(got) != len(got):
				t.Errorf("cap = %d for a declared %d-byte body, want an exact buffer", cap(got), len(got))
			}
		})
	}

	body := bytes.Repeat([]byte("x"), 24<<10)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		if _, err := lattolclient.ReadBody(r, int64(len(body)), 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("declared 24 KB read made %v allocations, want 1", allocs)
	}
}

// TestClientShortBodyIsError: an answer that ends before its declared
// Content-Length is an error, not a truncated body.
func TestClientShortBodyIsError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"short\":true}")
		_ = buf.Flush()
	}))
	defer hs.Close()

	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: -1})
	raw, err := c.PostRaw(context.Background(), "/short", nil, nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("PostRaw = (%+v, %v), want an error wrapping io.ErrUnexpectedEOF", raw, err)
	}
}

// TestClientReadsChunkedBody: an answer of undeclared length, sent chunked,
// is read in full.
func TestClientReadsChunkedBody(t *testing.T) {
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 64)
	const chunks = 40
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < chunks; i++ {
			_, _ = w.Write(chunk)
			w.(http.Flusher).Flush()
		}
	}))
	defer hs.Close()

	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: -1})
	raw, err := c.PostRaw(context.Background(), "/chunked", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl := raw.Header.Get("Content-Length"); cl != "" {
		t.Fatalf("answer declared Content-Length %s, want a chunked answer", cl)
	}
	if want := bytes.Repeat(chunk, chunks); !bytes.Equal(raw.Body, want) {
		t.Errorf("body is %d bytes, want the %d sent", len(raw.Body), len(want))
	}
}

// TestClientReusesConnection: large answers read at their declared length
// leave the connection reusable — net/http reuses it only if the body
// reader saw io.EOF before Close — so 50 batch calls travel over one TCP
// connection.
func TestClientReusesConnection(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	hs := httptest.NewUnstartedServer(srv.Handler())
	var conns atomic.Int64
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(func() { hs.Close(); srv.Close() })

	items := make([]lattolclient.BatchItemRequest, 32)
	for i := range items {
		items[i].ModelRequest = validModel()
		items[i].Threads = 1 + i
	}
	body := mustJSON(t, lattolclient.BatchRequest{Items: items})
	c := lattolclient.New(hs.URL, lattolclient.Options{Retries: -1})
	for i := 0; i < 50; i++ {
		raw, err := c.PostRaw(context.Background(), "/v1/batch", body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if raw.Status != http.StatusOK || len(raw.Body) <= 2048 {
			t.Fatalf("call %d: status %d with %d bytes, want 200 with more than 2 KB", i, raw.Status, len(raw.Body))
		}
		if cl := raw.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw.Body)) {
			t.Fatalf("call %d: Content-Length %q for a %d-byte body", i, cl, len(raw.Body))
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("50 calls opened %d TCP connections, want 1", n)
	}
}
