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
	"fmt"
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

// TestGoldenError400 pins the validation-error wire body and asserts it
// names the offending field by its wire name, with a message.
func TestGoldenError400(t *testing.T) {
	hs, _ := startServer(t, serve.Config{Workers: 1})
	c := lattolclient.New(hs.URL, lattolclient.Options{})

	req := validModel()
	req.Threads = -3
	raw, err := c.PostRaw(context.Background(), "/v1/solve", mustJSON(t, req), nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusBadRequest {
		t.Fatalf("raw status = %d, want 400", raw.Status)
	}
	var e lattolclient.ErrorResponse
	if err := json.Unmarshal(raw.Body, &e); err != nil {
		t.Fatalf("error body %q does not decode: %v", raw.Body, err)
	}
	if e.Error.Field != "threads" {
		t.Errorf("Field = %q, want %q (the wire name, verbatim)", e.Error.Field, "threads")
	}
	if e.Error.Message == "" {
		t.Error("Message empty, want the server's validation message")
	}
	checkGolden(t, "error_400.json", raw.Body)
}

// TestGoldenError429 pins the rate-limited wire body and asserts the server
// sends a Retry-After hint with it.
func TestGoldenError429(t *testing.T) {
	hs, _ := startServer(t, serve.Config{Workers: 1, RateLimit: 1e-9, RateBurst: 1})
	c := lattolclient.New(hs.URL, lattolclient.Options{ClientID: "golden"})

	// The bucket holds exactly one token and refills at a negligible rate:
	// the second request is deterministically shed.
	body := mustJSON(t, validModel())
	raw, err := c.PostRaw(context.Background(), "/v1/solve", body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", raw.Status)
	}
	raw, err = c.PostRaw(context.Background(), "/v1/solve", body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Status != http.StatusTooManyRequests {
		t.Fatalf("raw status = %d, want 429", raw.Status)
	}
	if ra, err := strconv.Atoi(raw.Header.Get("Retry-After")); err != nil || ra <= 0 {
		t.Errorf("Retry-After = %q, want a positive number of seconds", raw.Header.Get("Retry-After"))
	}
	checkGolden(t, "error_429.json", raw.Body)
}

// TestGoldenError503 pins the draining wire body and its Retry-After hint.
func TestGoldenError503(t *testing.T) {
	hs, srv := startServer(t, serve.Config{Workers: 1})
	srv.Close() // draining: every POST now answers 503

	c := lattolclient.New(hs.URL, lattolclient.Options{})
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
}

// TestPostRawIsOneExchange: every call reaches the server exactly once,
// whatever the answer. Overload and gateway statuses come back verbatim with
// their Retry-After, and a connection dropped without an answer is an error,
// not a second attempt.
func TestPostRawIsOneExchange(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int    // 0: drop the connection without answering
		retryAfter string // "" sends no Retry-After
	}{
		{name: "400", status: http.StatusBadRequest},
		{name: "429", status: http.StatusTooManyRequests, retryAfter: "1"},
		{name: "502", status: http.StatusBadGateway},
		{name: "503", status: http.StatusServiceUnavailable, retryAfter: "1"},
		{name: "dropped connection"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"error":{"status":%d,"message":"no"}}`, tc.status)
			var calls atomic.Int64
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				if tc.status == 0 {
					conn, _, err := w.(http.Hijacker).Hijack()
					if err != nil {
						t.Error(err)
						return
					}
					conn.Close()
					return
				}
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(body))
			}))
			defer hs.Close()

			c := lattolclient.New(hs.URL, lattolclient.Options{})
			raw, err := c.PostRaw(context.Background(), "/v1/solve", []byte(`{}`), nil)
			if n := calls.Load(); n != 1 {
				t.Errorf("handler calls = %d, want 1", n)
			}
			if tc.status == 0 {
				if err == nil {
					t.Fatalf("PostRaw = %+v, want an error for a dropped connection", raw)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if raw.Status != tc.status {
				t.Errorf("status = %d, want %d", raw.Status, tc.status)
			}
			if ra := raw.Header.Get("Retry-After"); ra != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", ra, tc.retryAfter)
			}
			if string(raw.Body) != body {
				t.Errorf("body = %q, want %q", raw.Body, body)
			}
		})
	}
}

// TestStressPostRaw calls PostRaw from many goroutines against a jittery
// server: the race detector's view of one shared Client, and a count that
// pins one exchange per call. LATTOL_STRESS_OPS raises the budget in CI.
func TestStressPostRaw(t *testing.T) {
	ops := envInt("LATTOL_STRESS_OPS", 60)
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every third exchange is slow, so calls overlap unevenly.
		if calls.Add(1)%3 == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer hs.Close()

	c := lattolclient.New(hs.URL, lattolclient.Options{})
	var wg sync.WaitGroup
	var returned atomic.Int64
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops/8+1; i++ {
				raw, err := c.PostRaw(context.Background(), "/stress", nil, nil)
				if err != nil {
					errs <- err
					return
				}
				if raw.Status != http.StatusOK {
					errs <- fmt.Errorf("status %d, want 200", raw.Status)
					return
				}
				returned.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n, r := calls.Load(), returned.Load(); n != r {
		t.Errorf("handler calls = %d for %d returned PostRaw calls, want one each", n, r)
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
