// Package lattolclient is the Go client for the lattold evaluation service:
// a thin typed wrapper over the HTTP/JSON wire protocol with the reliability
// mechanics a caller of a replicated service wants and should not have to
// rewrite —
//
//   - Retries with exponential backoff and full jitter on transport errors
//     and retryable statuses (429, 502, 503, 504), honoring the server's
//     Retry-After header when it names a longer wait.
//   - Hedged requests: once enough latencies are observed, a request that
//     outlives a high quantile of recent latencies launches a second,
//     identical attempt; the first response wins and the loser is canceled.
//     Every lattold endpoint is a pure function of its body, so duplicated
//     requests are safe by construction (at worst the second one hits the
//     result cache).
//   - Structured errors: every non-2xx response is surfaced as *APIError
//     carrying the server's status, message and offending wire field
//     verbatim, so callers can programmatically tell a malformed request
//     (which field?) from overload (back off) from an unservable model.
//
// The same client is the node-to-node transport of internal/cluster: peers
// forward requests to the consistent-hash owner through PostRaw, with the
// retry and hedging machinery turned off (the serving layer has its own
// local-solve fallback, which beats a second network round trip).
package lattolclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxResponseBytes bounds a response body read. The largest legitimate
// response, a batch of serve's default MaxBatchItems (1024) items, is 0.5 MB
// of solve answers to 1 MB of tolerance answers; the bound leaves room for a
// daemon configured with a larger batch cap.
const maxResponseBytes = 64 << 20

// AttemptHeader marks a hedge attempt on the wire: the hedge carries
// "X-Lattold-Attempt: hedge", the primary carries no such header, so servers
// and tests can tell the two identical requests apart.
const AttemptHeader = "X-Lattold-Attempt"

// Options configures a Client. The zero value selects sensible defaults.
type Options struct {
	// HTTPClient issues the requests. Default: a dedicated client with no
	// global timeout (deadlines come from the caller's context).
	HTTPClient *http.Client
	// Retries is the number of re-attempts after the first try on transport
	// errors and retryable statuses. 0 selects the default (2); negative
	// disables retries.
	Retries int
	// BaseBackoff is the first retry's backoff ceiling; each further retry
	// doubles it, capped at MaxBackoff, and the actual sleep is drawn
	// uniformly from [ceiling/2, ceiling] (full jitter halves synchronized
	// retry storms without ever sleeping near zero). Defaults 50ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeQuantile, in (0,1), arms hedged requests: when an attempt outlives
	// this quantile of the recent-latency window, a second identical attempt
	// is launched and the first response wins. 0 disables hedging.
	HedgeQuantile float64
	// HedgeMinSamples is the number of observed latencies required before a
	// hedge may fire (the quantile of an empty window is noise). Default 16.
	HedgeMinSamples int
	// ClientID is sent as the X-Lattold-Client header, the identity the
	// server's per-client token-bucket rate limiter accounts against.
	// Empty means the server falls back to the connection's remote address.
	ClientID string
	// Seed seeds the jitter RNG; 0 seeds from the clock. Tests pin it.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 16
	}
	return o
}

// APIError is a non-2xx response decoded from the server's error envelope.
// Message and Field are the server's own words, verbatim: for a 400 the
// Field names the offending wire field exactly as the server's validation
// layer reported it.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error message, verbatim.
	Message string
	// Field is the wire name of the offending request field ("" when the
	// error is not a validation failure).
	Field string
	// RetryAfter is the server's Retry-After hint (0 when absent), already
	// honored by the retry loop; it is surfaced so callers that schedule
	// their own retries can honor it too.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("lattold: HTTP %d: %s (field %q)", e.Status, e.Message, e.Field)
	}
	return fmt.Sprintf("lattold: HTTP %d: %s", e.Status, e.Message)
}

// RawResponse is the undecoded outcome of one exchange: the final status,
// headers and body after the retry policy ran. The cluster transport relays
// these verbatim.
type RawResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// retryAfter parses the response's Retry-After header (seconds form).
func (r *RawResponse) retryAfter() time.Duration {
	if r == nil {
		return 0
	}
	s := r.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(s, 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// Client is a lattold API client. It is safe for concurrent use.
type Client struct {
	base string
	opts Options
	lat  *latencyWindow

	mu  sync.Mutex
	rng *rand.Rand

	// hedges counts hedge attempts launched; hedgeWins counts requests whose
	// hedge answered first. Exposed through Stats for tests and metrics.
	hedges    uint64
	hedgeWins uint64

	// sleep is the interruptible backoff sleep, a field so tests can observe
	// the waits the retry policy chooses without actually waiting.
	sleep func(context.Context, time.Duration) error
}

// New builds a client for the service at base (e.g. "http://10.0.0.7:8080").
func New(base string, opts Options) *Client {
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{
		base:  base,
		opts:  opts,
		lat:   newLatencyWindow(128),
		rng:   rand.New(rand.NewSource(seed)),
		sleep: sleepCtx,
	}
}

// Base returns the base URL the client talks to.
func (c *Client) Base() string { return c.base }

// Stats reports how many hedge attempts the client has launched and how many
// of them answered before the primary.
func (c *Client) Stats() (hedges, hedgeWins uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hedges, c.hedgeWins
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether a status merits another attempt: overload (429),
// and the transient 5xx family a draining or restarting node emits.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the sleep before re-attempt n (1-based): exponential
// ceiling with full jitter, floored by the server's Retry-After when that is
// longer — the server knows its own drain and refill schedule better than
// the client's guess.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	ceil := c.opts.BaseBackoff << (attempt - 1)
	if ceil > c.opts.MaxBackoff || ceil <= 0 {
		ceil = c.opts.MaxBackoff
	}
	c.mu.Lock()
	d := ceil/2 + time.Duration(c.rng.Int63n(int64(ceil/2)+1))
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// ReadBody reads an HTTP body of declared length n of at most limit bytes;
// n is -1 when the length is undeclared, as http.Request.ContentLength and
// http.Response.ContentLength report it. A declared body is read into one
// buffer of exactly n bytes, so a large answer costs one allocation rather
// than io.ReadAll's doubling copies; a declared length over limit is an error
// before anything is allocated or read; a body that ends before its declared
// length is an error, never truncated data. An undeclared (chunked) body is
// read to its end and is an error once it passes limit. An over-limit body
// reports *http.MaxBytesError, as http.MaxBytesReader does.
//
// Reading exactly n bytes of a net/http body also reads its end: the
// transport returns io.EOF with the last bytes of a Content-Length body, which
// is what lets it reuse the connection (bodyEOFSignal in net/http).
func ReadBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	if n < 0 {
		data, err := io.ReadAll(io.LimitReader(r, limit+1))
		if err != nil {
			return nil, err
		}
		if int64(len(data)) > limit {
			return nil, &http.MaxBytesError{Limit: limit}
		}
		return data, nil
	}
	data := make([]byte, n)
	if got, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("body ended after %d of its declared %d bytes: %w", got, n, err)
	}
	return data, nil
}

// once issues a single HTTP exchange and reads the body.
func (c *Client) once(ctx context.Context, path string, body []byte, hdr http.Header) (*RawResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.opts.ClientID != "" {
		req.Header.Set("X-Lattold-Client", c.opts.ClientID)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	start := time.Now()
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := ReadBody(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("reading the response body: %w", err)
	}
	c.lat.record(time.Since(start))
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

// hedgeDelay returns the armed hedge delay, or false when hedging is off or
// the latency window is still too thin to name a quantile.
func (c *Client) hedgeDelay() (time.Duration, bool) {
	q := c.opts.HedgeQuantile
	if q <= 0 || q >= 1 {
		return 0, false
	}
	if c.lat.size() < c.opts.HedgeMinSamples {
		return 0, false
	}
	return c.lat.quantile(q)
}

// attempt is one logical try: a single exchange, shadowed by a hedge when
// the primary outlives the armed latency quantile. The first completed
// response wins; the other attempt's context is canceled on return.
func (c *Client) attempt(ctx context.Context, path string, body []byte, hdr http.Header) (*RawResponse, error) {
	delay, ok := c.hedgeDelay()
	if !ok {
		return c.once(ctx, path, body, hdr)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res    *RawResponse
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2)
	launch := func(hedged bool) {
		h := hdr
		if hedged {
			h = hdr.Clone()
			if h == nil {
				h = http.Header{}
			}
			h.Set(AttemptHeader, "hedge")
		}
		res, err := c.once(hctx, path, body, h)
		ch <- outcome{res, err, hedged}
	}
	go launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	inFlight := 1
	hedgeLaunched := false
	var firstErr error
	for {
		select {
		case o := <-ch:
			inFlight--
			if o.err == nil {
				if o.hedged {
					c.mu.Lock()
					c.hedgeWins++
					c.mu.Unlock()
				}
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inFlight == 0 {
				// Nothing left in flight (the hedge either already failed too
				// or was never launched); no point waiting for the timer.
				return nil, firstErr
			}
		case <-timer.C:
			if !hedgeLaunched {
				hedgeLaunched = true
				inFlight++
				c.mu.Lock()
				c.hedges++
				c.mu.Unlock()
				go launch(true)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// PostRaw runs the full request policy — attempts, hedging, backoff — and
// returns the final response undecoded. HTTP error statuses are returned as
// responses, not errors: PostRaw only errors when no response was obtained
// at all (transport failure or context expiry on every attempt). The typed
// methods decode error statuses into *APIError; the cluster transport relays
// them verbatim.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte, hdr http.Header) (*RawResponse, error) {
	var res *RawResponse
	var err error
	for attempt := 0; ; attempt++ {
		res, err = c.attempt(ctx, path, body, hdr)
		if err == nil && !retryable(res.Status) {
			return res, nil
		}
		if attempt >= c.opts.Retries {
			break
		}
		if serr := c.sleep(ctx, c.backoff(attempt+1, res.retryAfter())); serr != nil {
			// Context expired during backoff; the last observed outcome is
			// more informative than "context canceled" alone when it exists.
			if res != nil {
				return res, nil
			}
			return nil, serr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("lattolclient: POST %s%s: %w", c.base, path, err)
	}
	return res, nil
}

// decode maps a raw response onto dst (2xx) or into *APIError (everything
// else). The server's message and field survive verbatim.
func decode(res *RawResponse, dst any) error {
	if res.Status/100 != 2 {
		var e ErrorResponse
		apiErr := &APIError{Status: res.Status, RetryAfter: res.retryAfter()}
		if err := json.Unmarshal(res.Body, &e); err == nil && e.Error.Message != "" {
			apiErr.Message = e.Error.Message
			apiErr.Field = e.Error.Field
		} else {
			apiErr.Message = string(bytes.TrimSpace(res.Body))
		}
		return apiErr
	}
	if dst == nil {
		return nil
	}
	if err := json.Unmarshal(res.Body, dst); err != nil {
		return fmt.Errorf("lattolclient: malformed response body: %w", err)
	}
	return nil
}

func (c *Client) post(ctx context.Context, path string, req, dst any) (*RawResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	res, err := c.PostRaw(ctx, path, body, nil)
	if err != nil {
		return nil, err
	}
	return res, decode(res, dst)
}

// Solve evaluates one model configuration.
func (c *Client) Solve(ctx context.Context, req ModelRequest) (*SolveResponse, error) {
	var out SolveResponse
	res, err := c.post(ctx, "/v1/solve", req, &out)
	if err != nil {
		return nil, err
	}
	out.Cache = res.Header.Get("X-Lattold-Cache")
	return &out, nil
}

// Tolerance evaluates one tolerance index.
func (c *Client) Tolerance(ctx context.Context, req ToleranceRequest) (*ToleranceResponse, error) {
	var out ToleranceResponse
	res, err := c.post(ctx, "/v1/tolerance", req, &out)
	if err != nil {
		return nil, err
	}
	out.Cache = res.Header.Get("X-Lattold-Cache")
	return &out, nil
}

// Batch evaluates a positional list of items in one round trip. The envelope
// error covers a malformed batch as a whole; per-item failures are
// positional in the response.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var out BatchResponse
	if _, err := c.post(ctx, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Plan answers one inverse (capacity-planning) question in scalar mode.
func (c *Client) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	var out PlanResponse
	if _, err := c.post(ctx, "/v1/plan", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
