// Package lattolclient is the wire client of the lattold evaluation service
// and the one definition of its wire schema (wire.go, with its codecs in
// wirejson.go and wiredecode.go).
//
// The client is a transport: PostRaw makes one HTTP exchange and returns the
// status, headers and body undecoded. It never retries and never sends a
// second copy of a request; a caller that wants a policy for failures owns
// it. Its callers are the cluster's node-to-node forward (internal/cluster),
// whose only retry policy is the serving layer's local-solve fallback, the
// multi-node conformance harness, and the repo benchmark's load senders.
package lattolclient

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
)

// maxResponseBytes bounds a response body read. The largest legitimate
// response, a batch of serve's default MaxBatchItems (1024) items, is 0.5 MB
// of solve answers to 1 MB of tolerance answers; the bound leaves room for a
// daemon configured with a larger batch cap.
const maxResponseBytes = 64 << 20

// Options configures a Client. The zero value is ready to use.
type Options struct {
	// HTTPClient issues the requests. Default: a dedicated client with no
	// global timeout (deadlines come from the caller's context).
	HTTPClient *http.Client
	// ClientID is sent as the X-Lattold-Client header, the identity the
	// server's per-client token-bucket rate limiter accounts against.
	// Empty means the server falls back to the connection's remote address.
	ClientID string
	// Retries has no effect: a Client makes exactly one exchange per call.
	//
	// Deprecated: the client no longer retries. The field remains only so
	// that callers which set it to disable retries still compile.
	Retries int
}

// RawResponse is the undecoded outcome of one exchange: its status, headers
// and body. The cluster transport relays these verbatim.
type RawResponse struct {
	Status int
	Header http.Header
	Body   []byte
}

// Client is a lattold transport. It is safe for concurrent use.
type Client struct {
	base     string
	http     *http.Client
	clientID string
}

// New builds a client for the service at base (e.g. "http://10.0.0.7:8080").
func New(base string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, http: hc, clientID: opts.ClientID}
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

// PostRaw POSTs body to path as JSON in one HTTP exchange and returns the
// response undecoded. Any HTTP status, error statuses included, comes back as
// a response with its headers (Retry-After among them) verbatim; PostRaw
// errors only when no complete response was obtained: a transport failure,
// the context's expiry, or a body that ends short or passes the size bound.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte, hdr http.Header) (*RawResponse, error) {
	fail := func(err error) (*RawResponse, error) {
		return nil, fmt.Errorf("lattolclient: POST %s%s: %w", c.base, path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.clientID != "" {
		req.Header.Set("X-Lattold-Client", c.clientID)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	data, err := ReadBody(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		return fail(fmt.Errorf("reading the response body: %w", err))
	}
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}
