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
//
// Which code makes the exchange depends on Options.HTTPClient:
//
//   - nil (the cluster's forwards, the conformance harness): the Client
//     speaks HTTP/1.1 itself, on the caller's goroutine, over its own pool
//     of keep-alive connections. It writes the request line, headers and
//     body with one flush and reads the answer with http.ReadResponse and
//     ReadBody. It speaks only what lattold serves: http:// base URLs (no
//     TLS), keep-alive connections, answers framed by Content-Length or
//     chunked (or, without either, ended by the peer's close). A connection
//     goes back to the pool only after a complete answer that did not say
//     Connection: close, with the caller's context still live. There is no
//     retry here either: a pooled connection the peer has closed since its
//     last use fails the one call that takes it, with an error.
//   - set (the benchmark's senders and their tracing RoundTripper): every
//     exchange goes through that client's net/http transport.
package lattolclient

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxResponseBytes bounds a response body read. The largest legitimate
// response, a batch of serve's default MaxBatchItems (1024) items, is 0.5 MB
// of solve answers to 1 MB of tolerance answers; the bound leaves room for a
// daemon configured with a larger batch cap.
const maxResponseBytes = 64 << 20

// maxIdleConns caps the connections one Client keeps open between calls. A
// call holds its connection for one exchange, so a client needs as many
// connections as it has calls in flight. 64 lets steady traffic from a few
// dozen concurrent requests to one peer run on reused connections, where
// net/http's default of 2 idle connections per host redials as soon as three
// calls overlap; and it bounds what a burst leaves behind at 64 idle file
// descriptors here and 64 idle connection goroutines at the peer.
const maxIdleConns = 64

// Options configures a Client. The zero value is ready to use.
type Options struct {
	// HTTPClient, when set, makes every exchange through net/http with this
	// client. Nil selects the Client's own HTTP/1.1 exchange over its own
	// connection pool (see the package doc), which needs an http:// base
	// URL. Neither has a global timeout: deadlines come from the caller's
	// context.
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
	http     *http.Client // nil: the Client's own exchange below
	clientID string

	// The Client's own exchange: where it dials, the Host header it sends,
	// the base URL's path (prefixed to every request path), or why the base
	// URL cannot be used.
	addr, host, prefix string
	baseErr            error
	dialer             net.Dialer

	mu        sync.Mutex
	idle      []*conn // most recently used last
	closeIdle bool    // close connections as they go idle, until the next call
}

// conn is one pooled HTTP/1.1 connection.
type conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// New builds a client for the service at base (e.g. "http://10.0.0.7:8080").
func New(base string, opts Options) *Client {
	c := &Client{base: base, http: opts.HTTPClient, clientID: opts.ClientID}
	if c.http == nil {
		c.baseErr = c.parseBase()
	}
	return c
}

// parseBase derives the dial address, Host header and path prefix of the
// Client's own exchange from its base URL.
func (c *Client) parseBase() error {
	u, err := url.Parse(c.base)
	if err != nil {
		return err
	}
	if u.Scheme != "http" {
		return fmt.Errorf("base URL scheme %q: only http:// is supported (lattold serves no TLS)", u.Scheme)
	}
	if u.Host == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" {
		return fmt.Errorf("base URL %q: want http://host[:port][/path]", c.base)
	}
	c.addr, c.host, c.prefix = u.Host, u.Host, u.EscapedPath()
	if u.Port() == "" {
		c.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return nil
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
// On the Client's own exchange, a path or header that would corrupt the
// request (a CR or LF in a header, say) is also an error, before anything is
// written.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte, hdr http.Header) (*RawResponse, error) {
	var raw *RawResponse
	var err error
	if c.http != nil {
		raw, err = c.postHTTP(ctx, path, body, hdr)
	} else {
		raw, err = c.post(ctx, path, body, hdr)
	}
	if err != nil {
		return nil, fmt.Errorf("lattolclient: POST %s%s: %w", c.base, path, err)
	}
	return raw, nil
}

// postHTTP makes the exchange through Options.HTTPClient.
func (c *Client) postHTTP(ctx context.Context, path string, body []byte, hdr http.Header) (*RawResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
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
		return nil, err
	}
	defer resp.Body.Close()
	data, err := ReadBody(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("reading the response body: %w", err)
	}
	return &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

// aLongTimeAgo is a deadline in the past: setting it on a connection makes
// its blocked reads and writes return at once.
var aLongTimeAgo = time.Unix(1, 0)

// post is the Client's own exchange on a pooled connection. The context's
// deadline becomes the connection's; its cancellation sets a deadline in the
// past, which ends the exchange.
func (c *Client) post(ctx context.Context, path string, body []byte, hdr http.Header) (*RawResponse, error) {
	if c.baseErr != nil {
		return nil, c.baseErr
	}
	if err := c.checkRequest(path, hdr); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, err := c.get(ctx)
	if err != nil {
		return nil, err
	}
	deadline, _ := ctx.Deadline()
	if err := cn.nc.SetDeadline(deadline); err != nil {
		cn.nc.Close()
		return nil, err
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = cn.nc.SetDeadline(aLongTimeAgo) })
	}
	raw, reusable, err := c.roundTrip(cn, path, body, hdr)
	if !stop() {
		// The context ended during the exchange: whatever was read, the
		// connection's deadline is now in the past.
		reusable = false
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = fmt.Errorf("%w: %w", ctxErr, err)
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("%w: %w", context.DeadlineExceeded, err)
		}
	}
	if reusable {
		c.put(cn)
	} else {
		cn.nc.Close()
	}
	return raw, err
}

// roundTrip writes one request on cn and reads its answer. It reports
// whether cn may carry another exchange: the answer was read to its end, did
// not close the connection, and left no stray bytes behind it.
func (c *Client) roundTrip(cn *conn, path string, body []byte, hdr http.Header) (*RawResponse, bool, error) {
	c.writeRequest(cn.bw, path, body, hdr)
	if err := cn.bw.Flush(); err != nil {
		return nil, false, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode < 200 {
		return nil, false, fmt.Errorf("interim answer %q is not supported", resp.Status)
	}
	data, err := ReadBody(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		return nil, false, fmt.Errorf("reading the response body: %w", err)
	}
	raw := &RawResponse{Status: resp.StatusCode, Header: resp.Header, Body: data}
	return raw, !resp.Close && cn.br.Buffered() == 0, nil
}

// writeRequest buffers the request: the headers PostRaw always sends (Host,
// Content-Type, Content-Length, X-Lattold-Client), then hdr's. As on the
// net/http path, hdr's Content-Type and X-Lattold-Client replace the
// Client's.
func (c *Client) writeRequest(bw *bufio.Writer, path string, body []byte, hdr http.Header) {
	bw.WriteString("POST ")
	bw.WriteString(c.prefix)
	bw.WriteString(path)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(c.host)
	bw.WriteString("\r\nContent-Length: ")
	var num [20]byte
	bw.Write(strconv.AppendInt(num[:0], int64(len(body)), 10))
	bw.WriteString("\r\n")
	if _, ok := hdr["Content-Type"]; !ok {
		bw.WriteString("Content-Type: application/json\r\n")
	}
	if _, ok := hdr["X-Lattold-Client"]; !ok && c.clientID != "" {
		writeHeader(bw, "X-Lattold-Client", c.clientID)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			writeHeader(bw, k, v)
		}
	}
	bw.WriteString("\r\n")
	bw.Write(body)
}

func writeHeader(bw *bufio.Writer, k, v string) {
	bw.WriteString(k)
	bw.WriteString(": ")
	bw.WriteString(v)
	bw.WriteString("\r\n")
}

// checkRequest refuses a path or header that cannot be written verbatim
// into an HTTP/1.1 request, and the framing headers the Client writes itself.
func (c *Client) checkRequest(path string, hdr http.Header) error {
	for i := 0; i < len(path); i++ {
		if path[i] <= ' ' || path[i] == 0x7f {
			return fmt.Errorf("request path %q has a space or control byte", path)
		}
	}
	if !validHeaderValue(c.clientID) {
		return fmt.Errorf("client ID %q has a control byte", c.clientID)
	}
	for k, vs := range hdr {
		switch k {
		case "Host", "Content-Length", "Transfer-Encoding", "Trailer":
			return fmt.Errorf("header %q is written by the client", k)
		}
		if !validHeaderName(k) {
			return fmt.Errorf("header name %q is not an HTTP token", k)
		}
		for _, v := range vs {
			if !validHeaderValue(v) {
				return fmt.Errorf("header %s value %q has a control byte", k, v)
			}
		}
	}
	return nil
}

// validHeaderName reports whether k is a non-empty HTTP token (RFC 9110 §5.6.2).
func validHeaderName(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		b := k[i]
		if b <= ' ' || b >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, b) >= 0 {
			return false
		}
	}
	return true
}

// validHeaderValue reports whether v has no control byte but tab: in
// particular no CR or LF, which would end the header early.
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; (b < ' ' && b != '\t') || b == 0x7f {
			return false
		}
	}
	return true
}

// get takes the most recently used idle connection, or dials a new one.
func (c *Client) get(ctx context.Context) (*conn, error) {
	c.mu.Lock()
	c.closeIdle = false
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	nc, err := c.dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// put returns a connection to the pool, or closes it when the pool is full
// or CloseIdleConnections has been called since the last call began.
func (c *Client) put(cn *conn) {
	c.mu.Lock()
	if c.closeIdle || len(c.idle) >= maxIdleConns {
		c.mu.Unlock()
		cn.nc.Close()
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
}

// CloseIdleConnections closes the connections the Client keeps between
// calls, as http.Client.CloseIdleConnections does; with Options.HTTPClient
// set, it calls that client's. Connections in use are not interrupted: they
// close when their call ends, unless another call begins first.
func (c *Client) CloseIdleConnections() {
	if c.http != nil {
		c.http.CloseIdleConnections()
		return
	}
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closeIdle = true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}
