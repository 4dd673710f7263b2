package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
)

// The traced run records spans around the calls the benchmark makes into
// each layer, using only public hooks:
//
//	client.call       around lattolclient.Client.PostRaw (sender)
//	client.roundtrip  a RoundTripper in Options.HTTPClient, ending when the
//	                  response body is closed, i.e. after its last byte
//	serve.http        an http.Handler around serve.Server.Handler()
//	cluster.forward   a cluster.Transport from Options.NewTransport
//
// The trace id and the parent span travel in the traceHeader request header
// across each HTTP hop (client → node, node → owner node) and in the request
// context within a node.

const (
	traceHeader = "X-Bench-Trace"
	// traceEvery samples one request in traceEvery for tracing.
	traceEvery = 16
)

// span is one recorded layer crossing. Times are nanoseconds since the
// recorder's base.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span of a run in memory.
type recorder struct {
	base time.Time
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanRef names the span a nested layer's span belongs under.
type spanRef struct{ trace, id uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

func (ref spanRef) header() string {
	return strconv.FormatUint(ref.trace, 16) + "-" + strconv.FormatUint(ref.id, 16)
}

func parseSpanRef(h string) (spanRef, bool) {
	t, p, ok := strings.Cut(h, "-")
	if !ok {
		return spanRef{}, false
	}
	trace, err1 := strconv.ParseUint(t, 16, 64)
	parent, err2 := strconv.ParseUint(p, 16, 64)
	return spanRef{trace, parent}, err1 == nil && err2 == nil
}

// tracedRoundTripper records client.roundtrip for requests whose context
// carries a span, and passes the span on in traceHeader.
type tracedRoundTripper struct {
	rec   *recorder
	inner http.RoundTripper
}

func (t tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFrom(req.Context())
	if !ok {
		return t.inner.RoundTrip(req)
	}
	s := span{Trace: parent.trace, ID: t.rec.newID(), Parent: parent.id, Name: "client.roundtrip", Start: t.rec.now()}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, spanRef{s.Trace, s.ID}.header())
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// spanBody ends a roundtrip span when the caller closes the body, which
// PostRaw does right after reading its last byte.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedHandler records serve.http for requests carrying traceHeader and
// hands the span to the node's forward transport through the context.
func tracedHandler(rec *recorder, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanRef(r.Header.Get(traceHeader))
		if !ok {
			inner.ServeHTTP(w, r)
			return
		}
		s := span{Trace: parent.trace, ID: rec.newID(), Parent: parent.id, Name: "serve.http", Start: rec.now()}
		inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), spanRef{s.Trace, s.ID})))
		s.End = rec.now()
		rec.add(s)
	})
}

// tracedTransport records cluster.forward around one peer forward and copies
// the span into the forwarded headers, so the owner's serve.http nests
// under it.
type tracedTransport struct {
	rec   *recorder
	inner cluster.Transport
}

func (t tracedTransport) PostRaw(ctx context.Context, path string, body []byte, hdr http.Header) (*lattolclient.RawResponse, error) {
	parent, ok := spanFrom(ctx)
	if !ok {
		return t.inner.PostRaw(ctx, path, body, hdr)
	}
	s := span{Trace: parent.trace, ID: t.rec.newID(), Parent: parent.id, Name: "cluster.forward", Start: t.rec.now()}
	hdr = hdr.Clone()
	hdr.Set(traceHeader, spanRef{s.Trace, s.ID}.header())
	res, err := t.inner.PostRaw(ctx, path, body, hdr)
	s.End = t.rec.now()
	t.rec.add(s)
	return res, err
}

// tracedPeerTransport builds the per-peer transport lattold's cluster uses
// by default — a lattolclient.Client with retries off — wrapped in a
// tracedTransport.
func tracedPeerTransport(rec *recorder, self string) func(peer string) cluster.Transport {
	return func(peer string) cluster.Transport {
		return tracedTransport{rec: rec, inner: lattolclient.New(peer, lattolclient.Options{
			Retries:  -1,
			ClientID: "peer:" + self,
		})}
	}
}

// spanStats gathers the spans of one name, in microseconds.
type spanStats struct {
	total      []float64          // durations, sorted
	self       []float64          // durations minus the time children cover, sorted
	selfByTree map[uint64]float64 // self time summed per trace
}

// analyze computes every span's self time and groups the spans by name.
func analyze(spans []span) map[string]*spanStats {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{selfByTree: map[uint64]float64{}}
			out[s.Name] = st
		}
		self := float64(s.End-s.Start-coveredWithin(s.Start, s.End, children[s.ID])) / 1e3
		st.total = append(st.total, float64(s.End-s.Start)/1e3)
		st.self = append(st.self, self)
		st.selfByTree[s.Trace] += self
	}
	for _, st := range out {
		sort.Float64s(st.total)
		sort.Float64s(st.self)
	}
	return out
}

// spanOrder lists span names outside-in, the order of the self-time table.
var spanOrder = []string{"client.call", "client.roundtrip", "serve.http", "cluster.forward"}

// writeSelfTable prints the per-layer self-time table of a traced run.
func writeSelfTable(w io.Writer, stats map[string]*spanStats) {
	fmt.Fprintf(w, "%-18s %8s %12s %12s %12s %12s\n", "span", "count", "self_p50_us", "self_p99_us", "self_mean_us", "total_p50_us")
	for _, name := range spanOrder {
		st := stats[name]
		if st == nil {
			continue
		}
		fmt.Fprintf(w, "%-18s %8d %12.2f %12.2f %12.2f %12.2f\n", name, len(st.self),
			percentile(st.self, 50), percentile(st.self, 99), mean(st.self), percentile(st.total, 50))
	}
}

// writeSpans writes spans as JSON lines, sorted by trace then start.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Trace != spans[j].Trace {
			return spans[i].Trace < spans[j].Trace
		}
		return spans[i].Start < spans[j].Start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
