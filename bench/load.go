package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	lattolclient "lattol/internal/client"
)

// checkEvery samples one window response in checkEvery for the answer
// check, on top of the first window response for each popular key.
const checkEvery = 64

// sample is one window response kept for the answer check.
type sample struct {
	index int64 // stream index
	body  []byte
}

// sender is one closed-loop client: one lattolclient with one keep-alive
// connection, sending its next request the moment the previous one is
// answered.
type sender struct {
	client *lattolclient.Client
	tr     *http.Transport

	// Window results.
	lat      []float64 // µs, per successful request
	traced   []bool    // lat[i] belongs to a traced request
	attempts int
	failed   int
	samples  []sample
	errs     []string // the first few failures, for the report
}

func newSender(base string, rec *recorder) *sender {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = tr
	if rec != nil {
		rt = tracedRoundTripper{rec: rec, inner: tr}
	}
	return &sender{
		tr: tr,
		client: lattolclient.New(base, lattolclient.Options{
			HTTPClient: &http.Client{Transport: rt},
			Retries:    -1, // a failure is counted, never hidden by a retry
		}),
	}
}

// loadgen drives a workload's stream from its senders.
type loadgen struct {
	w       *workload
	s       *stream
	senders []*sender
	rec     *recorder // nil in the untraced run
	next    atomic.Int64
	// seen marks the popular keys already sampled in the window, sized for
	// the largest key set.
	seen []atomic.Bool
}

func newLoadgen(w *workload, s *stream, ns *nodeSet, senders int, rec *recorder) *loadgen {
	lg := &loadgen{w: w, s: s, rec: rec, seen: make([]atomic.Bool, clusterKeys)}
	entries := len(ns.nodes)
	if entries > 1 {
		// The last node of a ring only receives forwards.
		entries--
	}
	for i := 0; i < senders; i++ {
		lg.senders = append(lg.senders, newSender(ns.nodes[i%entries].url, rec))
	}
	return lg
}

func (lg *loadgen) close() {
	for _, s := range lg.senders {
		s.tr.CloseIdleConnections()
	}
}

// prewarm solves the workload's popular keys once each, spread over the
// senders. Any failure aborts the run: the window would not measure what the
// workload claims.
func (lg *loadgen) prewarm(ctx context.Context) error {
	n := lg.w.prewarm
	var wg sync.WaitGroup
	errs := make([]error, len(lg.senders))
	for si, snd := range lg.senders {
		wg.Add(1)
		go func(si int, snd *sender) {
			defer wg.Done()
			// Descending popularity rank: the most popular keys are the
			// most recently used when the window opens.
			for j := n - 1 - si; j >= 0; j -= len(lg.senders) {
				req := lg.w.warmKey(lg.s, j)
				res, err := snd.client.PostRaw(ctx, req.kind.path(), req.body, nil)
				if err != nil {
					errs[si] = fmt.Errorf("prewarming key %d: %w", j, err)
					return
				}
				if res.Status != http.StatusOK {
					errs[si] = fmt.Errorf("prewarming key %d: HTTP %d: %s", j, res.Status, res.Body)
					return
				}
			}
		}(si, snd)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phase runs the closed loop until the deadline. Only the window records
// latencies, failures, samples and traces; warm-up traffic just warms.
func (lg *loadgen) phase(ctx context.Context, until time.Time, window bool) {
	var wg sync.WaitGroup
	for _, snd := range lg.senders {
		wg.Add(1)
		go func(snd *sender) {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				lg.send(ctx, snd, window)
			}
		}(snd)
	}
	wg.Wait()
}

// send generates, sends and records one request. The body is built before
// the timer starts; the timer covers PostRaw, which returns after the last
// response byte.
func (lg *loadgen) send(ctx context.Context, snd *sender, window bool) {
	i := lg.next.Add(1) - 1
	req := lg.w.next(lg.s, i)
	callCtx := ctx
	traced := window && lg.rec != nil && i%traceEvery == 0
	var call span
	if traced {
		call = span{Trace: uint64(i) + 1, ID: lg.rec.newID(), Name: "client.call"}
		callCtx = withSpan(ctx, spanRef{call.Trace, call.ID})
		call.Start = lg.rec.now()
	}
	start := time.Now()
	res, err := snd.client.PostRaw(callCtx, req.kind.path(), req.body, nil)
	elapsed := time.Since(start)
	if traced {
		call.End = lg.rec.now()
		lg.rec.add(call)
	}
	if !window {
		return
	}
	snd.attempts++
	switch {
	case err != nil:
		snd.fail(fmt.Sprintf("request %d %s: %v", i, req.kind.path(), err))
		return
	case res.Status != http.StatusOK:
		snd.fail(fmt.Sprintf("request %d %s: HTTP %d: %s", i, req.kind.path(), res.Status, res.Body))
		return
	}
	snd.lat = append(snd.lat, float64(elapsed)/1e3)
	snd.traced = append(snd.traced, traced)
	if i%checkEvery == 0 || (req.hot >= 0 && !lg.seen[req.hot].Swap(true)) {
		snd.samples = append(snd.samples, sample{index: i, body: res.Body})
	}
}

func (snd *sender) fail(msg string) {
	snd.failed++
	if len(snd.errs) < 5 {
		snd.errs = append(snd.errs, msg)
	}
}
