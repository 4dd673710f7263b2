package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
)

// This file is the routing policy over internal/cluster's transport
// mechanics: which requests consult the ring, when a non-owner forwards vs.
// solves locally, and how forwarded answers are relayed. The invariants:
//
//   - A request bearing the forward header is served locally, always — the
//     origin's ring said we own it, and re-forwarding on a disagreeing ring
//     would loop. A departing node answers forwards with 503 instead, which
//     flips the origin to its local-solve fallback.
//   - Forward failures (transport error, peer overloaded or draining) fall
//     back to a local solve: the cluster degrades to N independent caches,
//     never to an outage.
//   - Forwarded bodies and relayed responses are verbatim bytes, so the
//     answer a client sees is bit-identical whichever node it entered
//     through once the owner has it cached.

// PeerHeader names the node that actually answered a relayed response.
const PeerHeader = "X-Lattold-Peer"

// SetCluster installs the node's cluster state; nil (or never calling it)
// keeps the server single-node. Install before serving traffic: the handlers
// read it without synchronization.
func (s *Server) SetCluster(c *cluster.Cluster) {
	s.cl = c
	if c != nil {
		s.eval.met.ringSize = func() int { return c.Size() }
		s.eval.met.ringDeparting = func() bool { return c.Departing() }
	}
}

// Cluster returns the installed cluster state (nil when single-node).
func (s *Server) Cluster() *cluster.Cluster { return s.cl }

// incomingForward classifies a peer-forwarded request. For a forward it
// counts the receipt and, when this node is departing, answers 503 so the
// origin falls back to its local solver (done=true means the response was
// written).
func (s *Server) incomingForward(w http.ResponseWriter, r *http.Request) (fwd, done bool) {
	if r.Header.Get(cluster.ForwardHeader) == "" {
		return false, false
	}
	s.eval.met.peerReceived.Add(1)
	if s.cl.Departing() {
		s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return true, true
	}
	return true, false
}

// routeKeyed consults the ring for a single-key request (solve, tolerance,
// plan): when another node owns the key's hash, the raw body is forwarded
// there and the answer relayed verbatim. A true return means the response
// was written; false means the caller serves locally — because this node
// owns the key, the request is an incoming forward, there is no cluster, or
// the forward failed and local solving is the fallback.
func (s *Server) routeKeyed(w http.ResponseWriter, r *http.Request, h uint64, body []byte) bool {
	if s.cl == nil {
		return false
	}
	if fwd, done := s.incomingForward(w, r); fwd {
		return done
	}
	owner, self := s.cl.Owner(h)
	if self {
		return false
	}
	start := time.Now()
	resp, err := s.cl.Forward(r.Context(), owner, r.URL.Path, body)
	if err != nil || resp.Status == http.StatusTooManyRequests || resp.Status == http.StatusServiceUnavailable {
		// The owner is unreachable, overloaded or draining; solve locally.
		// Other statuses (400, 422, ...) are properties of the request itself
		// — a local attempt would fail identically, so they relay below.
		s.eval.met.peerFallback.Add(1)
		return false
	}
	s.eval.met.peerForwarded.Add(1)
	s.eval.met.forwardLatency.observe(time.Since(start))
	s.relay(w, owner, resp)
	return true
}

// relay writes a peer's response verbatim, naming the answering node and
// declaring the body's length, as writeJSON does.
func (s *Server) relay(w http.ResponseWriter, owner string, resp *lattolclient.RawResponse) {
	s.eval.met.countStatus(resp.Status)
	for _, h := range []string{"Content-Type", "X-Lattold-Cache", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(PeerHeader, owner)
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// routeBatch consults the ring for a batch: items are partitioned by owner,
// each remote part travels to its owner as one sub-batch, and the positional
// results are scattered back into place. Items this node owns — plus any
// whose forward failed — are evaluated locally. A true return means the
// response was written.
func (s *Server) routeBatch(w http.ResponseWriter, r *http.Request, req BatchRequest) bool {
	if s.cl == nil {
		return false
	}
	if fwd, done := s.incomingForward(w, r); fwd {
		return done
	}
	if len(req.Items) == 0 || len(req.Items) > s.eval.cfg.MaxBatchItems {
		return false // the local path reports the envelope error
	}
	// Partition by owner. Invalid items (key error) stay local so their
	// positional validation errors are produced by the usual path.
	type part struct {
		idx   []int
		items []BatchItemRequest
	}
	var parts map[string]*part
	remote := 0
	for i := range req.Items {
		k, err := itemKey(&req.Items[i])
		if err != nil {
			continue
		}
		owner, self := s.cl.Owner(k.hash())
		if self {
			continue
		}
		if parts == nil {
			parts = make(map[string]*part)
		}
		p := parts[owner]
		if p == nil {
			p = &part{}
			parts[owner] = p
		}
		p.idx = append(p.idx, i)
		p.items = append(p.items, req.Items[i])
		remote++
	}
	if remote == 0 {
		return false
	}
	results := make([]*BatchItemResponse, len(req.Items))
	for owner, p := range parts {
		sub, err := json.Marshal(BatchRequest{Items: p.items})
		if err != nil {
			continue // items stay local
		}
		start := time.Now()
		resp, ferr := s.cl.Forward(r.Context(), owner, "/v1/batch", sub)
		if ferr != nil || resp.Status != http.StatusOK {
			s.eval.met.peerFallback.Add(1)
			continue
		}
		// Peers answer in AppendJSON's canonical form, which the fast path
		// decodes; encoding/json is the fallback for anything else.
		var br BatchResponse
		decoded := br.ParseWire(resp.Body) || json.Unmarshal(resp.Body, &br) == nil
		if !decoded || len(br.Results) != len(p.items) {
			s.eval.met.peerFallback.Add(1)
			continue
		}
		s.eval.met.peerForwarded.Add(1)
		s.eval.met.forwardLatency.observe(time.Since(start))
		for j := range p.idx {
			res := br.Results[j]
			results[p.idx[j]] = &res
		}
	}
	// Evaluate everything not answered by a peer as one local sub-batch.
	var localIdx []int
	var localItems []BatchItemRequest
	for i := range req.Items {
		if results[i] == nil {
			localIdx = append(localIdx, i)
			localItems = append(localItems, req.Items[i])
		}
	}
	if len(localItems) > 0 {
		ctx, cancel := s.reqContext(r)
		defer cancel()
		out := make([]BatchOutcome, len(localItems))
		if err := s.eval.Batch(ctx, localItems, out); err != nil {
			s.writeError(w, statusFor(err), err)
			return true
		}
		for j, i := range localIdx {
			res := batchItemResponse(localItems[j], out[j])
			results[i] = &res
		}
	}
	resp := BatchResponse{Results: make([]BatchItemResponse, len(req.Items))}
	for i := range results {
		resp.Results[i] = *results[i]
	}
	s.writeJSON(w, http.StatusOK, resp)
	return true
}
