package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
)

// newClusterPair boots two clustered servers on httptest listeners. Returned
// in boot order; each node's ring knows both URLs.
func newClusterPair(t *testing.T, cfg Config) (srvs [2]*Server, urls [2]string) {
	t.Helper()
	var ts [2]*httptest.Server
	for i := range srvs {
		srvs[i] = NewServer(cfg)
		ts[i] = httptest.NewServer(srvs[i].Handler())
		urls[i] = ts[i].URL
		i := i
		t.Cleanup(func() { ts[i].Close(); srvs[i].Close() })
	}
	for i := range srvs {
		cl, err := cluster.New(urls[i], []string{urls[1-i]}, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i].SetCluster(cl)
	}
	return srvs, urls
}

// bodyOwnedBy probes thread counts until it finds a solve body whose
// canonical key the given node owns.
func bodyOwnedBy(t *testing.T, cl *cluster.Cluster, owner string) string {
	t.Helper()
	for threads := 1; threads <= 64; threads++ {
		body := fmt.Sprintf(`{"k":2,"threads":%d,"runlength":10,"memory_time":8,"switch_time":2,"p_remote":0.2,"psw":0.5}`, threads)
		var req ModelRequest
		if err := decodeStrict([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		k, err := SolveKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Ring().Owner(k.hash()) == owner {
			return body
		}
	}
	t.Fatalf("no probed key owned by %s — ring badly unbalanced?", owner)
	return ""
}

func TestServerClusterForwardAndRelay(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	body := bodyOwnedBy(t, srvs[0].Cluster(), urls[1])

	// Entering through the NON-owner must forward: the relay names the owner
	// and the owner's cache accounting (not ours) records the solve.
	resp := postJSON(t, urls[0]+"/v1/solve", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if peer := resp.Header.Get(PeerHeader); peer != urls[1] {
		t.Errorf("X-Lattold-Peer = %q, want the owner %q", peer, urls[1])
	}
	if st := resp.Header.Get("X-Lattold-Cache"); st != "miss" {
		t.Errorf("first pass X-Lattold-Cache = %q, want miss (relayed from the owner)", st)
	}
	if got := srvs[0].eval.met.solves.Load(); got != 0 {
		t.Errorf("non-owner ran %d solves, want 0", got)
	}
	if got := srvs[1].eval.met.solves.Load(); got != 1 {
		t.Errorf("owner ran %d solves, want 1", got)
	}
	if got := srvs[0].eval.met.peerForwarded.Load(); got != 1 {
		t.Errorf("origin peerForwarded = %d, want 1", got)
	}
	if got := srvs[1].eval.met.peerReceived.Load(); got != 1 {
		t.Errorf("owner peerReceived = %d, want 1", got)
	}

	// Repeat through the same entry node: still forwarded, now a cache hit,
	// and no further solve anywhere.
	resp2 := postJSON(t, urls[0]+"/v1/solve", body)
	defer resp2.Body.Close()
	if st := resp2.Header.Get("X-Lattold-Cache"); st != "hit" {
		t.Errorf("repeat X-Lattold-Cache = %q, want hit", st)
	}
	if a, b := srvs[0].eval.met.solves.Load(), srvs[1].eval.met.solves.Load(); a != 0 || b != 1 {
		t.Errorf("repeat changed solve counts to (%d, %d), want (0, 1)", a, b)
	}
}

// TestServerRelayDeclaresContentLength: a relayed answer larger than
// net/http's 2 KB pre-chunking buffer (a plan frontier forwarded to the
// owner of its base model) carries the peer body's exact length and is not
// chunked.
func TestServerRelayDeclaresContentLength(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	body := strings.TrimSuffix(bodyOwnedBy(t, srvs[0].Cluster(), urls[1]), "}") +
		`,"knob":"nt","metric":"tol_network","target":0.9,"trace":true,` +
		`"frontier":{"param":"premote","from":0.05,"to":0.2,"steps":8}}`

	resp := postJSON(t, urls[0]+"/v1/plan", body)
	if peer := resp.Header.Get(PeerHeader); peer != urls[1] {
		t.Fatalf("X-Lattold-Peer = %q, want the owner %q", peer, urls[1])
	}
	readDeclared(t, resp)
}

func TestServerOwnedKeyServedLocally(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	body := bodyOwnedBy(t, srvs[0].Cluster(), urls[0])

	resp := postJSON(t, urls[0]+"/v1/solve", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if peer := resp.Header.Get(PeerHeader); peer != "" {
		t.Errorf("X-Lattold-Peer = %q on a locally-owned key, want absent", peer)
	}
	if got := srvs[0].eval.met.solves.Load(); got != 1 {
		t.Errorf("owner ran %d solves, want 1", got)
	}
}

// TestServerForwardNeverReforwarded: a request already marked as a forward is
// served locally even when this node's ring disagrees about ownership —
// membership disagreement must degrade to an extra solve, never a loop.
func TestServerForwardNeverReforwarded(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	body := bodyOwnedBy(t, srvs[0].Cluster(), urls[1])

	req, err := http.NewRequest(http.MethodPost, urls[0]+"/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "http://some-origin:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (served locally)", resp.StatusCode)
	}
	if got := srvs[0].eval.met.solves.Load(); got != 1 {
		t.Errorf("marked forward ran %d local solves, want 1 (no re-forward)", got)
	}
	if got := srvs[1].eval.met.peerReceived.Load(); got != 0 {
		t.Errorf("ring owner received %d forwards, want 0", got)
	}
}

// TestServerDepartingFallsBackLocal: once the owner leaves the ring, its 503
// on incoming forwards must flip the origin to a local solve — the answer
// still arrives, served by the non-owner.
func TestServerDepartingFallsBackLocal(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	body := bodyOwnedBy(t, srvs[0].Cluster(), urls[1])

	srvs[1].Cluster().Leave()
	resp := postJSON(t, urls[0]+"/v1/solve", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via local fallback", resp.StatusCode)
	}
	if peer := resp.Header.Get(PeerHeader); peer != "" {
		t.Errorf("X-Lattold-Peer = %q, want absent (local fallback)", peer)
	}
	if got := srvs[0].eval.met.solves.Load(); got != 1 {
		t.Errorf("origin ran %d solves, want 1 (fallback)", got)
	}
	if got := srvs[0].eval.met.peerFallback.Load(); got != 1 {
		t.Errorf("origin peerFallback = %d, want 1", got)
	}
	if got := srvs[1].eval.met.solves.Load(); got != 0 {
		t.Errorf("departed owner ran %d solves, want 0", got)
	}
}

func TestServerClusterBatchPartition(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	local := bodyOwnedBy(t, srvs[0].Cluster(), urls[0])
	remote := bodyOwnedBy(t, srvs[0].Cluster(), urls[1])

	batch := fmt.Sprintf(`{"items":[%s,%s,{"k":0,"threads":1,"runlength":1,"memory_time":1,"switch_time":1,"p_remote":0}]}`,
		local, remote)
	resp := postJSON(t, urls[0]+"/v1/batch", batch)
	var out BatchResponse
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if out.Results[0].Solve == nil || out.Results[1].Solve == nil {
		t.Fatalf("valid items missing solve payloads: %+v", out.Results)
	}
	if out.Results[2].Error == nil || out.Results[2].Error.Field != "k" {
		t.Errorf("invalid item error = %+v, want field-named k validation error", out.Results[2].Error)
	}
	if a, b := srvs[0].eval.met.solves.Load(), srvs[1].eval.met.solves.Load(); a != 1 || b != 1 {
		t.Errorf("solve split = (%d, %d), want (1, 1): each owner solves its own item", a, b)
	}
}

func TestServerRateLimit(t *testing.T) {
	srv := NewServer(Config{Workers: 1, RateLimit: 1e-9, RateBurst: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	do := func(hdr map[string]string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(validBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	id := map[string]string{"X-Lattold-Client": "limited"}
	for i := 0; i < 2; i++ {
		if resp := do(id); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status = %d, want 200 (burst admits it)", i, resp.StatusCode)
		}
	}
	resp := do(id)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	var eresp ErrorResponse
	decodeBody(t, resp, &eresp)
	if !strings.Contains(eresp.Error.Message, "limited") {
		t.Errorf("429 message %q does not name the client identity", eresp.Error.Message)
	}
	if got := srv.eval.met.shedRateLimited.Load(); got != 1 {
		t.Errorf("shedRateLimited = %d, want 1", got)
	}

	// Another identity has its own bucket.
	if resp := do(map[string]string{"X-Lattold-Client": "fresh"}); resp.StatusCode != http.StatusOK {
		t.Errorf("fresh client status = %d, want 200", resp.StatusCode)
	}
	// Peer forwards are exempt: same exhausted identity, forward header set.
	if resp := do(map[string]string{"X-Lattold-Client": "limited", cluster.ForwardHeader: "http://peer:1"}); resp.StatusCode != http.StatusOK {
		t.Errorf("forwarded request status = %d, want 200 (exempt from rate limiting)", resp.StatusCode)
	}
	// GETs are exempt.
	if resp, err := http.Get(ts.URL + "/metrics"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics = %v, %v, want 200 (exempt)", resp, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestServerClusterMetricsExposed asserts the ring gauges and peer counters
// render on /metrics.
func TestServerClusterMetricsExposed(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	body := bodyOwnedBy(t, srvs[0].Cluster(), urls[1])
	postJSON(t, urls[0]+"/v1/solve", body).Body.Close()

	resp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lattold_ring_nodes 2",
		"lattold_ring_departing 0",
		`lattold_peer_requests_total{outcome="forwarded"} 1`,
		`lattold_peer_requests_total{outcome="fallback_local"} 0`,
		`lattold_peer_requests_total{outcome="received"} 0`,
		"lattold_forward_seconds_count 1",
		`lattold_shed_total{reason="rate_limited"} 0`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestClientAgainstCluster drives the wire client end to end through a
// non-owner node: the decoded answer and cache annotations must be the
// owner's.
func TestClientAgainstCluster(t *testing.T) {
	srvs, urls := newClusterPair(t, Config{Workers: 1})
	body := bodyOwnedBy(t, srvs[0].Cluster(), urls[1])

	c := lattolclient.New(urls[0], lattolclient.Options{})
	for _, wantCache := range []string{"miss", "hit"} {
		raw, err := c.PostRaw(context.Background(), "/v1/solve", []byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		if raw.Status != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", raw.Status, raw.Body)
		}
		var out lattolclient.SolveResponse
		if err := json.Unmarshal(raw.Body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Metrics.Up <= 0 || out.Metrics.Up > 1 {
			t.Errorf("U_p = %v, want in (0,1]", out.Metrics.Up)
		}
		if got := raw.Header.Get("X-Lattold-Cache"); got != wantCache {
			t.Errorf("X-Lattold-Cache = %q, want %s", got, wantCache)
		}
	}
}
