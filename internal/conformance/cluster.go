package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
	"lattol/internal/serve"
	"lattol/internal/sweep"
)

// ClusterNode is one running node of an in-process test cluster: a real HTTP
// listener on a loopback port, a serve.Server behind it, and (when clustered)
// its ring state.
type ClusterNode struct {
	URL string
	Srv *serve.Server
	Cl  *cluster.Cluster

	lis net.Listener
	hs  *http.Server
}

// TestCluster is an in-process ring of lattold nodes for conformance and
// benchmark use: real listeners, real forwards, one process.
type TestCluster struct {
	Nodes []*ClusterNode
}

// StartCluster boots n nodes on loopback ports, each configured with the
// full membership (a single node, n == 1, runs unclustered — the reference
// configuration). Callers must Close.
func StartCluster(n int, cfg serve.Config) (*TestCluster, error) {
	tc := &TestCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tc.Close()
			return nil, fmt.Errorf("cluster harness: listen: %w", err)
		}
		urls[i] = "http://" + lis.Addr().String()
		tc.Nodes = append(tc.Nodes, &ClusterNode{URL: urls[i], lis: lis})
	}
	for i, node := range tc.Nodes {
		node.Srv = serve.NewServer(cfg)
		if n > 1 {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			cl, err := cluster.New(node.URL, peers, cluster.Options{})
			if err != nil {
				tc.Close()
				return nil, err
			}
			node.Cl = cl
			node.Srv.SetCluster(cl)
		}
		node.hs = &http.Server{Handler: node.Srv.Handler()}
		go func(hs *http.Server, lis net.Listener) { _ = hs.Serve(lis) }(node.hs, node.lis)
	}
	return tc, nil
}

// Close stops every node: listeners first, then the evaluator pools.
func (tc *TestCluster) Close() {
	for _, node := range tc.Nodes {
		if node.hs != nil {
			_ = node.hs.Close()
		} else if node.lis != nil {
			_ = node.lis.Close()
		}
	}
	for _, node := range tc.Nodes {
		if node.Srv != nil {
			node.Srv.Close()
		}
	}
}

// ScrapeCounter reads one plaintext counter (exact line prefix match,
// including any label set) from a node's /metrics.
func ScrapeCounter(url, name string) (uint64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
	}
	return 0, fmt.Errorf("metric %q not found at %s", name, url)
}

// sumCounter sums one counter across every node of the cluster.
func (tc *TestCluster) sumCounter(name string) (uint64, error) {
	var sum uint64
	for _, node := range tc.Nodes {
		v, err := ScrapeCounter(node.URL, name)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// ClusterOptions configures CheckCluster. The zero value selects the
// defaults.
type ClusterOptions struct {
	// Nodes is the ring size. Default 3.
	Nodes int
	// Trials is the number of randomized requests driven through the ring.
	// Default 24.
	Trials int
	// Seed is the base seed; each trial derives its own RNG. Default 1.
	Seed int64
	// Band is the relative agreement band between the cluster's first-pass
	// answers and the single reference node's (iteration counts excluded —
	// they are warm-start history, not model output). Default 1e-9.
	Band float64
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Trials <= 0 {
		o.Trials = 24
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Band <= 0 {
		o.Band = 1e-9
	}
	return o
}

// clusterTrial is one request of a CheckCluster run: the wire body and the
// path it posts to, plus the first-pass answer for the repeat comparison.
type clusterTrial struct {
	path string
	body []byte

	firstBody []byte
}

// randomClusterTrial draws one randomized request over the conformance
// configuration domain: mostly solves, every third trial a tolerance
// evaluation, so both routed operation families are exercised.
func randomClusterTrial(rng *rand.Rand, trial int) (clusterTrial, error) {
	cfg := RandomConfig(rng)
	model := serve.ModelRequest{
		K:             cfg.K,
		Threads:       cfg.Threads,
		Runlength:     cfg.Runlength,
		ContextSwitch: cfg.ContextSwitch,
		MemoryTime:    cfg.MemoryTime,
		SwitchTime:    cfg.SwitchTime,
		PRemote:       cfg.PRemote,
		Psw:           cfg.Psw,
		MemoryPorts:   cfg.MemoryPorts,
		SwitchPorts:   cfg.SwitchPorts,
	}
	var req any = model
	path := "/v1/solve"
	if trial%3 == 2 {
		path = "/v1/tolerance"
		sub := "network"
		if rng.Intn(2) == 0 {
			sub = "memory"
		}
		req = serve.ToleranceRequest{ModelRequest: model, Subsystem: sub}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return clusterTrial{}, err
	}
	return clusterTrial{path: path, body: body}, nil
}

// compareJSON walks two decoded JSON values and demands agreement: numbers
// within band relative (except any field named "iterations" — iteration
// counts are a function of warm-start history, which legitimately differs
// between a cluster node and the reference), everything else exactly.
func compareJSON(path string, a, b any, band float64) error {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return violatef("cluster-answer", "%s: object shape differs: %v vs %v", path, a, b)
		}
		for k, v := range av {
			if k == "iterations" {
				continue
			}
			if err := compareJSON(path+"."+k, v, bv[k], band); err != nil {
				return err
			}
		}
		return nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return violatef("cluster-answer", "%s: array shape differs", path)
		}
		for i := range av {
			if err := compareJSON(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], band); err != nil {
				return err
			}
		}
		return nil
	case float64:
		bv, ok := b.(float64)
		if !ok || relErr(av, bv) > band {
			return violatef("cluster-answer", "%s: %v vs reference %v (band %g)", path, a, b, band)
		}
		return nil
	default:
		if a != b {
			return violatef("cluster-answer", "%s: %v vs reference %v", path, a, b)
		}
		return nil
	}
}

// violateCount asserts an exact counter value.
func violateCount(check, what string, got, want uint64) error {
	if got != want {
		return violatef(check, "%s: %d, want %d", what, got, want)
	}
	return nil
}

// CheckCluster boots an opts.Nodes-node ring next to a single unclustered
// reference node and certifies that clustering is invisible in the answers
// and does the promised work-sharing in the accounting:
//
//   - First pass: every randomized request enters the ring through a
//     round-robin node; the answer must agree with the reference node's
//     field-wise within Band (iteration counts excluded — warm-start
//     history).
//   - Cluster-wide singleflight: after the first pass, the SUM of
//     lattold_solves_total over the ring equals the reference node's count —
//     each canonical key was solved exactly once somewhere, never once per
//     node.
//   - Repeat pass: each request re-enters through a DIFFERENT node. The
//     response body must be byte-identical to the first pass (the owner
//     serves both from one cache entry) and carry X-Lattold-Cache: hit.
//   - Zero-solve repeats: after the repeat pass, the cluster-wide solve sum
//     is unchanged — repeated traffic reports solves:0 regardless of entry
//     node.
func CheckCluster(ctx context.Context, opts ClusterOptions) error {
	opts = opts.withDefaults()
	cfg := serve.Config{Workers: 2}

	ref, err := StartCluster(1, cfg)
	if err != nil {
		return err
	}
	defer ref.Close()
	clu, err := StartCluster(opts.Nodes, cfg)
	if err != nil {
		return err
	}
	defer clu.Close()

	refClient := lattolclient.New(ref.Nodes[0].URL, lattolclient.Options{})
	clients := make([]*lattolclient.Client, opts.Nodes)
	for i, node := range clu.Nodes {
		clients[i] = lattolclient.New(node.URL, lattolclient.Options{ClientID: "conformance"})
	}

	trials := make([]clusterTrial, opts.Trials)
	for i := range trials {
		rng := rand.New(rand.NewSource(sweep.DeriveSeed(opts.Seed, int64(i), 93)))
		if trials[i], err = randomClusterTrial(rng, i); err != nil {
			return err
		}
	}

	// First pass: round-robin entry, field-wise agreement with the reference.
	for i := range trials {
		t := &trials[i]
		resp, err := clients[i%opts.Nodes].PostRaw(ctx, t.path, t.body, nil)
		if err != nil {
			return fmt.Errorf("cluster trial %d: %w", i, err)
		}
		refResp, err := refClient.PostRaw(ctx, t.path, t.body, nil)
		if err != nil {
			return fmt.Errorf("cluster trial %d (reference): %w", i, err)
		}
		if resp.Status != http.StatusOK || refResp.Status != http.StatusOK {
			return violatef("cluster-status", "trial %d: cluster %d, reference %d on %s %s",
				i, resp.Status, refResp.Status, t.path, t.body)
		}
		var got, want any
		if err := json.Unmarshal(resp.Body, &got); err != nil {
			return fmt.Errorf("cluster trial %d: malformed body: %w", i, err)
		}
		if err := json.Unmarshal(refResp.Body, &want); err != nil {
			return fmt.Errorf("cluster trial %d: malformed reference body: %w", i, err)
		}
		if err := compareJSON(t.path, got, want, opts.Band); err != nil {
			return fmt.Errorf("trial %d (entry node %d): %w", i, i%opts.Nodes, err)
		}
		t.firstBody = resp.Body
	}

	// Cluster-wide singleflight: the ring as a whole solved exactly what the
	// single node solved.
	refSolves, err := ScrapeCounter(ref.Nodes[0].URL, "lattold_solves_total")
	if err != nil {
		return err
	}
	cluSolves, err := clu.sumCounter("lattold_solves_total")
	if err != nil {
		return err
	}
	if err := violateCount("cluster-singleflight", "cluster-wide lattold_solves_total after first pass", cluSolves, refSolves); err != nil {
		return err
	}

	// Repeat pass through different entry nodes: byte-identical cache hits.
	for i := range trials {
		t := &trials[i]
		entry := (i + 1) % opts.Nodes
		resp, err := clients[entry].PostRaw(ctx, t.path, t.body, nil)
		if err != nil {
			return fmt.Errorf("cluster repeat %d: %w", i, err)
		}
		if resp.Status != http.StatusOK {
			return violatef("cluster-repeat", "trial %d repeat: status %d", i, resp.Status)
		}
		if st := resp.Header.Get("X-Lattold-Cache"); st != "hit" {
			return violatef("cluster-repeat", "trial %d repeat via node %d: X-Lattold-Cache %q, want hit", i, entry, st)
		}
		if !bytes.Equal(resp.Body, t.firstBody) {
			return violatef("cluster-repeat", "trial %d repeat via node %d: body differs from first pass:\n%s\nvs\n%s",
				i, entry, resp.Body, t.firstBody)
		}
	}

	// Zero-solve repeats: no node solved anything in the repeat pass.
	cluAfter, err := clu.sumCounter("lattold_solves_total")
	if err != nil {
		return err
	}
	return violateCount("cluster-repeat-solves", "cluster-wide lattold_solves_total after repeat pass", cluAfter, cluSolves)
}
