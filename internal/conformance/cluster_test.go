package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
	"lattol/internal/serve"
)

// TestCheckCluster runs the multi-node conformance gate: a seeded in-process
// 3-node ring must be indistinguishable from a single node in its answers
// and do cluster-wide singleflight in its accounting. The nightly workflow
// raises LATTOL_CONFORMANCE_CLUSTER_TRIALS for a deeper run.
func TestCheckCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster conformance run skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	opts := ClusterOptions{
		Trials: envInt("LATTOL_CONFORMANCE_CLUSTER_TRIALS", 24),
		Seed:   int64(envInt("LATTOL_CONFORMANCE_SEED", 1)),
	}
	if err := CheckCluster(ctx, opts); err != nil {
		t.Fatal(err)
	}
}

// TestCheckClusterFiveNodes varies the ring size: the invariants are
// membership-count independent.
func TestCheckClusterFiveNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster conformance run skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := CheckCluster(ctx, ClusterOptions{Nodes: 5, Trials: 12, Seed: 7}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterStaleConnections injects the fault a pooled forward connection
// can meet: the owner node drops every client connection mid-traffic
// (httptest.Server.CloseClientConnections), so the entry node's pooled
// connections to it are dead. A forward that takes a dead connection fails
// once, with no retry, and the entry node solves locally instead. Every
// client answer is still a 200 that agrees with a single healthy node within
// 1e-9; the fallback counter grows by at most the connections the entry node
// held (one per concurrent sender, under the pool's cap); and later forwards
// succeed on fresh connections.
func TestClusterStaleConnections(t *testing.T) {
	const senders, perSender, keys = 4, 32, 16
	cfg := serve.Config{Workers: 2}
	ref, err := StartCluster(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	var ownerConns atomic.Int64
	var srvs [2]*serve.Server
	var hs [2]*httptest.Server
	for i := range srvs {
		srvs[i] = serve.NewServer(cfg)
		hs[i] = httptest.NewUnstartedServer(srvs[i].Handler())
		hs[i].Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if i == 1 && st == http.StateNew {
				ownerConns.Add(1)
			}
		}
		hs[i].Start()
		defer srvs[i].Close()
		defer hs[i].Close()
	}
	for i := range srvs {
		cl, err := cluster.New(hs[i].URL, []string{hs[1-i].URL}, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i].SetCluster(cl)
	}
	entry, owner := hs[0], hs[1]

	// Solve requests whose keys the owner holds, each with the reference
	// node's answer.
	ctx := context.Background()
	refClient := lattolclient.New(ref.Nodes[0].URL, lattolclient.Options{})
	var bodies [][]byte
	var want []any
	for rng := rand.New(rand.NewSource(11)); len(bodies) < keys; {
		c := RandomConfig(rng)
		m := serve.ModelRequest{
			K: c.K, Threads: c.Threads, Runlength: c.Runlength, ContextSwitch: c.ContextSwitch,
			MemoryTime: c.MemoryTime, SwitchTime: c.SwitchTime, PRemote: c.PRemote, Psw: c.Psw,
			MemoryPorts: c.MemoryPorts, SwitchPorts: c.SwitchPorts,
		}
		k, err := serve.SolveKey(m)
		if err != nil {
			t.Fatal(err)
		}
		if node, _ := srvs[0].Cluster().Owner(k.Hash()); node != owner.URL {
			continue
		}
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := refClient.PostRaw(ctx, "/v1/solve", body, nil)
		if err != nil || resp.Status != http.StatusOK {
			t.Fatalf("reference solve = (%+v, %v), want a 200", resp, err)
		}
		var w any
		if err := json.Unmarshal(resp.Body, &w); err != nil {
			t.Fatal(err)
		}
		bodies, want = append(bodies, body), append(want, w)
	}

	client := lattolclient.New(entry.URL, lattolclient.Options{})
	check := func(j int) error {
		resp, err := client.PostRaw(ctx, "/v1/solve", bodies[j], nil)
		if err != nil {
			return err
		}
		if resp.Status != http.StatusOK {
			return fmt.Errorf("key %d: status %d: %s", j, resp.Status, resp.Body)
		}
		var got any
		if err := json.Unmarshal(resp.Body, &got); err != nil {
			return err
		}
		return compareJSON("/v1/solve", got, want[j], 1e-9)
	}
	fallbacks := func() uint64 {
		n, err := ScrapeCounter(entry.URL, `lattold_peer_requests_total{outcome="fallback_local"}`)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Every sender keeps sending until it has made perSender requests after
	// the owner dropped its connections.
	var sent atomic.Int64
	var dropped atomic.Bool
	var connsAtDrop int64
	go func() {
		for sent.Load() < 2*senders {
			time.Sleep(time.Millisecond)
		}
		owner.CloseClientConnections()
		connsAtDrop = ownerConns.Load()
		dropped.Store(true)
	}()
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, after := 0, 0; after < perSender; i++ {
				if dropped.Load() {
					after++
				}
				if err := check((g + i*senders) % keys); err != nil {
					errs <- err
					return
				}
				sent.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	n := fallbacks()
	t.Logf("%d forwards fell back to a local solve after the drop", n)
	if n < 1 || n > senders {
		t.Errorf("%d forwards fell back to a local solve, want 1 to %d (one per dead pooled connection)", n, senders)
	}
	if n := ownerConns.Load(); n <= connsAtDrop {
		t.Errorf("owner saw no connection opened after the drop (%d before, %d after)", connsAtDrop, n)
	}

	// Later forwards run on fresh connections: none falls back.
	before := fallbacks()
	for j := range bodies {
		if err := check(j); err != nil {
			t.Fatal(err)
		}
	}
	if n := fallbacks(); n != before {
		t.Errorf("%d forwards fell back after traffic settled, want 0", n-before)
	}
}
