package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

// TestRingDeterminism: every node must compute the identical ring from the
// same member set, however that set is listed — this is what lets
// independently configured nodes agree on ownership without a coordinator.
func TestRingDeterminism(t *testing.T) {
	m := members(5)
	shuffled := append([]string(nil), m...)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	withDups := append(append([]string(nil), m...), m[0], m[3], "")

	a := cluster.NewRing(m, 0)
	b := cluster.NewRing(shuffled, 0)
	c := cluster.NewRing(withDups, 0)
	for i := 0; i < 10000; i++ {
		h := rng.Uint64()
		if a.Owner(h) != b.Owner(h) || a.Owner(h) != c.Owner(h) {
			t.Fatalf("owner of %#x differs across equivalent rings: %q, %q, %q",
				h, a.Owner(h), b.Owner(h), c.Owner(h))
		}
	}
}

// TestRingBalance pins the ownership spread of the default virtual-node
// count: on a 4-member ring no member may own more than ~1.6x or less than
// ~0.5x its fair share.
func TestRingBalance(t *testing.T) {
	m := members(4)
	r := cluster.NewRing(m, 0)
	counts := make(map[string]int)
	rng := rand.New(rand.NewSource(7))
	const samples = 200000
	for i := 0; i < samples; i++ {
		counts[r.Owner(rng.Uint64())]++
	}
	fair := float64(samples) / float64(len(m))
	for _, node := range m {
		share := float64(counts[node]) / fair
		if share < 0.5 || share > 1.6 {
			t.Errorf("node %s owns %.2fx its fair share (counts %v)", node, share, counts)
		}
	}
}

// TestRingReshuffle: removing one member must remap ONLY the keys that
// member owned — everything else keeps its owner. This is the property that
// makes a node departure leave the survivors' caches intact.
func TestRingReshuffle(t *testing.T) {
	m := members(4)
	before := cluster.NewRing(m, 0)
	after := cluster.NewRing(m[:3], 0) // drop the last member
	rng := rand.New(rand.NewSource(11))
	moved := 0
	const samples = 50000
	for i := 0; i < samples; i++ {
		h := rng.Uint64()
		was, is := before.Owner(h), after.Owner(h)
		if was == m[3] {
			moved++
			continue // had to move; any surviving owner is right
		}
		if was != is {
			t.Fatalf("hash %#x moved %q → %q though its owner survived", h, was, is)
		}
	}
	if frac := float64(moved) / samples; frac < 0.10 || frac > 0.45 {
		t.Errorf("departed member owned %.1f%% of the key space, want roughly a quarter", 100*frac)
	}
}

// fakeTransport records forwards and answers with a canned response.
type fakeTransport struct {
	mu    sync.Mutex
	calls []string
	resp  *lattolclient.RawResponse
	err   error
}

func (f *fakeTransport) PostRaw(ctx context.Context, path string, body []byte, hdr http.Header) (*lattolclient.RawResponse, error) {
	f.mu.Lock()
	f.calls = append(f.calls, path+" fwd="+hdr.Get(cluster.ForwardHeader))
	f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	return f.resp, nil
}

func newTestCluster(t *testing.T, self string, peers []string, ft *fakeTransport) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(self, peers, cluster.Options{
		NewTransport: func(peer string) cluster.Transport { return ft },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestForwardMarksAndRefusesSelf(t *testing.T) {
	m := members(3)
	ft := &fakeTransport{resp: &lattolclient.RawResponse{Status: 200, Header: http.Header{}, Body: []byte("{}")}}
	c := newTestCluster(t, m[0], m[1:], ft)

	if _, err := c.Forward(context.Background(), m[0], "/v1/solve", nil); err == nil {
		t.Error("Forward to self succeeded, want error")
	}
	resp, err := c.Forward(context.Background(), m[1], "/v1/solve", []byte("{}"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("Forward = %v, %v", resp, err)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if len(ft.calls) != 1 || ft.calls[0] != "/v1/solve fwd="+m[0] {
		t.Errorf("transport saw %q, want one forward marked with self", ft.calls)
	}
}

// TestLeave: a departing node drops out of its own ring (it claims no new
// ownership) and stays out even across later membership updates.
func TestLeave(t *testing.T) {
	m := members(3)
	c := newTestCluster(t, m[0], m[1:], &fakeTransport{})
	if !c.Ring().Has(m[0]) {
		t.Fatal("self not on own ring before Leave")
	}
	c.Leave()
	if !c.Departing() {
		t.Error("Departing() = false after Leave")
	}
	if c.Ring().Has(m[0]) {
		t.Error("self still on own ring after Leave")
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1000; i++ {
		if node, self := c.Owner(rng.Uint64()); self {
			t.Fatalf("departing node claimed ownership of a key (owner %q)", node)
		}
	}
	c.SetMembers(m) // a stale membership push listing self must not resurrect it
	if c.Ring().Has(m[0]) {
		t.Error("SetMembers re-added a departing node to its own ring")
	}
}

// TestOwnerEmptyRingDegeneratesToSelf: with nobody left (everyone departed),
// routing degenerates to local serving rather than erroring.
func TestOwnerEmptyRingDegeneratesToSelf(t *testing.T) {
	c := newTestCluster(t, "http://solo:1", nil, &fakeTransport{})
	c.Leave()
	if node, self := c.Owner(42); !self || node != "http://solo:1" {
		t.Errorf("Owner on empty ring = (%q, %v), want self", node, self)
	}
}

// TestStressChurn races Owner lookups and Forwards against continuous
// membership churn — the ring-swap path under the race detector.
// LATTOL_STRESS_OPS raises the budget in CI and nightly runs.
func TestStressChurn(t *testing.T) {
	ops := envInt("LATTOL_STRESS_OPS", 200)
	m := members(6)
	ft := &fakeTransport{resp: &lattolclient.RawResponse{Status: 200, Header: http.Header{}, Body: []byte("{}")}}
	c := newTestCluster(t, m[0], m[1:], ft)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // membership churn: grow and shrink the ring continuously
		defer wg.Done()
		for i := 0; i < ops; i++ {
			c.SetMembers(m[1 : 2+i%(len(m)-1)])
		}
	}()
	go func() { // reader: owner lookups must always land on a current member
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < ops*10; i++ {
			node, self := c.Owner(rng.Uint64())
			if node == "" {
				t.Error("Owner returned an empty node on a non-empty ring")
				return
			}
			_ = self
		}
	}()
	go func() { // forwarder
		defer wg.Done()
		for i := 0; i < ops; i++ {
			peer := m[1+i%(len(m)-1)]
			if _, err := c.Forward(context.Background(), peer, "/v1/solve", nil); err != nil {
				t.Errorf("Forward(%s): %v", peer, err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestDroppedPeerConnectionsClose: the default transport pools its
// connections per peer, and a membership change that drops the peer closes
// them — the peer's server sees every connection reach StateClosed. A
// forward to a peer the ring no longer names still works, on a connection
// that closes after it.
func TestDroppedPeerConnectionsClose(t *testing.T) {
	const concurrent = 4
	var opened, closed atomic.Int64
	var arrived sync.WaitGroup
	arrived.Add(concurrent)
	var first atomic.Int64
	peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first calls wait for each other, so each holds its own
		// connection.
		if first.Add(1) <= concurrent {
			arrived.Done()
			arrived.Wait()
		}
		_, _ = w.Write([]byte("{}"))
	}))
	peer.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	peer.Start()
	defer peer.Close()
	waitClosed := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); closed.Load() < n; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("peer saw %d of %d connections close", closed.Load(), n)
			}
		}
	}

	c, err := cluster.New("http://self.invalid:1", []string{peer.URL}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forward := func() {
		resp, err := c.Forward(context.Background(), peer.URL, "/v1/solve", []byte("{}"))
		if err != nil || resp.Status != http.StatusOK {
			t.Errorf("Forward = (%+v, %v), want a 200", resp, err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); forward() }()
	}
	wg.Wait()
	if n := opened.Load(); n != concurrent {
		t.Fatalf("peer saw %d connections, want %d", n, concurrent)
	}
	if n := closed.Load(); n != 0 {
		t.Fatalf("%d connections closed while the peer was a member, want 0", n)
	}

	c.SetMembers(nil)
	waitClosed(concurrent)

	forward()
	waitClosed(concurrent + 1)
	if n := opened.Load(); n != concurrent+1 {
		t.Errorf("peer saw %d connections, want %d", n, concurrent+1)
	}
}
