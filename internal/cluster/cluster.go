package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	lattolclient "lattol/internal/client"
)

// ForwardHeader marks a node-to-node forwarded request and carries the
// origin node's advertise URL. A request bearing it is never forwarded
// again — whatever the receiver's own ring says — so a membership
// disagreement during churn degrades to one extra local solve, never to a
// forwarding loop.
const ForwardHeader = "X-Lattold-Forward"

// Transport is the one-hop peer call the cluster needs: POST raw bytes,
// return the raw response. Satisfied by *lattolclient.Client, which makes
// exactly one exchange per call and never retries; tests plug in fakes.
type Transport interface {
	PostRaw(ctx context.Context, path string, body []byte, hdr http.Header) (*lattolclient.RawResponse, error)
}

// Options configures a Cluster. The zero value selects sensible defaults.
type Options struct {
	// VirtualNodes per member; ≤ 0 selects DefaultVirtualNodes.
	VirtualNodes int
	// ForwardTimeout bounds one peer forward (on top of the caller's
	// context). A forward that cannot beat the local solver's worst case is
	// not worth waiting for — the serving layer falls back to a local solve.
	// Default 5s.
	ForwardTimeout time.Duration
	// NewTransport builds the per-peer transport; nil selects a
	// lattolclient.Client, which never retries: the serving layer's
	// local-solve fallback is the forward's only retry policy. A transport
	// with a CloseIdleConnections method (a lattolclient.Client has one) has
	// it called when its peer leaves the ring.
	NewTransport func(peer string) Transport
}

func (o Options) withDefaults(self string) Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 5 * time.Second
	}
	if o.NewTransport == nil {
		o.NewTransport = func(peer string) Transport {
			return lattolclient.New(peer, lattolclient.Options{
				ClientID: "peer:" + self,
			})
		}
	}
	return o
}

// Cluster is one node's view of the ring: its own identity, the membership,
// and a transport per peer. Safe for concurrent use; membership updates
// (SetMembers) swap the ring atomically under readers.
type Cluster struct {
	self string
	opts Options

	ring atomic.Pointer[Ring]

	mu         sync.Mutex
	transports map[string]Transport

	departing atomic.Bool
}

// New builds a node's cluster state. self is this node's advertise URL;
// peers are the other members' advertise URLs (self is added implicitly, so
// every node can be configured with the same peer list minus itself, or
// sloppily with itself included — duplicates are folded).
func New(self string, peers []string, opts Options) (*Cluster, error) {
	if self == "" {
		return nil, fmt.Errorf("cluster: empty self advertise URL")
	}
	opts = opts.withDefaults(self)
	c := &Cluster{
		self:       self,
		opts:       opts,
		transports: make(map[string]Transport),
	}
	members := append([]string{self}, peers...)
	c.ring.Store(NewRing(members, opts.VirtualNodes))
	return c, nil
}

// Self returns this node's advertise URL.
func (c *Cluster) Self() string { return c.self }

// Ring returns the current ring (immutable snapshot).
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// Size returns the current member count.
func (c *Cluster) Size() int { return c.ring.Load().Size() }

// SetMembers replaces the membership. Self is folded in — except on a
// departing node, where it is filtered out even if the caller lists it (a
// stale membership push must not resurrect a node that already left its own
// ring). In-flight Owner lookups keep the ring they started with.
func (c *Cluster) SetMembers(members []string) {
	if c.departing.Load() {
		kept := make([]string, 0, len(members))
		for _, m := range members {
			if m != c.self {
				kept = append(kept, m)
			}
		}
		members = kept
	} else {
		members = append([]string{c.self}, members...)
	}
	c.install(NewRing(members, c.opts.VirtualNodes))
}

// install swaps in a new ring and drops the transports of peers it no longer
// names, closing their pooled connections: a connection never outlives its
// peer's membership. Transports are built and dropped under one lock, so a
// transport kept in the map always belongs to a member of the current ring.
func (c *Cluster) install(r *Ring) {
	var dropped []Transport
	c.mu.Lock()
	c.ring.Store(r)
	for peer, t := range c.transports {
		if !r.Has(peer) {
			delete(c.transports, peer)
			dropped = append(dropped, t)
		}
	}
	c.mu.Unlock()
	for _, t := range dropped {
		closeIdle(t)
	}
}

// closeIdle closes a transport's pooled connections, when it pools any (a
// *lattolclient.Client does).
func closeIdle(t Transport) {
	if p, ok := t.(interface{ CloseIdleConnections() }); ok {
		p.CloseIdleConnections()
	}
}

// Owner resolves hash h to its owning node under the current ring and
// reports whether that is this node. A departing node no longer claims
// ownership of anything new, and an empty ring degenerates to local serving
// (self true), so callers need no special cases.
func (c *Cluster) Owner(h uint64) (node string, self bool) {
	node = c.ring.Load().Owner(h)
	if node == "" || node == c.self {
		return c.self, true
	}
	return node, false
}

// Departing reports whether Leave has been called.
func (c *Cluster) Departing() bool { return c.departing.Load() }

// Leave marks this node as departing: it removes itself from its own ring
// (new local traffic routes to the surviving owners) and the serving layer
// starts refusing incoming forwards with 503, which flips the origins to
// their local-solve fallback. Peers' rings still name this node until their
// next membership update; the 503-and-fallback path covers the gap — that is
// the graceful-departure half of the drain, the HTTP listener's shutdown is
// the other.
func (c *Cluster) Leave() {
	if c.departing.CompareAndSwap(false, true) {
		members := c.ring.Load().Members()
		kept := members[:0]
		for _, m := range members {
			if m != c.self {
				kept = append(kept, m)
			}
		}
		c.install(NewRing(kept, c.opts.VirtualNodes))
	}
}

// transport returns the transport for a peer, building it on demand, and
// whether it is kept for later calls. A peer the current ring does not name
// (the caller looked its owner up on a ring since replaced) gets a transport
// that is not kept: Forward closes its connections after the one call.
func (c *Cluster) transport(peer string) (t Transport, kept bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.transports[peer]; t != nil {
		return t, true
	}
	t = c.opts.NewTransport(peer)
	if !c.ring.Load().Has(peer) {
		return t, false
	}
	c.transports[peer] = t
	return t, true
}

// Forward sends raw request bytes to a peer, marked with ForwardHeader so
// the receiver serves it locally instead of re-forwarding. The response is
// returned verbatim for the caller to relay; any error (transport failure or
// deadline) means the caller should fall back to a local solve.
func (c *Cluster) Forward(ctx context.Context, peer, path string, body []byte) (*lattolclient.RawResponse, error) {
	if peer == c.self {
		return nil, fmt.Errorf("cluster: forward to self (%s)", peer)
	}
	ctx, cancel := context.WithTimeout(ctx, c.opts.ForwardTimeout)
	defer cancel()
	hdr := http.Header{ForwardHeader: []string{c.self}}
	t, kept := c.transport(peer)
	if !kept {
		defer closeIdle(t)
	}
	return t.PostRaw(ctx, path, body, hdr)
}
