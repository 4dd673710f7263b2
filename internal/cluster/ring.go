// Package cluster turns N lattold processes into one consistent-hash serving
// ring. Each canonical request Key (internal/serve) hashes to a single owner
// node; the owner solves and caches, every other node forwards the raw
// request bytes to it and relays the answer verbatim. Two properties follow:
//
//   - Cluster-wide singleflight: a key is solved once across the fleet, no
//     matter which node the traffic enters through — the owner's LRU and
//     request coalescing are the cluster's, because every path to a key goes
//     through its owner.
//   - Minimal reshuffling: consistent hashing with virtual nodes means a
//     membership change remaps only ~1/N of the key space, so a node joining
//     or draining does not flush the other nodes' working sets.
//
// The package is transport-mechanics only: Ring answers "who owns hash h",
// Cluster holds one lattolclient per peer and forwards bodies. Routing
// policy — when to forward, when to fall back to a local solve, how to
// account it — lives in internal/serve, next to the cache it protects.
package cluster

import (
	"sort"
	"strconv"

	"lattol/internal/stats"
)

// DefaultVirtualNodes is the per-member virtual-node count. 64 points per
// node keeps the expected ownership imbalance of a small ring within a few
// percent (TestRingBalance pins it) at negligible lookup cost.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node: a position on the hash circle and the
// member that owns the arc ending there.
type ringPoint struct {
	h    uint64
	node string
}

// Ring is an immutable consistent-hash ring over a set of member names
// (advertise URLs). Lookups are read-only and safe for concurrent use;
// membership changes build a new Ring.
type Ring struct {
	points  []ringPoint
	members []string
}

// NewRing builds a ring over members (deduplicated; order-insensitive —
// every node building a ring from the same member set, however listed, gets
// the identical ring, which is what makes independent nodes agree on
// ownership without a coordinator). vnodes ≤ 0 selects DefaultVirtualNodes.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{h: pointHash(m, i), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// A 64-bit collision between virtual nodes is vanishingly rare, but
		// the tiebreak must still be deterministic across nodes.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the member owning hash h: the first virtual node clockwise
// from h (wrapping). Empty ring returns "".
func (r *Ring) Owner(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// pointHash positions virtual node i of a member on the circle: the
// byte-wise stats.FNV64 of "member#i", the mixer the serving layer's key
// hashes use, so low-entropy member names (sequential ports) still spread
// over the full 64-bit circle.
func pointHash(member string, i int) uint64 {
	h := stats.NewFNV64()
	for j := 0; j < len(member); j++ {
		h.Add(uint64(member[j]))
	}
	h.Add('#')
	for _, b := range strconv.AppendInt(nil, int64(i), 10) {
		h.Add(uint64(b))
	}
	return h.Sum()
}
