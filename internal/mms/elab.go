package mms

import (
	"lattol/internal/access"
	"lattol/internal/topology"
)

// elabTable is the part of a torus model's elaboration that depends only on
// the torus and the access pattern (K, Uniform, Psw, GeometricMode), not on
// PRemote: the torus, the resolved pattern, the remote-target row
// q[j] = Prob(0, j), and the route hops of every destination. It is
// immutable once built, so any number of models (and a workspace's later
// batches) share one.
type elabTable struct {
	torus   *topology.Torus
	pattern access.Pattern // nil: no remote accesses (PRemote == 0 or K == 1)
	q       []float64      // q[j] = pattern.Prob(0, j); nil without a pattern
	// hops lists, for each destination j = 1, 2, ... in turn, the hop count
	// of its route pair followed by the hops: the forward route 0→j, then
	// the return route j→0 (destination and origin included).
	hops []int32
}

// newElabTable builds the table of a torus and pattern (nil pattern: the
// table holds the torus only). q receives the pattern's row and must have
// one entry per node. The hop list is sized from the torus's distance sum,
// so the table allocates once.
func newElabTable(torus *topology.Torus, pat access.Pattern, q []float64) elabTable {
	tab := elabTable{torus: torus, pattern: pat}
	if pat == nil {
		return tab
	}
	// The route pair of j = (x, y) has 2·(d(x) + d(y)) hops, d the ring
	// distance from 0. Over the k² nodes, each dimension contributes k
	// copies of Σd = ⌊k²/4⌋, so the pairs hold 2·2k·⌊k²/4⌋ hops, plus one
	// count per destination.
	n, k := torus.Nodes(), torus.K()
	hops := make([]int32, 0, n-1+4*k*(k*k/4))
	var rbuf [32]topology.Node // longer routes grow it once
	route := rbuf[:0]
	for j := 1; j < n; j++ {
		dst := topology.Node(j)
		q[j] = pat.Prob(0, dst)
		route = torus.AppendRoute(route[:0], 0, dst)
		route = torus.AppendRoute(route, dst, 0)
		hops = append(hops, int32(len(route)))
		for _, hop := range route {
			hops = append(hops, int32(hop))
		}
	}
	tab.q, tab.hops = q, hops
	return tab
}

// fillVisits writes the class-0 visit ratios per thread cycle at remote
// probability p into zeroed vectors of one entry per node:
//
//	memory_j:   (1-p) for j = 0, p·q[j] otherwise
//	outbound_0: p              (every remote request is injected here)
//	outbound_j: em[0][j], j≠0  (every response leaves its home node here)
//	inbound_j:  forward- plus return-route traversals through node j
//
// This is the one torus fill (Build and SolveBatch's workspace elaboration
// both run it), and it adds in visitsFrom's order: destinations ascending,
// forward hops before return hops, so every inbound sum is bit for bit the
// one visitsFrom computes. mem may alias tab.q: q[j] is read once, just
// before mem[j] is written.
func fillVisits(tab *elabTable, p float64, mem, out, in []float64) {
	mem[0] = 1 - p
	if tab.pattern == nil {
		return
	}
	out[0] = p
	q, hops := tab.q, tab.hops
	for j := 1; j < len(mem); j++ {
		em := p * q[j]
		mem[j] = em
		out[j] += em
		route := hops[1 : 1+hops[0]]
		hops = hops[1+hops[0]:]
		if em == 0 {
			continue
		}
		for _, hop := range route {
			in[hop] += em
		}
	}
}

// setVisits points m's visit vectors into vis (3·P zeroed floats), fills
// them from tab and returns each role's non-zero visit count.
func (m *Model) setVisits(tab *elabTable, vis []float64) (nnz [3]int) {
	n := len(vis) / 3
	m.visitMem, m.visitOut, m.visitIn = vis[:n:n], vis[n:2*n:2*n], vis[2*n:]
	fillVisits(tab, m.cfg.PRemote, m.visitMem, m.visitOut, m.visitIn)
	for r, v := range [3][]float64{m.visitMem, m.visitOut, m.visitIn} {
		for _, x := range v {
			if x != 0 {
				nnz[r]++
			}
		}
	}
	return nnz
}

// rowFloats is the row storage setRows needs: a role has at most as many
// distinct values as non-zero visits, and each takes a value and a count.
func rowFloats(nnz [3]int) int { return 2 * (nnz[0] + nnz[1] + nnz[2]) }

// setRows merges each role's visits into batch-kernel rows, the six row
// lists sharing buf (rowFloats(nnz) floats).
func (m *Model) setRows(nnz [3]int, buf []float64) {
	for r, v := range [3][]float64{m.visitMem, m.visitOut, m.visitIn} {
		k := nnz[r]
		vals, counts := buf[:0:k], buf[k:k:2*k]
		m.mergeVals[r], m.mergeCounts[r] = distinctVisits(v, vals, counts)
		buf = buf[2*k:]
	}
}

// maxTables bounds a workspace's table memo: a caller cannot grow it without
// bound by varying K or Psw, and a full memo is cleared, not evicted.
const maxTables = 64

// tableKey identifies a memoized table: (K, Psw, GeometricMode) for a
// geometric pattern, (K, uniform) for the uniform one, or K alone for the
// torus-only table of models without remote accesses (a geometric pattern
// has Psw > 0).
type tableKey struct {
	k       int
	uniform bool
	psw     float64
	mode    access.GeometricMode
}

// table returns the workspace's table for cfg, a valid Config, building and
// memoizing it on first use. The error is the one Build reports for the
// same Config.
func (ws *Workspace) table(cfg *Config) (*elabTable, error) {
	key := tableKey{k: cfg.K}
	switch {
	case cfg.PRemote == 0:
	case cfg.Uniform:
		key.uniform = true
	default:
		key.psw, key.mode = cfg.Psw, cfg.GeometricMode
	}
	if tab, ok := ws.tables[key]; ok {
		return tab, nil
	}
	torus, err := topology.NewTorus(cfg.K)
	if err != nil {
		return nil, err
	}
	pat, err := cfg.pattern(torus)
	if err != nil {
		return nil, err
	}
	var q []float64
	if pat != nil {
		q = make([]float64, torus.Nodes())
	}
	tab := newElabTable(torus, pat, q)
	if len(ws.tables) >= maxTables {
		clear(ws.tables)
	}
	if ws.tables == nil {
		ws.tables = make(map[tableKey]*elabTable)
	}
	ws.tables[key] = &tab
	return &tab, nil
}

// elaborate builds the model of cfg into the workspace slabs: the model
// struct, its visit vectors and its merged rows. The model lives until the
// next SolveBatchInto on the workspace resets the slabs, so it must not
// escape the call that built it.
func (ws *Workspace) elaborate(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tab, err := ws.table(&cfg)
	if err != nil {
		return nil, err
	}
	m := ws.newModel()
	*m = Model{cfg: cfg, torus: tab.torus, pattern: tab.pattern}
	vis := ws.floats.take(3 * tab.torus.Nodes())
	clear(vis)
	nnz := m.setVisits(tab, vis)
	m.setRows(nnz, ws.floats.take(rowFloats(nnz)))
	return m, nil
}

// newModel takes one model struct from the workspace slab. The caller
// assigns it in full (*m = Model{…}), which also clears the network a
// FullAMVA solve cached on its previous occupant.
func (ws *Workspace) newModel() *Model { return &ws.models.take(1)[0] }

// slab is a chunked arena that hands out storage for the models one
// SolveBatchInto builds itself. reset makes every chunk available again;
// take never copies or moves a chunk, because models taken earlier in the
// same call still point into it, and allocates only when no chunk has
// room. A workspace that has served a batch keeps its chunks, so the next
// batch of the same size allocates nothing, and the chunks stay bounded by
// about twice the largest batch the workspace has served.
type slab[T any] struct {
	chunks    [][]T
	cur, used int // chunk being filled and its used prefix
}

// minChunk is the least element count of a chunk: a worker serving one-
// and two-item batches keeps a few hundred bytes of slab, not a full
// batch's worth.
const minChunk = 8

func (s *slab[T]) reset() { s.cur, s.used = 0, 0 }

// take returns n elements, as left by their previous use.
func (s *slab[T]) take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.used+n <= len(c) {
			s.used += n
			return c[s.used-n : s.used : s.used]
		}
	}
	size := max(n, minChunk)
	if len(s.chunks) > 0 {
		size = max(size, 2*len(s.chunks[len(s.chunks)-1]))
	}
	s.chunks = append(s.chunks, make([]T, size))
	s.used = n
	return s.chunks[s.cur][:n:n]
}
