package serve

import "lattol/internal/mms"

// This file exports the canonicalization pipeline in a form the conformance
// layer can exercise from outside the package: internal/conformance fuzzes
// the request→Key mapping (FuzzServeKeyCanonical) and needs to build keys,
// re-canonicalize them and recover the solver configuration a key denotes.
// Both key constructors canonicalize their request exactly as a /v1/batch item
// with the same fields, through the one request→Key function every endpoint
// uses.

// SolveKey validates a solve request and returns its canonical cache Key —
// exactly the key POST /v1/solve would look up. Two requests with equal keys
// are served the same cached result, so SolveKey is the surface on which
// "equal keys ⇒ identical answers" must hold; the conformance fuzz target
// asserts it.
func SolveKey(r ModelRequest) (Key, error) {
	return modelKey(&r, "", "", "")
}

// ToleranceKey validates a tolerance request and returns its canonical cache
// Key — exactly the key POST /v1/tolerance would look up.
func ToleranceKey(r ToleranceRequest) (Key, error) {
	return modelKey(&r.ModelRequest, "tolerance", r.Subsystem, r.Mode)
}

// ModelConfig returns the solver configuration the key denotes (defaults
// applied, irrelevant fields zeroed) — the configuration a cache miss
// actually solves.
func (k Key) ModelConfig() mms.Config { return k.cfg }

// Hash returns the key's canonical 64-bit hash — the value the cluster ring
// routes on and the cache shards by. Conformance and cluster tests use it to
// predict which node owns a request.
func (k Key) Hash() uint64 { return k.hash() }

// SolverChoice returns the solver the key selects.
func (k Key) SolverChoice() mms.Solver { return k.solver }

// Recanonicalized pushes the key's own fields back through canonicalization.
// Canonicalization must be idempotent — a cached key re-canonicalizes to
// itself — or two requests for the same evaluation could land on different
// cache lines; the conformance fuzz target asserts Recanonicalized() == k
// for every reachable key.
func (k Key) Recanonicalized() Key {
	return canonicalKey(k.cfg, k.solver, k.op, k.sub, k.mode)
}
