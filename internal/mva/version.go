package mva

// SolverVersion names the numeric behavior of the AMVA/MVA solvers. It is
// part of every content-addressed surrogate-grid and cache-snapshot key: a
// persisted artifact is only trusted when it was produced by the solver
// version that would recompute it today.
//
// Bump the tag whenever a change can move converged numbers at all — a new
// residence-time formula, a different stopping rule or default tolerance, a
// reordering of floating-point accumulation. Pure refactors that are
// bit-identical (verified against the golden corpus at 1e-9) keep the tag.
// Stale artifacts are not migrated: a version mismatch at load time falls
// back to a cold build/solve, which regenerates them.
const SolverVersion = "amva/4"
