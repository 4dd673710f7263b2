package conformance

import (
	"math"
	"math/rand"

	"lattol/internal/mms"
	"lattol/internal/surrogate"
)

// surrogateFields names the metric fields a surrogate lookup certifies; the
// grid's cell bound is the maximum over exactly these.
var surrogateFields = [...]string{
	"up", "lambda", "lambda_net", "s_obs", "l_obs",
	"cycle_time", "mem_utilization", "out_utilization", "in_utilization",
}

func surrogateValues(m mms.Metrics) [9]float64 {
	return [9]float64{m.Up, m.LambdaProc, m.LambdaNet, m.SObs, m.LObs,
		m.CycleTime, m.MemUtilization, m.OutUtilization, m.InUtilization}
}

// surrogateBoundSlack absorbs floating-point noise when the measured relative
// error is compared against the certified bound: the bound derivation is exact
// in real arithmetic, but both sides of the comparison are computed in
// float64, and an exact-node hit (bound 0) compares a batch-kernel solve
// against an independent fresh solve, which agree to solver tolerance rather
// than bit-for-bit.
const surrogateBoundSlack = 1e-8

// checkSurrogatePoint looks one query up in the grid and solves it fresh,
// demanding the interpolated answer sit within the certified bound of the
// exact one on every field. A BoundExceeded outcome (a cell the grid refuses
// to serve at any finite tolerance) is skipped, not a failure — the contract
// under audit is only ever about answers the grid would actually serve.
func checkSurrogatePoint(g *surrogate.Grid, q surrogate.Query) error {
	got, bound, st := g.Lookup(q, math.MaxFloat64)
	switch st {
	case surrogate.Ineligible:
		return violatef("surrogate", "query %+v inside the spec ranges was ruled ineligible", q)
	case surrogate.BoundExceeded:
		return nil
	}
	spec := g.Spec()
	model, err := mms.Build(mms.Config{
		K: q.K, Threads: q.NT, Runlength: q.R,
		MemoryTime: spec.MemoryTime, SwitchTime: spec.SwitchTime,
		PRemote: q.PRemote, Psw: q.Psw,
	})
	if err != nil {
		return violatef("surrogate", "query %+v: building exact model: %v", q, err)
	}
	want, err := model.Solve(mms.SolveOptions{})
	if err != nil {
		return violatef("surrogate", "query %+v: exact solve: %v", q, err)
	}
	gv, wv := surrogateValues(got), surrogateValues(want)
	for i, name := range surrogateFields {
		if rel := relErr(gv[i], wv[i]); rel > bound*(1+surrogateBoundSlack)+surrogateBoundSlack {
			return violatef("surrogate", "query %+v: %s interpolated %.17g, solved %.17g: rel error %.3g exceeds certified bound %.3g",
				q, name, gv[i], wv[i], rel, bound)
		}
	}
	return nil
}

// inGrid reports whether a golden operating point lies on the grid's exact
// axes (K, NT, memory/switch time) and inside its continuous ranges.
func inGrid(spec surrogate.Spec, cfg mms.Config) (surrogate.Query, bool) {
	q := surrogate.Query{K: cfg.K, NT: cfg.Threads, R: cfg.Runlength, PRemote: cfg.PRemote, Psw: cfg.Psw}
	if cfg.MemoryTime != spec.MemoryTime || cfg.SwitchTime != spec.SwitchTime ||
		cfg.Uniform || cfg.GeometricMode != 0 || cfg.ContextSwitch != 0 ||
		cfg.MemoryPorts > 1 || cfg.SwitchPorts > 1 {
		return q, false
	}
	found := func(vs []int, v int) bool {
		for _, x := range vs {
			if x == v {
				return true
			}
		}
		return false
	}
	within := func(axis []float64, v float64) bool {
		return v >= axis[0] && v <= axis[len(axis)-1]
	}
	return q, found(spec.K, q.K) && found(spec.NT, q.NT) &&
		within(spec.R, q.R) && within(spec.PRemote, q.PRemote) && within(spec.Psw, q.Psw)
}

// CheckSurrogateGrid audits a grid's central promise — every answer it serves
// is within its certified relative error bound of a fresh exact solve — on
// two query populations: each golden-corpus operating point the grid covers
// (including the deliberately off-lattice mid-cell points), and n seeded
// pseudo-random queries drawn uniformly from the grid's continuous ranges.
// The first violation is returned.
func CheckSurrogateGrid(g *surrogate.Grid, n int, seed int64) error {
	spec := g.Spec()
	covered := 0
	for _, cfg := range GoldenConfigs() {
		if q, ok := inGrid(spec, cfg); ok {
			covered++
			if err := checkSurrogatePoint(g, q); err != nil {
				return err
			}
		}
	}
	if covered == 0 {
		return violatef("surrogate", "grid %s covers no golden corpus point; the audit needs at least one", spec.RefName())
	}
	rng := rand.New(rand.NewSource(seed))
	span := func(axis []float64) func() float64 {
		lo, hi := axis[0], axis[len(axis)-1]
		return func() float64 { return lo + rng.Float64()*(hi-lo) }
	}
	rR, rP, rS := span(spec.R), span(spec.PRemote), span(spec.Psw)
	for i := 0; i < n; i++ {
		q := surrogate.Query{
			K:  spec.K[rng.Intn(len(spec.K))],
			NT: spec.NT[rng.Intn(len(spec.NT))],
			R:  rR(), PRemote: rP(), Psw: rS(),
		}
		if err := checkSurrogatePoint(g, q); err != nil {
			return err
		}
	}
	return nil
}
