// Package inverse turns the forward model ("given a configuration, what is
// the performance?") into the paper's decision questions: "how many threads
// until the latency tolerance reaches 0.95?" (Sec. 6), "what is the critical
// p_remote before the network saturates?" (Sec. 5, Eqs. 4/5).
//
// A Spec names one knob (any sweepable mms.Param), one metric, and a target
// relation; Solve finds the extremal knob value satisfying it by bracketed
// root finding over any eval.Evaluator — the planner neither knows nor cares
// whether a probe is a fresh AMVA solve, a cache hit, or a certified
// interpolation. The search exploits three structural facts:
//
//   - Monotonicity. The conformance suite proves U_p and the network
//     tolerance monotone in n_t, R and p_remote, so a single [infeasible,
//     feasible] bracket contains exactly the answer and bisection /
//     false-position is sound. Unproven metric/knob pairs fall back to
//     directions inferred from the bracket endpoints.
//   - Closed-form seeds. The Eq. 4/5 bottleneck predictions (critical and
//     saturation p_remote, the latency-hiding thread count) land the first
//     interior probes near the answer, collapsing the bracket in O(1) probes
//     instead of O(log range).
//   - Continuation. Evaluators warm-start each probe from the last fixed
//     point, so a whole root-find costs a few cold-solve equivalents; Result
//     reports the probe and solve counts to keep that claim measurable.
//
// Solve and Frontier share one driver: planners advance in lockstep rounds,
// each round one EvaluateBatch call holding every unfinished planner's next
// probe. Solve is that driver over one planner; Frontier answers the
// two-knob version — re-solving the inverse problem at every value of a
// second swept parameter — so each of its rounds is one batch-kernel call.
package inverse

import (
	"fmt"
	"math"
	"strings"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/validate"
)

// Relation is the target comparison of a plan: metric ≥ target or ≤ target.
type Relation int

const (
	// AtLeast requires metric ≥ target.
	AtLeast Relation = iota
	// AtMost requires metric ≤ target.
	AtMost
)

// String returns the wire spelling (">=" or "<=").
func (r Relation) String() string {
	if r == AtMost {
		return "<="
	}
	return ">="
}

// ParseRelation resolves a relation from its wire spelling. The empty string
// defaults to ">=". Unknown spellings yield a field-named error.
func ParseRelation(s string) (Relation, error) {
	switch s {
	case "", ">=", "ge":
		return AtLeast, nil
	case "<=", "le":
		return AtMost, nil
	}
	return 0, validate.Fieldf("inverse.Spec", "Relation", "= %q, want >= or <=", s)
}

// Metric identifies one plannable performance measure. Like mms.Param it is
// a registry value: the CLI and the HTTP layer resolve names through
// ParseMetric, so the plannable set is defined exactly once.
type Metric struct {
	name             string
	needNet, needMem bool
	read             func(eval.Metrics) float64
}

var metricRegistry = []Metric{
	{"u_p", false, false, func(m eval.Metrics) float64 { return m.Up }},
	{"tol_network", true, false, func(m eval.Metrics) float64 { return m.TolNetwork }},
	{"tol_memory", false, true, func(m eval.Metrics) float64 { return m.TolMemory }},
	{"s_obs", false, false, func(m eval.Metrics) float64 { return m.SObs }},
	{"l_obs", false, false, func(m eval.Metrics) float64 { return m.LObs }},
	{"lambda_net", false, false, func(m eval.Metrics) float64 { return m.LambdaNet }},
	{"cycle_time", false, false, func(m eval.Metrics) float64 { return m.CycleTime }},
}

// ParseMetric resolves a plannable metric by name. Unknown names yield a
// field-named error listing the valid metrics.
func ParseMetric(name string) (Metric, error) {
	for _, m := range metricRegistry {
		if m.name == name {
			return m, nil
		}
	}
	return Metric{}, validate.Fieldf("inverse.Spec", "Metric", "= %q, want one of %s", name, strings.Join(MetricNames(), ", "))
}

// MetricNames lists every plannable metric name, in registry order.
func MetricNames() []string {
	names := make([]string, len(metricRegistry))
	for i, m := range metricRegistry {
		names[i] = m.name
	}
	return names
}

// String returns the metric's registry name.
func (m Metric) String() string { return m.name }

// Read extracts the metric's value from an evaluation.
func (m Metric) Read(em eval.Metrics) float64 { return m.read(em) }

// Options returns the evaluation options the metric requires (which ideal
// systems must be co-solved).
func (m Metric) Options() eval.Options {
	return eval.Options{TolNetwork: m.needNet, TolMemory: m.needMem}
}

// direction returns the proven monotone direction of metric in knob: +1
// non-decreasing, -1 non-increasing, 0 unproven. The table mirrors exactly
// what the conformance invariants assert (U_p and tol_network non-decreasing
// in n_t and R, non-increasing in p_remote); everything else is inferred
// from the bracket endpoints at plan time.
func direction(m Metric, k mms.Param) int {
	switch m.name {
	case "u_p", "tol_network":
		switch k.String() {
		case "nt", "r":
			return +1
		case "premote":
			return -1
		}
	}
	return 0
}

// Objective is the derived optimization sense of a plan: for a monotone
// metric the feasible knob set is a half-interval, so "the" answer is its
// boundary — the minimum knob when feasibility grows with the knob, the
// maximum when it shrinks.
type Objective int

const (
	// Minimize: the answer is the smallest feasible knob value.
	Minimize Objective = iota
	// Maximize: the answer is the largest feasible knob value.
	Maximize
)

func (o Objective) String() string {
	if o == Maximize {
		return "max"
	}
	return "min"
}

// Binding reports where the answer landed relative to the search interval.
type Binding int

const (
	// Interior: the target constraint is active; the final bracket straddles
	// it and the answer is the feasible end.
	Interior Binding = iota
	// AtLo: the whole interval is feasible and the objective is Minimize (or
	// the metric is flat) — the answer is the interval's low end.
	AtLo
	// AtHi: the whole interval is feasible and the objective is Maximize —
	// the answer is the interval's high end.
	AtHi
)

func (b Binding) String() string {
	switch b {
	case AtLo:
		return "at-lo"
	case AtHi:
		return "at-hi"
	default:
		return "interior"
	}
}

// Spec is one inverse problem: find the extremal Knob value on [Lo, Hi] such
// that Metric Relation Target holds in the model derived from Base.
type Spec struct {
	// Base is the configuration every probe starts from; the knob overwrites
	// one of its fields per probe.
	Base mms.Config
	// Solver selects the solution procedure for probes (default
	// SymmetricAMVA).
	Solver mms.Solver
	// Knob is the parameter being solved for (required).
	Knob mms.Param
	// Metric is the measure being targeted (required).
	Metric Metric
	// Target is the metric value to reach.
	Target float64
	// Relation compares metric to target (default AtLeast).
	Relation Relation
	// Lo, Hi bound the search. Both zero selects the knob's default domain
	// (see domain); otherwise both are used as given and must satisfy
	// Lo < Hi inside the domain.
	Lo, Hi float64
	// KnobTol is the relative width at which a continuous bracket is
	// considered converged (default 1e-6). Integer knobs converge at width 1.
	KnobTol float64
	// MaxProbes caps evaluator calls (default 64). Exhausting it is an
	// error: the answer would not be trustworthy.
	MaxProbes int
}

const (
	defaultKnobTol   = 1e-6
	defaultMaxProbes = 64
)

// domain returns the default search interval of a knob: wide enough to
// contain every answer of practical interest, tight enough that endpoint
// probes stay cheap and valid.
func domain(p mms.Param) (lo, hi float64) {
	switch p.String() {
	case "nt":
		return 1, 16384
	case "k":
		return 1, 32
	case "premote":
		return 0, 1
	case "psw":
		return 1e-3, 1
	case "r":
		return 1e-3, 1e6
	case "l", "s", "c":
		return 0, 1e6
	case "memports", "swports":
		return 1, 1024
	}
	return 0, 0
}

// bracket resolves the effective search interval, normalized to integers for
// integral knobs.
func (s Spec) bracket() (lo, hi float64) {
	lo, hi = s.Lo, s.Hi
	if lo == 0 && hi == 0 {
		lo, hi = domain(s.Knob)
	}
	if s.Knob.Integer() {
		lo, hi = math.Ceil(lo), math.Floor(hi)
	}
	return lo, hi
}

// Bracket returns the effective search interval: Lo, Hi as given when set,
// the knob's default domain otherwise, normalized to integers for integral
// knobs. Convergence is judged relative to this interval's scale, so
// external verifiers (the conformance plan checker) can reproduce the
// planner's own width criterion.
func (s Spec) Bracket() (lo, hi float64) { return s.bracket() }

// knobTol returns the effective convergence tolerance.
func (s Spec) knobTol() float64 {
	if s.KnobTol == 0 {
		return defaultKnobTol
	}
	return s.KnobTol
}

// maxProbes returns the effective probe budget.
func (s Spec) maxProbes() int {
	if s.MaxProbes == 0 {
		return defaultMaxProbes
	}
	return s.MaxProbes
}

// configAt is the probe configuration at one knob value.
func (s Spec) configAt(v float64) eval.Config {
	cfg := s.Base
	s.Knob.Apply(&cfg, v)
	return eval.Config{Model: cfg, Solver: s.Solver}
}

// Validate reports the first invalid field as a field-named error
// (*validate.FieldError).
func (s Spec) Validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	if s.Knob.String() == "" {
		return validate.Fieldf("inverse.Spec", "Knob", "required, want one of %s", strings.Join(mms.ParamNames(), ", "))
	}
	if s.Metric.name == "" {
		return validate.Fieldf("inverse.Spec", "Metric", "required, want one of %s", strings.Join(MetricNames(), ", "))
	}
	if s.Knob.String() == "premote" && s.Base.K == 1 {
		return validate.Fieldf("inverse.Spec", "Knob", "= premote on a single-node system (K=1); remote accesses are impossible")
	}
	if math.IsNaN(s.Target) || math.IsInf(s.Target, 0) {
		return validate.Fieldf("inverse.Spec", "Target", "= %v, want finite", s.Target)
	}
	if s.Relation != AtLeast && s.Relation != AtMost {
		return validate.Fieldf("inverse.Spec", "Relation", "= %d, want AtLeast or AtMost", int(s.Relation))
	}
	dlo, dhi := domain(s.Knob)
	if !(s.Lo == 0 && s.Hi == 0) {
		if math.IsNaN(s.Lo) || math.IsNaN(s.Hi) || s.Lo < dlo || s.Hi > dhi {
			return validate.Fieldf("inverse.Spec", "Lo", "/Hi = [%v, %v], want within the %s domain [%v, %v]", s.Lo, s.Hi, s.Knob, dlo, dhi)
		}
	}
	lo, hi := s.bracket()
	if !(lo < hi) {
		return validate.Fieldf("inverse.Spec", "Lo", "/Hi = [%v, %v] after rounding, want Lo < Hi", lo, hi)
	}
	if s.KnobTol < 0 || math.IsNaN(s.KnobTol) {
		return validate.Fieldf("inverse.Spec", "KnobTol", "= %v, want >= 0", s.KnobTol)
	}
	if s.MaxProbes < 0 {
		return validate.Fieldf("inverse.Spec", "MaxProbes", "= %d, want >= 0", s.MaxProbes)
	}
	return nil
}

// Probe is one entry of a plan's probe trace.
type Probe struct {
	// Knob is the probed knob value.
	Knob float64
	// Value is the metric observed there.
	Value float64
	// Feasible reports whether Value satisfies the target relation.
	Feasible bool
	// Solves is the number of model solves the probe actually ran (0 when
	// the evaluator answered from a cache or an interpolation tier).
	Solves int
}

// Result is a completed plan.
type Result struct {
	// Knob is the answer: the extremal knob value satisfying the target.
	Knob float64
	// Metrics is the full evaluation at Knob.
	Metrics eval.Metrics
	// Achieved is the metric value at Knob.
	Achieved float64
	// Objective is the derived optimization sense (see Objective).
	Objective Objective
	// Binding reports whether the target constraint is active at the answer.
	Binding Binding
	// Lo, Hi is the final bracket: for an Interior answer one end is Knob
	// (feasible) and the other is the nearest probed infeasible knob value.
	Lo, Hi float64
	// Probes counts evaluator calls; Solves counts the model solves they
	// actually ran. Warm-started continuation should keep Solves' total cost
	// within a few cold solves.
	Probes, Solves int
	// Trace lists every probe in order.
	Trace []Probe
}

// InfeasibleError reports that no knob value in the search interval
// satisfies the target: the metric misses it at both endpoints.
type InfeasibleError struct {
	Knob     string
	Metric   string
	Relation Relation
	Target   float64
	Lo, Hi   float64
	// LoValue, HiValue are the metric values observed at the endpoints.
	LoValue, HiValue float64
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("inverse: no %s in [%v, %v] achieves %s %s %v (%s(%v) = %v, %s(%v) = %v)",
		e.Knob, e.Lo, e.Hi, e.Metric, e.Relation, e.Target,
		e.Metric, e.Lo, e.LoValue, e.Metric, e.Hi, e.HiValue)
}
