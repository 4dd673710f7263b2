package inverse

import (
	"fmt"
	"math"

	"lattol/internal/bottleneck"
	"lattol/internal/eval"
)

// planner is the resumable decision core of a plan: it emits the next probe
// knob value and folds each observation back in, so the lockstep driver
// behind Solve and Frontier (drive) holds no bracketing, seeding, or
// convergence decision of its own. One planner is one plan; it never evaluates anything
// itself.
//
// Two search modes share the refinement machinery:
//
//   - Directed (the metric's monotone direction in the knob is proven): probe
//     the least-feasible endpoint first — if it satisfies the target the whole
//     interval does and the plan ends in one probe — then march toward the
//     other end through the closed-form seeds and a geometric ladder until
//     the first feasible point brackets the answer. Every probe stays near
//     the previous one, so warm-started evaluators pay a few iterations per
//     probe.
//   - Undirected (direction unproven): probe both endpoints, infer the
//     direction from them, and bisect the straddling bracket.
type planner struct {
	spec   Spec
	lo, hi float64 // resolved search interval
	want   int     // +1: need metric >= target, -1: <=
	dir    int     // monotone direction of metric in knob (0 until known)

	phase phase
	pend  float64   // knob value of the outstanding probe
	seeds []float64 // closed-form interior seeds, unprobed

	// Directed-mode march: e0 is the least-feasible endpoint, e1 the most
	// feasible one, sgn the direction of travel from e0 to e1.
	e0, e1, sgn  float64
	e0Val, e1Val float64

	// Undirected-mode endpoint observations.
	loVal, hiVal   float64
	loMet, hiMet   eval.Metrics
	loFeas, hiFeas bool

	// Refinement bracket: a is the infeasible end (ga < 0), b the feasible
	// end (gb >= 0), where g = want·(value - target). feasVal/feasMet are
	// the observation at b. lastMoved drives the Illinois halving.
	a, b      float64
	ga, gb    float64
	feasVal   float64
	feasMet   eval.Metrics
	lastMoved int

	probes, solves int
	trace          []Probe

	finished bool
	res      Result
	err      error
}

type phase int

const (
	phaseNear   phase = iota // directed: least-feasible endpoint
	phaseExpand              // directed: seeds + geometric ladder toward e1
	phaseLo                  // undirected: low endpoint
	phaseHi                  // undirected: high endpoint
	phaseSeed                // undirected: seeds inside the bracket
	phaseRefine              // both: false position / bisection
)

// newPlanner validates the spec and primes the first probe.
func newPlanner(spec Spec) (*planner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &planner{spec: spec, want: +1, dir: direction(spec.Metric, spec.Knob)}
	if spec.Relation == AtMost {
		p.want = -1
	}
	p.lo, p.hi = spec.bracket()
	p.seeds = seedPoints(spec)
	if p.dir != 0 {
		// Feasibility is monotone along the knob: it is lowest at lo when it
		// grows with the knob (dir·want > 0), at hi otherwise.
		if p.dir*p.want > 0 {
			p.e0, p.e1, p.sgn = p.lo, p.hi, +1
		} else {
			p.e0, p.e1, p.sgn = p.hi, p.lo, -1
		}
		sortTowards(p.seeds, p.sgn)
		p.phase = phaseNear
		p.pend = p.e0
	} else {
		p.phase = phaseLo
		p.pend = p.lo
	}
	return p, nil
}

// sortTowards orders seeds in the direction of travel (ascending when sgn is
// +1, descending otherwise); the lists are tiny, insertion sort suffices.
func sortTowards(xs []float64, sgn float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && (xs[j]-xs[j-1])*sgn < 0; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// config is the probe configuration the planner is waiting on.
func (p *planner) config() eval.Config { return p.spec.configAt(p.pend) }

// done reports whether the plan has concluded (successfully or not).
func (p *planner) done() bool { return p.finished }

// finish returns the plan's outcome; valid once done.
func (p *planner) finish() (Result, error) {
	if !p.finished {
		panic("inverse: finish before done")
	}
	return p.res, p.err
}

// observe folds the outstanding probe's outcome in and advances to the next
// probe or to completion.
func (p *planner) observe(m eval.Metrics, err error) {
	if p.finished {
		panic("inverse: observe after done")
	}
	if err != nil {
		p.fail(fmt.Errorf("inverse: probing %s = %v: %w", p.spec.Knob, p.pend, err))
		return
	}
	v := p.spec.Metric.Read(m)
	g := float64(p.want) * (v - p.spec.Target)
	p.probes++
	p.solves += m.Solves
	p.trace = append(p.trace, Probe{Knob: p.pend, Value: v, Feasible: g >= 0, Solves: m.Solves})
	switch p.phase {
	case phaseNear:
		p.e0Val = v
		if g >= 0 {
			// The least feasible point satisfies the target: the whole
			// interval does, and e0 is also the objective's extremum.
			bind := AtLo
			if p.e0 == p.hi {
				bind = AtHi
			}
			p.conclude(p.e0, v, m, p.objective(), bind)
			return
		}
		p.a, p.ga = p.e0, g
		p.phase = phaseExpand
		p.advanceExpand()
	case phaseExpand:
		if g >= 0 {
			p.b, p.gb, p.feasVal, p.feasMet = p.pend, g, v, m
			p.phase = phaseRefine
			p.advance()
			return
		}
		p.a, p.ga = p.pend, g
		if p.pend == p.e1 {
			p.e1Val = v
			p.failInfeasible()
			return
		}
		p.advanceExpand()
	case phaseLo:
		p.loVal, p.loMet, p.loFeas = v, m, g >= 0
		p.phase = phaseHi
		p.issue(p.hi)
	case phaseHi:
		p.hiVal, p.hiMet, p.hiFeas = v, m, g >= 0
		p.afterEndpoints()
	case phaseSeed, phaseRefine:
		p.update(p.pend, v, g, m)
	}
}

// issue stakes the next probe, enforcing the budget.
func (p *planner) issue(knob float64) {
	if p.probes >= p.spec.maxProbes() {
		p.fail(fmt.Errorf("inverse: probe budget %d exhausted searching %s in [%v, %v]; raise MaxProbes or loosen KnobTol",
			p.spec.maxProbes(), p.spec.Knob, p.lo, p.hi))
		return
	}
	p.pend = knob
}

// advanceExpand picks the next march point toward e1: the nearest unprobed
// seed still ahead of the infeasible frontier, then a geometric ladder.
func (p *planner) advanceExpand() {
	for len(p.seeds) > 0 {
		s := p.seeds[0]
		p.seeds = p.seeds[1:]
		if p.spec.Knob.Integer() {
			s = math.Round(s)
		}
		if (s-p.a)*p.sgn > 0 && (p.e1-s)*p.sgn > 0 {
			p.issue(s)
			return
		}
	}
	p.issue(p.ladderNext())
}

// ladderNext doubles (or halves) the infeasible frontier toward e1, snapping
// to e1 once the step would pass or crowd it. A zero frontier falls back to
// bisection toward e1.
func (p *planner) ladderNext() float64 {
	x := p.a * 2
	if p.sgn < 0 {
		x = p.a / 2
	}
	if p.a == 0 {
		x = (p.a + p.e1) / 2
	}
	if p.spec.Knob.Integer() {
		x = math.Round(x)
		if x == p.a {
			x = p.a + p.sgn
		}
	} else if math.Abs(x-p.e1) <= p.tolAbs() || math.Abs(p.a-p.e1) <= 2*p.tolAbs() {
		x = p.e1
	}
	if (x-p.e1)*p.sgn >= 0 {
		x = p.e1
	}
	return x
}

// tolAbs is the absolute convergence width of the bracket.
func (p *planner) tolAbs() float64 {
	return p.spec.knobTol() * math.Max(1, math.Max(math.Abs(p.lo), math.Abs(p.hi)))
}

// afterEndpoints classifies the interval once both ends are observed
// (undirected mode): fully feasible (constraint not binding), fully
// infeasible (no answer), or straddling (refine the bracket).
func (p *planner) afterEndpoints() {
	if p.dir == 0 {
		switch {
		case p.hiVal > p.loVal:
			p.dir = +1
		case p.hiVal < p.loVal:
			p.dir = -1
		}
	}
	switch {
	case p.loFeas && p.hiFeas:
		if p.objective() == Maximize {
			p.conclude(p.hi, p.hiVal, p.hiMet, Maximize, AtHi)
		} else {
			p.conclude(p.lo, p.loVal, p.loMet, Minimize, AtLo)
		}
	case !p.loFeas && !p.hiFeas:
		p.e0Val, p.e1Val = p.loVal, p.hiVal
		p.e0, p.e1 = p.lo, p.hi
		p.failInfeasible()
	default:
		gLo := float64(p.want) * (p.loVal - p.spec.Target)
		gHi := float64(p.want) * (p.hiVal - p.spec.Target)
		if p.loFeas {
			p.b, p.gb, p.feasVal, p.feasMet = p.lo, gLo, p.loVal, p.loMet
			p.a, p.ga = p.hi, gHi
		} else {
			p.b, p.gb, p.feasVal, p.feasMet = p.hi, gHi, p.hiVal, p.hiMet
			p.a, p.ga = p.lo, gLo
		}
		p.phase = phaseSeed
		p.advance()
	}
}

// update narrows the bracket with an interior observation. A feasible probe
// replaces the feasible end, an infeasible one the infeasible end; either way
// the bracket shrinks and keeps straddling the target.
func (p *planner) update(x, v, g float64, m eval.Metrics) {
	if g >= 0 {
		p.b, p.gb, p.feasVal, p.feasMet = x, g, v, m
		if p.lastMoved == +1 {
			p.ga *= 0.5 // Illinois: stop the infeasible end from stagnating
		}
		p.lastMoved = +1
	} else {
		p.a, p.ga = x, g
		if p.lastMoved == -1 {
			p.gb *= 0.5
		}
		p.lastMoved = -1
	}
	p.advance()
}

// advance picks the next interior probe: first any closed-form seed still
// strictly inside the bracket, then false-position/bisection until the
// bracket is converged.
func (p *planner) advance() {
	if p.converged() {
		p.conclude(p.b, p.feasVal, p.feasMet, p.objective(), Interior)
		return
	}
	inLo, inHi := math.Min(p.a, p.b), math.Max(p.a, p.b)
	for p.phase == phaseSeed {
		if len(p.seeds) == 0 {
			p.phase = phaseRefine
			break
		}
		s := p.seeds[0]
		p.seeds = p.seeds[1:]
		if p.spec.Knob.Integer() {
			s = math.Round(s)
		}
		if s > inLo && s < inHi {
			p.issue(s)
			return
		}
	}
	p.phase = phaseRefine
	p.issue(p.nextProbe())
}

// converged reports whether the bracket is tight enough to answer.
func (p *planner) converged() bool {
	w := math.Abs(p.b - p.a)
	if p.spec.Knob.Integer() {
		return w <= 1
	}
	return w <= p.tolAbs()
}

// nextProbe is the Illinois false-position point, falling back to bisection
// whenever the secant step leaves the open bracket.
func (p *planner) nextProbe() float64 {
	if p.spec.Knob.Integer() {
		return math.Round((p.a + p.b) / 2)
	}
	inLo, inHi := math.Min(p.a, p.b), math.Max(p.a, p.b)
	x := (p.a*p.gb - p.b*p.ga) / (p.gb - p.ga)
	if !(x > inLo && x < inHi) || math.IsNaN(x) {
		x = (p.a + p.b) / 2
	}
	return x
}

// objective derives the optimization sense from the (known or inferred)
// monotone direction: feasibility growing with the knob means the boundary
// is a minimum.
func (p *planner) objective() Objective {
	if p.dir*p.want < 0 {
		return Maximize
	}
	return Minimize
}

// conclude finalizes a successful plan.
func (p *planner) conclude(knob, val float64, m eval.Metrics, obj Objective, bind Binding) {
	lo, hi := math.Min(p.a, p.b), math.Max(p.a, p.b)
	if bind != Interior {
		lo, hi = p.lo, p.hi
	}
	p.res = Result{
		Knob: knob, Metrics: m, Achieved: val,
		Objective: obj, Binding: bind,
		Lo: lo, Hi: hi,
		Probes: p.probes, Solves: p.solves,
		Trace: p.trace,
	}
	p.finished = true
}

// failInfeasible finalizes with the endpoint diagnosis. e0/e1 and their
// values are set by both search modes before calling.
func (p *planner) failInfeasible() {
	loVal, hiVal := p.e0Val, p.e1Val
	if p.e0 > p.e1 {
		loVal, hiVal = p.e1Val, p.e0Val
	}
	p.fail(&InfeasibleError{
		Knob: p.spec.Knob.String(), Metric: p.spec.Metric.String(),
		Relation: p.spec.Relation, Target: p.spec.Target,
		Lo: p.lo, Hi: p.hi, LoValue: loVal, HiValue: hiVal,
	})
}

// fail finalizes an unsuccessful plan.
func (p *planner) fail(err error) {
	p.err = err
	p.finished = true
}

// seedPoints derives closed-form first guesses for the knob from the Eq. 4/5
// bottleneck analysis, so bracketing starts near the answer instead of
// marching blind:
//
//   - nt: the latency-hiding thread count — one no-contention cycle
//     (R + C + L + p·round-trip) divided by the busy time per cycle — and
//     its double, bracketing the knee from both sides.
//   - premote: the critical and saturation values of Eq. 5, the knees of
//     U_p(p_remote).
//   - r: the runlength at which the network round trip is fully hidden
//     (critical condition of Eq. 5 solved for R).
//
// Seeds are best-effort: out-of-bracket or duplicate values are skipped at
// plan time, and an analysis failure just means no seeds.
func seedPoints(spec Spec) []float64 {
	cfg := spec.Base
	if spec.Knob.String() == "premote" && cfg.PRemote == 0 {
		cfg.PRemote = 0.5 // open the p>0 gates of the analysis
	}
	an, err := bottleneck.Analyze(cfg)
	if err != nil {
		return nil
	}
	busy := cfg.Runlength + cfg.ContextSwitch
	switch spec.Knob.String() {
	case "nt":
		cycle := busy + cfg.MemoryTime + cfg.PRemote*an.RoundTripSwitchTime
		n := math.Ceil(cycle / busy)
		return []float64{n, 2 * n}
	case "premote":
		return []float64{an.CriticalPRemote, an.SaturationPRemote}
	case "r":
		return []float64{cfg.PRemote * an.RoundTripSwitchTime}
	}
	return nil
}
