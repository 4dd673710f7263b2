package serve

import (
	"context"
	"net/http"
	"strings"

	"lattol/internal/inverse"
	"lattol/internal/mms"
	"lattol/internal/validate"
)

// refuseInertParam is the one rule for a parameter that has no effect on the
// model: psw under the uniform pattern. Choosing it as a sweep parameter,
// plan knob or frontier parameter is a 400 naming the wire field that chose
// it, since every point would solve the same system.
func refuseInertParam(cfg mms.Config, p mms.Param, typ, field string) error {
	if cfg.Uniform && p.String() == "psw" {
		return validate.Fieldf(typ, field, "= psw under the uniform pattern; psw has no effect there")
	}
	return nil
}

// planSpec canonicalizes the request into an inverse.Spec. Validation
// errors are field-named against the wire fields.
func planSpec(r *PlanRequest) (inverse.Spec, error) {
	cfg, solver, err := components(&r.ModelRequest)
	if err != nil {
		return inverse.Spec{}, err
	}
	if r.MaxError != 0 {
		// Plan probes must be exact: a bracketed root-find over interpolated
		// answers could bracket the interpolation error instead of the root.
		return inverse.Spec{}, validate.Fieldf("serve.PlanRequest", "max_error",
			"= %v; plans probe exactly, max_error must be omitted", r.MaxError)
	}
	if err := validateConfig(cfg); err != nil {
		return inverse.Spec{}, err
	}
	knob, err := mms.ParseParam(r.Knob)
	if err != nil {
		return inverse.Spec{}, validate.Fieldf("serve.PlanRequest", "knob", "= %q, want one of %s",
			r.Knob, strings.Join(mms.ParamNames(), ", "))
	}
	if err := refuseInertParam(cfg, knob, "serve.PlanRequest", "knob"); err != nil {
		return inverse.Spec{}, err
	}
	metric, err := inverse.ParseMetric(r.Metric)
	if err != nil {
		return inverse.Spec{}, validate.Fieldf("serve.PlanRequest", "metric", "= %q, want one of %s",
			r.Metric, strings.Join(inverse.MetricNames(), ", "))
	}
	rel, err := inverse.ParseRelation(r.Relation)
	if err != nil {
		return inverse.Spec{}, validate.Fieldf("serve.PlanRequest", "relation", "= %q, want >= or <=", r.Relation)
	}
	sp := inverse.Spec{
		Base:      cfg,
		Solver:    solver,
		Knob:      knob,
		Metric:    metric,
		Target:    r.Target,
		Relation:  rel,
		Lo:        r.KnobMin,
		Hi:        r.KnobMax,
		KnobTol:   r.KnobTol,
		MaxProbes: r.MaxProbes,
	}
	// Probes skip request validation, so a knob that sizes the model keeps
	// its search below the wire's model-size cap: the default domain is
	// narrowed to it, an explicit bound beyond it is rejected.
	if c := knobCap(knob); c > 0 {
		if lo, hi := sp.Bracket(); hi > c {
			if r.KnobMin != 0 || r.KnobMax != 0 {
				return inverse.Spec{}, validate.Fieldf("serve.PlanRequest", "knob_max",
					"= %v, want <= %v for knob %s (the model-size cap)", r.KnobMax, c, knob)
			}
			sp.Lo, sp.Hi = lo, c
		}
	}
	return sp, nil
}

// frontierSpec extends planSpec with the swept second parameter.
func frontierSpec(r *PlanRequest) (inverse.FrontierSpec, error) {
	sp, err := planSpec(r)
	if err != nil {
		return inverse.FrontierSpec{}, err
	}
	f := r.Frontier
	fs := inverse.FrontierSpec{Spec: sp, From: f.From, To: f.To, Steps: f.Steps}
	if f.Param == "" {
		return inverse.FrontierSpec{}, validate.Fieldf("serve.PlanRequest", "frontier.param",
			"required, want one of %s", strings.Join(mms.ParamNames(), ", "))
	}
	sweep, err := mms.ParseParam(f.Param)
	if err != nil {
		return inverse.FrontierSpec{}, validate.Fieldf("serve.PlanRequest", "frontier.param",
			"= %q, want one of %s", f.Param, strings.Join(mms.ParamNames(), ", "))
	}
	fs.Sweep = sweep
	if c := knobCap(sweep); c > 0 {
		if f.From > c {
			return inverse.FrontierSpec{}, validate.Fieldf("serve.PlanRequest", "frontier.from",
				"= %v, want <= %v for param %s (the model-size cap)", f.From, c, sweep)
		}
		if f.To > c {
			return inverse.FrontierSpec{}, validate.Fieldf("serve.PlanRequest", "frontier.to",
				"= %v, want <= %v for param %s (the model-size cap)", f.To, c, sweep)
		}
	}
	if err := refuseInertParam(sp.Base, sweep, "serve.PlanRequest", "frontier.param"); err != nil {
		return inverse.FrontierSpec{}, err
	}
	return fs, nil
}

// maxPlanFrontierSteps bounds one frontier request; the same cap the sweep
// endpoint applies comes from Config.MaxSweepPoints at call time.
func (e *Evaluator) maxPlanFrontierSteps() int { return e.cfg.MaxSweepPoints }

// Plan answers one inverse question through the cache and worker pool. The
// per-plan probe count is recorded in the metrics' probe histogram.
func (e *Evaluator) Plan(ctx context.Context, r PlanRequest) (inverse.Result, error) {
	sp, err := planSpec(&r)
	if err != nil {
		return inverse.Result{}, err
	}
	res, err := inverse.Solve(ctx, &planEvaluator{e: e}, sp)
	if err != nil {
		if _, ok := err.(*inverse.InfeasibleError); ok {
			e.met.plansInfeasible.Add(1)
		}
		return inverse.Result{}, err
	}
	e.met.plansSolved.Add(1)
	e.met.planProbes.observe(uint64(res.Probes))
	return res, nil
}

// PlanFrontier answers the two-knob version: the plan re-solved at every
// swept value, with each lockstep round of probes batched through the worker
// pool. Points fail independently (e.g. an infeasible sweep value carries
// *inverse.InfeasibleError); the returned error is an envelope error.
func (e *Evaluator) PlanFrontier(ctx context.Context, r PlanRequest) ([]inverse.FrontierPoint, error) {
	fs, err := frontierSpec(&r)
	if err != nil {
		return nil, err
	}
	if fs.Steps < 1 || fs.Steps > e.maxPlanFrontierSteps() {
		return nil, validate.Fieldf("serve.PlanRequest", "frontier.steps",
			"= %d, want in [1,%d]", fs.Steps, e.maxPlanFrontierSteps())
	}
	pts, err := inverse.Frontier(ctx, &planEvaluator{e: e}, fs)
	if err != nil {
		return nil, err
	}
	for i := range pts {
		switch {
		case pts[i].Err == nil:
			e.met.plansSolved.Add(1)
			e.met.planProbes.observe(uint64(pts[i].Result.Probes))
		default:
			if _, ok := pts[i].Err.(*inverse.InfeasibleError); ok {
				e.met.plansInfeasible.Add(1)
			}
		}
	}
	return pts, nil
}

// planResponse renders one inverse result.
func planResponse(r PlanRequest, res inverse.Result, withTrace bool) *PlanResponse {
	rel, _ := inverse.ParseRelation(r.Relation)
	resp := &PlanResponse{
		Knob:      r.Knob,
		Metric:    r.Metric,
		Relation:  rel.String(),
		Target:    r.Target,
		Value:     res.Knob,
		Achieved:  res.Achieved,
		Objective: res.Objective.String(),
		Binding:   res.Binding.String(),
		BracketLo: res.Lo,
		BracketHi: res.Hi,
		Probes:    res.Probes,
		Solves:    res.Solves,
		Metrics:   metricsBody(res.Metrics.Metrics),
	}
	if res.Metrics.TolNetwork != 0 || r.Metric == "tol_network" {
		v := res.Metrics.TolNetwork
		resp.TolNetwork = &v
	}
	if res.Metrics.TolMemory != 0 || r.Metric == "tol_memory" {
		v := res.Metrics.TolMemory
		resp.TolMemory = &v
	}
	if withTrace {
		resp.Trace = make([]PlanProbe, len(res.Trace))
		for i, p := range res.Trace {
			resp.Trace[i] = PlanProbe{Knob: p.Knob, Value: p.Value, Feasible: p.Feasible, Solves: p.Solves}
		}
	}
	return resp
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.eval.met.requestsPlan.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var req PlanRequest
	if err := decodeStrict(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// A plan routes on its base model's solve key: every probe perturbs that
	// configuration, so the owner of the base is the node whose cache the
	// probes will revisit. (Probe keys themselves may hash elsewhere; routing
	// the plan wholesale keeps one plan = one node = one warm workspace.)
	if k, err := SolveKey(req.ModelRequest); err == nil && s.routeKeyed(w, r, k.hash(), body) {
		return
	}
	ctx, cancel := s.reqContext(r)
	defer cancel()
	if req.Frontier != nil {
		pts, err := s.eval.PlanFrontier(ctx, req)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		resp := PlanFrontierResponse{Param: req.Frontier.Param, Knob: req.Knob,
			Points: make([]PlanFrontierPoint, len(pts))}
		for i := range pts {
			resp.Points[i].Sweep = pts[i].Sweep
			if err := pts[i].Err; err != nil {
				resp.Points[i].Error = &ErrorBody{
					Status:  statusFor(err),
					Message: err.Error(),
					Field:   wireField(validate.Field(err)),
				}
				continue
			}
			resp.Points[i].Plan = planResponse(req, pts[i].Result, req.Trace)
		}
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	res, err := s.eval.Plan(ctx, req)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, planResponse(req, res, req.Trace))
}
