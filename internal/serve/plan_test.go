package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"lattol/internal/bottleneck"
	"lattol/internal/topology"
)

// planBody is the default-model plan: threads needed for network tolerance
// ≥ 0.95 — the README's quickstart question.
const planBody = `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5,` +
	`"knob":"nt","metric":"tol_network","target":0.95,"trace":true}`

func TestServerPlanOK(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/plan", planBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out PlanResponse
	decodeBody(t, resp, &out)
	if out.Knob != "nt" || out.Metric != "tol_network" || out.Relation != ">=" {
		t.Errorf("echo = %s/%s/%s, want nt/tol_network/>=", out.Knob, out.Metric, out.Relation)
	}
	if out.Value != 12 {
		t.Errorf("value = %v, want 12 (threads for tol_network >= 0.95 on the default model)", out.Value)
	}
	if out.Binding != "interior" || out.Objective != "min" {
		t.Errorf("binding/objective = %s/%s, want interior/min", out.Binding, out.Objective)
	}
	if out.Achieved < 0.95 {
		t.Errorf("achieved = %v, want >= target 0.95", out.Achieved)
	}
	if out.TolNetwork == nil || *out.TolNetwork != out.Achieved {
		t.Errorf("tol_network = %v, want the achieved value %v", out.TolNetwork, out.Achieved)
	}
	if out.Probes < 2 || len(out.Trace) != out.Probes {
		t.Errorf("probes = %d with %d trace entries, want a full trace", out.Probes, len(out.Trace))
	}
	if out.Solves == 0 {
		t.Error("solves = 0 on a cold cache, want > 0")
	}
	if out.Metrics.Up <= 0 || out.Metrics.Up > 1 {
		t.Errorf("metrics.u_p = %v, want in (0,1]", out.Metrics.Up)
	}
}

// TestServerPlanCacheParticipation verifies plan probes live in the shared
// LRU: repeating a plan re-probes entirely from cache (zero solves), and the
// probe values match exactly.
func TestServerPlanCacheParticipation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/plan", planBody)
	var cold PlanResponse
	decodeBody(t, resp, &cold)

	hits := srv.Evaluator().Metrics().cacheHits.Load()
	resp = postJSON(t, ts.URL+"/v1/plan", planBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d, want 200", resp.StatusCode)
	}
	var warm PlanResponse
	decodeBody(t, resp, &warm)
	if warm.Solves != 0 {
		t.Errorf("repeat plan solves = %d, want 0 (every probe cached)", warm.Solves)
	}
	if warm.Value != cold.Value || warm.Achieved != cold.Achieved || warm.Probes != cold.Probes {
		t.Errorf("repeat plan = (%v, %v, %d probes), want identical to cold (%v, %v, %d probes)",
			warm.Value, warm.Achieved, warm.Probes, cold.Value, cold.Achieved, cold.Probes)
	}
	if got := srv.Evaluator().Metrics().cacheHits.Load(); got == hits {
		t.Error("repeat plan recorded no cache hits")
	}
}

func TestServerPlanInfeasible422(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := strings.Replace(planBody, `"target":0.95`, `"target":1.01`, 1)
	resp := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var out ErrorResponse
	decodeBody(t, resp, &out)
	if !strings.Contains(out.Error.Message, "no nt in") {
		t.Errorf("error.message = %q, want an infeasibility explanation naming the knob", out.Error.Message)
	}
}

func TestServerPlanValidation400s(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, body, field string
	}{
		{"unknown knob", strings.Replace(planBody, `"knob":"nt"`, `"knob":"warp"`, 1), "knob"},
		{"unknown metric", strings.Replace(planBody, `"metric":"tol_network"`, `"metric":"vibes"`, 1), "metric"},
		{"bad relation", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"relation":"~="`, 1), "relation"},
		{"max_error on a plan", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"max_error":0.01`, 1), "max_error"},
		{"inverted bounds", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"knob_min":8,"knob_max":2`, 1), "knob_min"},
		{"negative probes", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"max_probes":-1`, 1), "max_probes"},
		{"bad model", strings.Replace(planBody, `"threads":8`, `"threads":-8`, 1), "threads"},
		{"frontier missing param", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"frontier":{"param":"","from":0.1,"to":0.2,"steps":2}`, 1), "frontier.param"},
		{"frontier equals knob", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"frontier":{"param":"nt","from":1,"to":2,"steps":2}`, 1), "frontier.param"},
		{"frontier zero steps", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"frontier":{"param":"premote","from":0.1,"to":0.2,"steps":0}`, 1), "frontier.steps"},
		{"knob_max past the k cap", strings.Replace(planBody, `"knob":"nt"`, `"knob":"k","knob_min":2,"knob_max":20`, 1), "knob_max"},
		{"frontier past the k cap", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"frontier":{"param":"k","from":2,"to":32,"steps":2}`, 1), "frontier.to"},
		{"psw knob under the uniform pattern", strings.Replace(planBody, `"knob":"nt"`, `"pattern":"uniform","knob":"psw"`, 1), "knob"},
		{"psw frontier under the uniform pattern", strings.Replace(planBody, `"target":0.95`, `"target":0.95,"pattern":"uniform","frontier":{"param":"psw","from":0.1,"to":0.9,"steps":2}`, 1), "frontier.param"},
		{"frontier past the threads cap", strings.Replace(planBody, `"knob":"nt"`, `"knob":"r","frontier":{"param":"nt","from":20000,"to":8,"steps":2}`, 1), "frontier.from"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/plan", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var out ErrorResponse
			decodeBody(t, resp, &out)
			if out.Error.Field != tc.field {
				t.Errorf("error.field = %q (%s), want %q", out.Error.Field, out.Error.Message, tc.field)
			}
		})
	}
}

// TestPlanSpecKeepsUniformPattern: a uniform plan's base configuration
// carries its pattern, so the planner's closed-form seeds (the bottleneck
// analysis) use the uniform pattern's d_avg, not a geometric stand-in.
func TestPlanSpecKeepsUniformPattern(t *testing.T) {
	r := PlanRequest{ModelRequest: baseRequest(), Knob: "premote", Metric: "u_p", Target: 0.7}
	r.K, r.Pattern = 6, "uniform"
	sp, err := planSpec(&r)
	if err != nil {
		t.Fatal(err)
	}
	an, err := bottleneck.Analyze(sp.Base)
	if err != nil {
		t.Fatal(err)
	}
	if want := topology.MustTorus(6).MeanDistanceUniform(); !sp.Base.Uniform || an.DAvg != want {
		t.Errorf("plan base %+v: d_avg %v, want the uniform pattern's %v", sp.Base, an.DAvg, want)
	}
}

// TestServerPlanKnobCap runs a k plan over the knob's default domain [1,32],
// which reaches past the wire's model-size cap, and expects the search to
// stop at the cap: no probe solves a larger model. With no remote accesses
// u_p does not depend on k, so the target is unreachable and both bracket
// ends are probed.
func TestServerPlanKnobCap(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var maxK atomic.Int64
	srv.Evaluator().solveHook = func(k Key) {
		for {
			m := maxK.Load()
			if int64(k.cfg.K) <= m || maxK.CompareAndSwap(m, int64(k.cfg.K)) {
				return
			}
		}
	}
	body := `{"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0,` +
		`"knob":"k","metric":"u_p","target":0.01,"relation":"<="}`
	resp := postJSON(t, ts.URL+"/v1/plan", body)
	var out ErrorResponse
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s), want 422", resp.StatusCode, out.Error.Message)
	}
	if got := maxK.Load(); got != maxWireK {
		t.Errorf("largest solved k = %d, want the cap %d", got, maxWireK)
	}
}

// TestServerPlanFrontier sweeps p_remote below the Eq. 5 saturation point and
// expects the per-point thread requirement to be non-decreasing (more remote
// traffic needs more latency hiding), matching scalar plans point for point.
func TestServerPlanFrontier(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := strings.Replace(planBody, `"target":0.95`,
		`"target":0.9,"frontier":{"param":"premote","from":0.05,"to":0.2,"steps":4}`, 1)
	resp := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out PlanFrontierResponse
	decodeBody(t, resp, &out)
	if out.Param != "premote" || out.Knob != "nt" {
		t.Errorf("envelope = %s/%s, want premote/nt", out.Param, out.Knob)
	}
	if len(out.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(out.Points))
	}
	prev := 0.0
	for i, pt := range out.Points {
		if pt.Error != nil {
			t.Fatalf("point %d (premote=%v): %s", i, pt.Sweep, pt.Error.Message)
		}
		if pt.Plan.Value < prev {
			t.Errorf("point %d: nt = %v after %v; want non-decreasing in premote", i, pt.Plan.Value, prev)
		}
		prev = pt.Plan.Value

		// Cross-check against the scalar endpoint at the same premote.
		sb := strings.Replace(planBody, `"p_remote":0.2`, fmt.Sprintf(`"p_remote":%v`, pt.Sweep), 1)
		sb = strings.Replace(sb, `"target":0.95`, `"target":0.9`, 1)
		sresp := postJSON(t, ts.URL+"/v1/plan", sb)
		var scalar PlanResponse
		decodeBody(t, sresp, &scalar)
		if scalar.Value != pt.Plan.Value {
			t.Errorf("point %d: frontier nt = %v, scalar nt = %v", i, pt.Plan.Value, scalar.Value)
		}
	}
}

// TestServerPlanFrontierMixed verifies per-point failure isolation: sweep
// values beyond the saturation p_remote answer 422-style point errors while
// feasible neighbors still answer.
func TestServerPlanFrontierMixed(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := strings.Replace(planBody, `"target":0.95`,
		`"target":0.9,"frontier":{"param":"premote","from":0.1,"to":0.9,"steps":3}`, 1)
	resp := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (point failures are positional)", resp.StatusCode)
	}
	var out PlanFrontierResponse
	decodeBody(t, resp, &out)
	var ok, failed int
	for _, pt := range out.Points {
		switch {
		case pt.Error != nil:
			if pt.Error.Status != http.StatusUnprocessableEntity {
				t.Errorf("point premote=%v: status %d, want 422", pt.Sweep, pt.Error.Status)
			}
			failed++
		default:
			ok++
		}
	}
	if ok == 0 || failed == 0 {
		t.Errorf("ok=%d failed=%d, want a mix of answered and infeasible points", ok, failed)
	}
}

// TestServerPlanMetrics verifies the plan-specific observability surface:
// the endpoint counter, the outcome counters and the probe histogram.
func TestServerPlanMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	postJSON(t, ts.URL+"/v1/plan", planBody).Body.Close()
	infeasible := strings.Replace(planBody, `"target":0.95`, `"target":1.01`, 1)
	postJSON(t, ts.URL+"/v1/plan", infeasible).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp.Body)
	for _, want := range []string{
		`lattold_requests_total{endpoint="plan"} 2`,
		`lattold_plans_total{outcome="solved"} 1`,
		`lattold_plans_total{outcome="infeasible"} 1`,
		`lattold_plan_probes_count 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestServerSheds503DrainingRetryAfter is the load-shed regression test for
// the drain path: once the evaluator refuses new work, uncached requests
// come back 503 with a Retry-After hint, mirroring the 429 path.
func TestServerSheds503DrainingRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	srv.Evaluator().Close()

	for _, ep := range []string{"/v1/solve", "/v1/plan"} {
		body := validBody
		if ep == "/v1/plan" {
			body = planBody
		}
		resp := postJSON(t, ts.URL+ep, body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s during drain: status = %d, want 503", ep, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s during drain: 503 without Retry-After", ep)
		}
		resp.Body.Close()
	}
}

// readAll drains a reader into a string (tiny local helper to keep the
// metrics assertions readable).
func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
