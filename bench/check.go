package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	lattolclient "lattol/internal/client"
	"lattol/internal/mms"
	"lattol/internal/tolerance"
)

// The answer check compares sampled responses with an in-process reference:
// the same solver (symmetric AMVA) converged to 1e-12 instead of the
// service's 1e-10, solved cold on every call.

// refTolerance is the reference solver's convergence threshold.
const refTolerance = 1e-12

// exactBand is the relative agreement demanded of an exact answer. The
// service stops at a 1e-10 queue-length residual from a warm start, so its
// answers differ from the reference by far less than this: the largest gap
// over ~170k checked responses of every workload (seeds 1–3) was 6e-10. A
// gap this wide is a wrong answer, not solver noise.
const exactBand = 1e-6

// checker verifies sampled responses of one workload's stream.
type checker struct {
	w *workload
	s *stream
}

// verify checks every sample, spread over one goroutine per CPU, and
// returns the mismatches found (the first few described in msgs).
func (c checker) verify(samples []sample) (mismatches int, msgs []string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan sample)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for smp := range work {
				if err := c.check(smp); err != nil {
					mu.Lock()
					mismatches++
					if len(msgs) < 5 {
						msgs = append(msgs, fmt.Sprintf("request %d: %v", smp.index, err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, smp := range samples {
		work <- smp
	}
	close(work)
	wg.Wait()
	return mismatches, msgs
}

// check regenerates a sample's request from its stream index and verifies
// the response body against the reference.
func (c checker) check(smp sample) error {
	req := c.w.next(c.s, smp.index)
	switch req.kind {
	case kindSolve:
		var resp lattolclient.SolveResponse
		if err := decodeBody(smp.body, &resp); err != nil {
			return err
		}
		return checkSolve(req.model, resp)
	case kindTolerance:
		var resp lattolclient.ToleranceResponse
		if err := decodeBody(smp.body, &resp); err != nil {
			return err
		}
		return checkTolerance(req.model, resp)
	case kindBatch:
		var resp lattolclient.BatchResponse
		if err := decodeBody(smp.body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(req.items) {
			return fmt.Errorf("batch: %d results for %d items", len(resp.Results), len(req.items))
		}
		for i, item := range req.items {
			res := resp.Results[i]
			var err error
			switch {
			case res.Error != nil:
				err = fmt.Errorf("error %d: %s", res.Error.Status, res.Error.Message)
			case item.Op == "tolerance" && res.Tolerance != nil:
				err = checkTolerance(item.ModelRequest, *res.Tolerance)
			case item.Op == "" && res.Solve != nil:
				err = checkSolve(item.ModelRequest, *res.Solve)
			default:
				err = fmt.Errorf("result does not match op %q", item.Op)
			}
			if err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	case kindSweep:
		var resp sweepResponse
		if err := decodeBody(smp.body, &resp); err != nil {
			return err
		}
		return checkSweep(req.model, resp)
	default:
		var resp lattolclient.PlanResponse
		if err := decodeBody(smp.body, &resp); err != nil {
			return err
		}
		return checkPlan(req.model, resp)
	}
}

func decodeBody(body []byte, dst any) error {
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("malformed response: %w", err)
	}
	return nil
}

// sweepResponse is the wire body of a successful POST /v1/sweep.
type sweepResponse struct {
	Param  string `json:"param"`
	Points []struct {
		Value      float64                  `json:"value"`
		Metrics    lattolclient.MetricsBody `json:"metrics"`
		TolNetwork float64                  `json:"tol_network"`
		TolMemory  float64                  `json:"tol_memory"`
	} `json:"points"`
}

// config is the solver configuration a generated model request denotes.
func config(m lattolclient.ModelRequest) mms.Config {
	return mms.Config{
		K:          m.K,
		Threads:    m.Threads,
		Runlength:  m.Runlength,
		MemoryTime: m.MemoryTime,
		SwitchTime: m.SwitchTime,
		PRemote:    m.PRemote,
		Psw:        m.Psw,
	}
}

func refSolve(cfg mms.Config) (mms.Metrics, error) {
	model, err := mms.Build(cfg)
	if err != nil {
		return mms.Metrics{}, err
	}
	return model.Solve(mms.SolveOptions{Tolerance: refTolerance})
}

func refIndex(cfg mms.Config, sub tolerance.Subsystem, mode tolerance.IdealMode) (tolerance.Index, error) {
	return tolerance.Compute(cfg, sub, mode, mms.SolveOptions{Tolerance: refTolerance})
}

// relErr is |got − want| relative to |want| (absolute when want is 0).
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if w := math.Abs(want); w > 0 {
		return d / w
	}
	return d
}

// agree checks one value against the reference within a certified relative
// bound (0 for exact answers), widened by exactBand for the solver noise on
// both sides.
func agree(field string, got, want, bound float64) error {
	if e := relErr(got, want); !(e <= bound*(1+exactBand)+exactBand) {
		return fmt.Errorf("%s = %.17g, reference %.17g: relative error %.3g beyond %.3g", field, got, want, e, bound)
	}
	return nil
}

// checkMetrics compares every interpolable measure; Iterations depends on
// the warm start and is not part of the answer.
func checkMetrics(got lattolclient.MetricsBody, want mms.Metrics, bound float64) error {
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"u_p", got.Up, want.Up},
		{"lambda", got.LambdaProc, want.LambdaProc},
		{"lambda_net", got.LambdaNet, want.LambdaNet},
		{"s_obs", got.SObs, want.SObs},
		{"l_obs", got.LObs, want.LObs},
		{"cycle_time", got.CycleTime, want.CycleTime},
		{"mem_utilization", got.MemUtilization, want.MemUtilization},
		{"out_utilization", got.OutUtilization, want.OutUtilization},
		{"in_utilization", got.InUtilization, want.InUtilization},
	} {
		if err := agree(f.name, f.got, f.want, bound); err != nil {
			return err
		}
	}
	return nil
}

// checkSolve verifies a solve answer: exact, or within its own certified
// error_bound when the surrogate tier served it (never beyond max_error).
func checkSolve(m lattolclient.ModelRequest, resp lattolclient.SolveResponse) error {
	if resp.ErrorBound > m.MaxError {
		return fmt.Errorf("error_bound %v exceeds max_error %v", resp.ErrorBound, m.MaxError)
	}
	want, err := refSolve(config(m))
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	return checkMetrics(resp.Metrics, want, resp.ErrorBound)
}

// checkTolerance verifies a network tolerance answer (the default subsystem
// and mode of every generated tolerance request).
func checkTolerance(m lattolclient.ModelRequest, resp lattolclient.ToleranceResponse) error {
	if resp.Subsystem != "network" || resp.Mode != "zero-remote" {
		return fmt.Errorf("subsystem/mode = %s/%s, want network/zero-remote", resp.Subsystem, resp.Mode)
	}
	want, err := refIndex(config(m), tolerance.Network, tolerance.ZeroRemote)
	if err != nil {
		return fmt.Errorf("reference tolerance: %w", err)
	}
	if zone := tolerance.Classify(resp.Tol).String(); resp.Zone != zone {
		return fmt.Errorf("zone %q for tol %v, want %q", resp.Zone, resp.Tol, zone)
	}
	if err := agree("tol", resp.Tol, want.Tol, 0); err != nil {
		return err
	}
	if err := checkMetrics(resp.Real, want.Real, 0); err != nil {
		return fmt.Errorf("real: %w", err)
	}
	if err := checkMetrics(resp.Ideal, want.Ideal, 0); err != nil {
		return fmt.Errorf("ideal: %w", err)
	}
	return nil
}

// checkSweep verifies every point of a p_remote sweep one by one.
func checkSweep(base lattolclient.ModelRequest, resp sweepResponse) error {
	knob, err := mms.ParseParam("premote")
	if err != nil {
		return err
	}
	values := knob.Grid(0.05, 0.9, sweepSteps)
	if resp.Param != "premote" || len(resp.Points) != len(values) {
		return fmt.Errorf("sweep: param %q with %d points, want premote with %d", resp.Param, len(resp.Points), len(values))
	}
	for i, p := range resp.Points {
		if p.Value != values[i] {
			return fmt.Errorf("sweep point %d: value %v, want %v", i, p.Value, values[i])
		}
		cfg := config(base)
		knob.Apply(&cfg, p.Value)
		net, err := refIndex(cfg, tolerance.Network, tolerance.ZeroRemote)
		if err != nil {
			return fmt.Errorf("sweep point %d: reference: %w", i, err)
		}
		mem, err := refIndex(cfg, tolerance.Memory, tolerance.ZeroDelay)
		if err != nil {
			return fmt.Errorf("sweep point %d: reference: %w", i, err)
		}
		if err := checkMetrics(p.Metrics, net.Real, 0); err != nil {
			return fmt.Errorf("sweep point %d: %w", i, err)
		}
		if err := agree("tol_network", p.TolNetwork, net.Tol, 0); err != nil {
			return fmt.Errorf("sweep point %d: %w", i, err)
		}
		if err := agree("tol_memory", p.TolMemory, mem.Tol, 0); err != nil {
			return fmt.Errorf("sweep point %d: %w", i, err)
		}
	}
	return nil
}

// checkPlan verifies a "threads for tol_network >= planTarget" answer by
// forward evaluation, as conformance.CheckPlanOn certifies a plan: the
// returned thread count must reach the target with the reported value, and
// for an interior answer the other end of the final bracket — the adjacent
// thread count — must miss it.
func checkPlan(base lattolclient.ModelRequest, resp lattolclient.PlanResponse) error {
	at := func(threads float64) (float64, error) {
		cfg := config(base)
		cfg.Threads = int(threads)
		idx, err := refIndex(cfg, tolerance.Network, tolerance.ZeroRemote)
		return idx.Tol, err
	}
	if resp.Value != math.Trunc(resp.Value) || resp.Value < 1 {
		return fmt.Errorf("plan: thread count %v is not a positive integer", resp.Value)
	}
	if resp.TolNetwork == nil || *resp.TolNetwork != resp.Achieved {
		return fmt.Errorf("plan: tol_network does not report the achieved %v", resp.Achieved)
	}
	v, err := at(resp.Value)
	if err != nil {
		return fmt.Errorf("plan: reference at nt=%v: %w", resp.Value, err)
	}
	if err := agree("plan achieved", resp.Achieved, v, 0); err != nil {
		return err
	}
	if v < planTarget-exactBand {
		return fmt.Errorf("plan: nt=%v reaches tol_network %v, below the target %v", resp.Value, v, planTarget)
	}
	switch resp.Binding {
	case "interior":
		other := resp.BracketLo
		if other == resp.Value {
			other = resp.BracketHi
		}
		if math.Abs(other-resp.Value) != 1 {
			return fmt.Errorf("plan: final bracket [%v, %v] is not adjacent thread counts", resp.BracketLo, resp.BracketHi)
		}
		ov, err := at(other)
		if err != nil {
			return fmt.Errorf("plan: reference at nt=%v: %w", other, err)
		}
		if ov > planTarget+exactBand {
			return fmt.Errorf("plan: nt=%v is not minimal, nt=%v already reaches %v", resp.Value, other, ov)
		}
	case "at-lo":
		if resp.Value != resp.BracketLo {
			return fmt.Errorf("plan: binding at-lo but value %v != bracket_lo %v", resp.Value, resp.BracketLo)
		}
	default:
		return fmt.Errorf("plan: binding %q for a thread-count minimization", resp.Binding)
	}
	return nil
}
