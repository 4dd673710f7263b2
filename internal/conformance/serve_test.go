package conformance

import (
	"context"
	"fmt"
	"testing"

	"lattol/internal/mms"
	"lattol/internal/serve"
	"lattol/internal/tolerance"
)

// servePoint is one configuration of the serve-versus-direct comparison, in
// both its wire and its solver form.
type servePoint struct {
	req    serve.ModelRequest
	cfg    mms.Config
	solver mms.Solver
}

// servePoints is every golden configuration (symmetric AMVA) plus a few small
// full-AMVA and exact-MVA points.
func servePoints() []servePoint {
	var pts []servePoint
	add := func(cfg mms.Config, solver mms.Solver, name string) {
		pts = append(pts, servePoint{
			req: serve.ModelRequest{
				K: cfg.K, Threads: cfg.Threads, Runlength: cfg.Runlength,
				ContextSwitch: cfg.ContextSwitch, MemoryTime: cfg.MemoryTime,
				SwitchTime: cfg.SwitchTime, PRemote: cfg.PRemote, Psw: cfg.Psw,
				MemoryPorts: cfg.MemoryPorts, SwitchPorts: cfg.SwitchPorts, Solver: name,
			},
			cfg:    cfg,
			solver: solver,
		})
	}
	for _, cfg := range GoldenConfigs() {
		add(cfg, mms.SymmetricAMVA, "")
	}
	for _, c := range []struct {
		k, nt int
		p     float64
	}{{2, 3, 0.3}, {3, 4, 0.2}, {3, 2, 0.6}} {
		cfg := mms.DefaultConfig()
		cfg.K, cfg.Threads, cfg.PRemote = c.k, c.nt, c.p
		add(cfg, mms.FullAMVA, "full")
	}
	for _, c := range []struct {
		k, nt int
		p     float64
	}{{2, 2, 0.3}, {2, 3, 0.5}} {
		cfg := mms.DefaultConfig()
		cfg.K, cfg.Threads, cfg.PRemote = c.k, c.nt, c.p
		add(cfg, mms.ExactMVA, "exact")
	}
	return pts
}

// serveWant is the direct answer for one point: the plain solve plus both
// tolerance indices.
type serveWant struct {
	solve    mms.Metrics
	net, mem tolerance.Index
}

// TestServeMatchesDirectSolves pins the numbers lattold serves to the direct
// solvers. Every point goes through serve.Evaluator as a Solve, as Tolerance
// for the network and the memory subsystem, and as the same three items of
// one Batch. Evaluator a answers the single requests first (every one a miss,
// each warm-starting from the last on the worker) and then the batch (every
// item a cache hit); evaluator b answers the batch first (one lockstep solve)
// and then the single requests. Sweeps run on a after both, and on a fresh
// evaluator c (serveSweeps). Every metric except Iterations, and both
// indices, must agree with mms.Build(...).Solve and tolerance.Compute within
// 1e-9 relative.
func TestServeMatchesDirectSolves(t *testing.T) {
	pts := servePoints()
	want := make([]serveWant, len(pts))
	for i, p := range pts {
		opts := mms.SolveOptions{Solver: p.solver}
		model, err := mms.Build(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want[i].solve, err = model.Solve(opts); err != nil {
			t.Fatalf("point %d: direct solve: %v", i, err)
		}
		if want[i].net, err = tolerance.Compute(p.cfg, tolerance.Network, tolerance.ZeroRemote, opts); err != nil {
			t.Fatalf("point %d: direct tol_network: %v", i, err)
		}
		if want[i].mem, err = tolerance.Compute(p.cfg, tolerance.Memory, tolerance.ZeroDelay, opts); err != nil {
			t.Fatalf("point %d: direct tol_memory: %v", i, err)
		}
	}

	single := func(t *testing.T, e *serve.Evaluator, label string) {
		ctx := context.Background()
		for i, p := range pts {
			met, _, err := e.Solve(ctx, p.req)
			if err != nil {
				t.Fatalf("%s point %d: Solve: %v", label, i, err)
			}
			compareMetrics(t, label+" solve", i, met, want[i].solve)
			for _, sub := range []struct {
				name string
				want tolerance.Index
			}{{"network", want[i].net}, {"memory", want[i].mem}} {
				out, _, err := e.Tolerance(ctx, serve.ToleranceRequest{ModelRequest: p.req, Subsystem: sub.name})
				if err != nil {
					t.Fatalf("%s point %d: Tolerance %s: %v", label, i, sub.name, err)
				}
				compareIndex(t, fmt.Sprintf("%s tolerance %s", label, sub.name), i, out, sub.want)
			}
		}
	}
	batch := func(t *testing.T, e *serve.Evaluator, label string) {
		items := make([]serve.BatchItemRequest, 0, 3*len(pts))
		for _, p := range pts {
			items = append(items,
				serve.BatchItemRequest{ModelRequest: p.req},
				serve.BatchItemRequest{ModelRequest: p.req, Op: "tolerance", Subsystem: "network"},
				serve.BatchItemRequest{ModelRequest: p.req, Op: "tolerance", Subsystem: "memory"})
		}
		out := make([]serve.BatchOutcome, len(items))
		if err := e.Batch(context.Background(), items, out); err != nil {
			t.Fatalf("%s: Batch: %v", label, err)
		}
		for i := range pts {
			for j, o := range out[3*i : 3*i+3] {
				if o.Err != nil {
					t.Fatalf("%s point %d item %d: %v", label, i, j, o.Err)
				}
			}
			compareMetrics(t, label+" batch solve", i, out[3*i].Metrics, want[i].solve)
			compareIndex(t, label+" batch tolerance network", i, out[3*i+1].Tolerance, want[i].net)
			compareIndex(t, label+" batch tolerance memory", i, out[3*i+2].Tolerance, want[i].mem)
		}
	}

	a := serve.NewEvaluator(serve.Config{Workers: 1})
	defer a.Close()
	single(t, a, "fresh")
	batch(t, a, "warmed")
	serveSweeps(t, a, "warmed")

	b := serve.NewEvaluator(serve.Config{Workers: 1})
	defer b.Close()
	batch(t, b, "fresh")
	single(t, b, "warmed")

	c := serve.NewEvaluator(serve.Config{Workers: 1})
	defer c.Close()
	serveSweeps(t, c, "fresh")
}

// serveSweeps runs a p_remote and a runlength sweep of the Table 1 default
// configuration through e. A sweep's items repeat systems (the real system
// under both indices, one ZeroRemote ideal for every p_remote point), so
// the batch solves each distinct system once. Every point's metrics and
// both indices must agree with mms.Build(...).Solve and tolerance.Compute
// within 1e-9 relative.
func serveSweeps(t *testing.T, e *serve.Evaluator, label string) {
	t.Helper()
	base := mms.DefaultConfig()
	req := serve.ModelRequest{
		K: base.K, Threads: base.Threads, Runlength: base.Runlength,
		MemoryTime: base.MemoryTime, SwitchTime: base.SwitchTime,
		PRemote: base.PRemote, Psw: base.Psw,
	}
	for _, sw := range []serve.SweepRequest{
		{ModelRequest: req, Param: "premote", From: 0.05, To: 0.9, Steps: 18},
		{ModelRequest: req, Param: "r", From: 2, To: 40, Steps: 12},
	} {
		lbl := fmt.Sprintf("%s sweep %s", label, sw.Param)
		knob, err := mms.ParseParam(sw.Param)
		if err != nil {
			t.Fatal(err)
		}
		values := knob.Grid(sw.From, sw.To, sw.Steps)
		points, err := e.Sweep(context.Background(), sw)
		if err != nil {
			t.Fatalf("%s: %v", lbl, err)
		}
		if len(points) != len(values) {
			t.Fatalf("%s: %d points, want %d", lbl, len(points), len(values))
		}
		for i, v := range values {
			cfg := base
			knob.Apply(&cfg, v)
			model, err := mms.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := model.Solve(mms.SolveOptions{})
			if err != nil {
				t.Fatalf("%s point %d: direct solve: %v", lbl, i, err)
			}
			net, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroRemote, mms.SolveOptions{})
			if err != nil {
				t.Fatalf("%s point %d: direct tol_network: %v", lbl, i, err)
			}
			mem, err := tolerance.Compute(cfg, tolerance.Memory, tolerance.ZeroDelay, mms.SolveOptions{})
			if err != nil {
				t.Fatalf("%s point %d: direct tol_memory: %v", lbl, i, err)
			}
			p := points[i]
			if p.Value != v {
				t.Errorf("%s point %d: value %v, want %v", lbl, i, p.Value, v)
			}
			m := p.Metrics
			compareMetrics(t, lbl, i, mms.Metrics{
				Up: m.Up, LambdaProc: m.LambdaProc, LambdaNet: m.LambdaNet, SObs: m.SObs, LObs: m.LObs,
				CycleTime: m.CycleTime, MemUtilization: m.MemUtilization,
				OutUtilization: m.OutUtilization, InUtilization: m.InUtilization,
			}, want)
			for _, tol := range []struct {
				name      string
				got, want float64
			}{{"tol_network", p.TolNetwork, net.Tol}, {"tol_memory", p.TolMemory, mem.Tol}} {
				if e := relErr(tol.got, tol.want); !(e <= 1e-9) {
					t.Errorf("%s point %d: %s = %.17g, direct gives %.17g (rel %.3g)", lbl, i, tol.name, tol.got, tol.want, e)
				}
			}
		}
	}
}

// compareIndex compares a served tolerance outcome with a direct one: the
// index within 1e-9 relative and both systems' metrics via compareMetrics.
func compareIndex(t *testing.T, label string, trial int, got, want tolerance.Index) {
	t.Helper()
	if got.Subsystem != want.Subsystem || got.Mode != want.Mode {
		t.Errorf("%s point %d: judged %v/%v, want %v/%v", label, trial, got.Subsystem, got.Mode, want.Subsystem, want.Mode)
	}
	if e := relErr(got.Tol, want.Tol); !(e <= 1e-9) {
		t.Errorf("%s point %d: tol = %.17g, direct gives %.17g (rel %.3g)", label, trial, got.Tol, want.Tol, e)
	}
	compareMetrics(t, label+" real", trial, got.Real, want.Real)
	compareMetrics(t, label+" ideal", trial, got.Ideal, want.Ideal)
}
