// Package experiments regenerates every table and figure of the paper's
// evaluation: one driver per exhibit, each returning structured data plus a
// textual rendering. cmd/paperfigs prints them all; bench_test.go at the
// repository root exposes one benchmark per exhibit.
//
// Figures are rendered as value grids or aligned series (the textual
// counterpart of the paper's 3-D surface and line plots); tables are rendered
// directly. Axis ranges lost to OCR in the source text are reconstructed
// from the prose (see DESIGN.md §3).
package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/report"
	"lattol/internal/sweep"
)

// progress holds the optional live-progress callback shared by every sweep
// in this package; cmd/paperfigs installs one to draw stderr counters.
var progress atomic.Pointer[func(done, total int)]

// SetProgress installs fn as the callback invoked after every finished
// point of the drivers that run point by point on the sweep runner (Table 2,
// Figures 9–11 and the simulation studies), with the finished count and the
// point total of the current sweep. The analytical surfaces and tables are
// one lockstep batch each and report no progress. nil uninstalls it. Calls
// are serialized by the sweep runner; fn must not block.
func SetProgress(fn func(done, total int)) {
	if fn == nil {
		progress.Store(nil)
		return
	}
	progress.Store(&fn)
}

// sweepOptions returns the runner options shared by the drivers in this
// package: abort on the first failing point (the exhibits are
// all-or-nothing) and report live progress when a callback is installed.
func sweepOptions() sweep.Options {
	opts := sweep.Options{FailFast: true}
	if p := progress.Load(); p != nil {
		opts.OnPoint = *p
	}
	return opts
}

// Exhibit is one reproducible paper exhibit.
type Exhibit struct {
	// ID is the exhibit identifier, e.g. "figure4" or "table2".
	ID string
	// Title describes what the exhibit shows.
	Title string
	// Render regenerates the exhibit and returns its textual form.
	Render func() (string, error)
}

// All returns every exhibit in paper order.
func All() []Exhibit {
	return []Exhibit{
		{"table1", "Default settings for model parameters", func() (string, error) {
			return DefaultConfigTable().String(), nil
		}},
		{"figure4", "Effect of workload parameters at R = 10", func() (string, error) {
			f, err := Figure4()
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"figure5", "Effect of workload parameters at R = 20", func() (string, error) {
			f, err := Figure5()
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"table2", "Network latency tolerance at matched S_obs (R = 10 and 20)", func() (string, error) {
			t, err := Table2()
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"figure6", "tol_network vs n_t × R at p_remote = 0.2 and 0.4", func() (string, error) {
			f, err := Figure6()
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"figure7", "Thread partitioning: tol_network along n_t·R = const", func() (string, error) {
			f, err := Figure7()
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"table3", "Thread partitioning strategy and network latency tolerance (n_t·R = 40)", func() (string, error) {
			t, err := Table3()
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"figure8", "tol_memory vs n_t × R at L = 10 and 20", func() (string, error) {
			f, err := Figure8()
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"table4", "Thread partitioning and memory latency tolerance (n_t·R = 40, p_remote = 0.2)", func() (string, error) {
			t, err := Table4()
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"figure9", "Scaling: tol_network vs n_t for k = 2..10, geometric vs uniform", func() (string, error) {
			f, err := Figure9()
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"figure10", "Scaling: throughput and latencies vs P for ideal/geometric/uniform", func() (string, error) {
			f, err := Figure10()
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"figure11", "Validation: λ_net and S_obs, model vs STPN and DES simulation", func() (string, error) {
			f, err := Figure11(ValidationOptions{})
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"validation-det", "Sensitivity: deterministic vs exponential memory service", func() (string, error) {
			f, err := ValidationDeterministic(ValidationOptions{})
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
	}
}

// DefaultConfigTable reproduces Table 1: the default parameter settings.
func DefaultConfigTable() *report.Table {
	cfg := mms.DefaultConfig()
	model, err := mms.Build(cfg)
	davg := 0.0
	if err == nil {
		davg = model.MeanDistance()
	}
	t := report.NewTable("Table 1: default settings for model parameters", "parameter", "value")
	t.Add("n_t (threads per processor)", fmt.Sprintf("%d (varied 1..10)", cfg.Threads))
	t.Add("p_remote", fmt.Sprintf("%g (varied; also 0.4)", cfg.PRemote))
	t.Add("R (thread runlength)", fmt.Sprintf("%g (also 20)", cfg.Runlength))
	t.Add("p_sw (locality)", fmt.Sprintf("%g (=> d_avg = %.3f)", cfg.Psw, davg))
	t.Add("L (memory access time)", report.Float(cfg.MemoryTime, -1))
	t.Add("S (switch delay)", report.Float(cfg.SwitchTime, -1))
	t.Add("k (PEs per dimension)", fmt.Sprintf("%d (scaling: 2..10)", cfg.K))
	t.Add("C (context switch)", report.Float(cfg.ContextSwitch, -1))
	return t
}

// solveBatch evaluates every configuration as one lockstep batch
// (eval.Solver.EvaluateBatch) with the tolerance indices opts requests, so
// each real system is solved once however many indices a point needs. The
// exhibits are all-or-nothing: the first failing point fails the call.
func solveBatch(cfgs []mms.Config, opts eval.Options) ([]eval.Metrics, error) {
	in := make([]eval.Config, len(cfgs))
	for i := range cfgs {
		in[i].Model = cfgs[i]
	}
	out := make([]eval.Outcome, len(cfgs))
	eval.NewSolver().EvaluateBatch(context.Background(), in, opts, out)
	mets := make([]eval.Metrics, len(cfgs))
	for i, o := range out {
		if o.Err != nil {
			c := cfgs[i]
			return nil, fmt.Errorf("point %d (k=%d n_t=%d R=%g L=%g p_remote=%g): %w",
				i, c.K, c.Threads, c.Runlength, c.MemoryTime, c.PRemote, o.Err)
		}
		mets[i] = o.Metrics
	}
	return mets, nil
}
