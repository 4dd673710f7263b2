package mms

import (
	"context"
	"sync"
	"testing"

	"lattol/internal/sweep"
)

// stressConfigs is a varied pile of model shapes so pooled workspaces get
// resized up and down as they are reused across goroutines.
func stressConfigs() []Config {
	var cfgs []Config
	for _, k := range []int{2, 4, 6} {
		for _, nt := range []int{1, 4, 8, 16} {
			for _, p := range []float64{0.1, 0.2, 0.5, 0.8} {
				cfg := DefaultConfig()
				cfg.K = k
				cfg.Threads = nt
				cfg.PRemote = p
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// TestWorkspaceConcurrentSolves hammers the workspace pool and per-goroutine
// workspaces from many goroutines at once (run under -race in CI) and checks
// every concurrent result is bit-identical to a fresh sequential solve.
func TestWorkspaceConcurrentSolves(t *testing.T) {
	cfgs := stressConfigs()
	for _, solver := range []Solver{SymmetricAMVA, FullAMVA} {
		// Baseline: sequential, fresh workspace semantics (nil → pool, but
		// single-goroutine, and the contract zeroes/overwrites everything).
		want := make([]Metrics, len(cfgs))
		for i, cfg := range cfgs {
			model, err := Build(cfg)
			if err != nil {
				t.Fatalf("%v: Build(%+v): %v", solver, cfg, err)
			}
			want[i], err = model.Solve(SolveOptions{Solver: solver})
			if err != nil {
				t.Fatalf("%v: Solve(%+v): %v", solver, cfg, err)
			}
		}

		solve := func(ws *Workspace, cfg Config) (Metrics, error) {
			model, err := Build(cfg)
			if err != nil {
				return Metrics{}, err
			}
			return model.Solve(SolveOptions{Solver: solver, Workspace: ws})
		}
		const workers = 8

		// Parallel path 1: one explicit workspace per goroutine, reused
		// across every point that goroutine solves.
		got := make([]Metrics, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ws := new(Workspace)
				for i := w; i < len(cfgs); i += workers {
					got[i], errs[i] = solve(ws, cfgs[i])
				}
			}(w)
		}
		wg.Wait()
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%v: per-goroutine workspace solve of %+v: %v", solver, cfgs[i], errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("%v: per-goroutine workspace solve diverged for %+v:\n got %+v\nwant %+v",
					solver, cfgs[i], got[i], want[i])
			}
		}

		// Parallel path 2: nil workspace, so every point borrows from the
		// process-wide sync.Pool concurrently.
		got, err := sweep.Run(context.Background(), cfgs, sweep.Options{Workers: workers}, func(cfg Config) (Metrics, error) {
			return solve(nil, cfg)
		})
		if err != nil {
			t.Fatalf("%v: pooled Run: %v", solver, err)
		}
		for i := range cfgs {
			if got[i] != want[i] {
				t.Errorf("%v: pooled workspace solve diverged for %+v:\n got %+v\nwant %+v",
					solver, cfgs[i], got[i], want[i])
			}
		}
	}
}

// TestSolveIgnoresPooledHistory: without WarmStart, a Model.Solve on a pooled
// workspace answers the same, Iterations included, whatever the pool's
// workspaces solved before.
func TestSolveIgnoresPooledHistory(t *testing.T) {
	model, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before, err := model.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range stressConfigs() {
		other, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.Solve(SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Solve(SolveOptions{WarmStart: true}); err != nil {
			t.Fatal(err)
		}
		after, err := model.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if after != before {
			t.Fatalf("after solving %+v: got %+v, want %+v", cfg, after, before)
		}
	}
}

// TestWorkspaceReuseMatchesFresh solves a shrinking, then growing, sequence of
// models on one workspace and checks each against a fresh solve — catching any
// stale state left in oversized reused buffers.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := new(Workspace)
	order := []int{10, 6, 4, 1, 8, 2, 16, 1}
	for _, nt := range order {
		cfg := DefaultConfig()
		cfg.Threads = nt
		model, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := model.Solve(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := model.Solve(SolveOptions{Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		if reused != fresh {
			t.Errorf("nt=%d: reused workspace diverged:\n got %+v\nwant %+v", nt, reused, fresh)
		}
	}
}
