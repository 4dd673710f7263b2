// Package lattol's root benchmark harness: one benchmark per paper exhibit
// (Tables 1–4, Figures 4–11, the Section 8 sensitivity study) plus the
// ablation benchmarks called out in DESIGN.md §6. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigureN / BenchmarkTableN regenerates the full exhibit per
// iteration; the validation benchmarks use shortened simulation horizons so
// the suite completes in minutes (use cmd/paperfigs -full for paper-length
// runs).
package lattol

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"lattol/internal/access"
	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
	"lattol/internal/experiments"
	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/replicate"
	"lattol/internal/serve"
	"lattol/internal/simmms"
	"lattol/internal/surrogate"
	"lattol/internal/tolerance"
)

func benchErr(b *testing.B, err error) {
	if err != nil {
		b.Fatal(err)
	}
}

// ---- Paper exhibits -------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.DefaultConfigTable().String()
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure4()
		benchErr(b, err)
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure5()
		benchErr(b, err)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Table2()
		benchErr(b, err)
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure6()
		benchErr(b, err)
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure7()
		benchErr(b, err)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Table3()
		benchErr(b, err)
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure8()
		benchErr(b, err)
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Table4()
		benchErr(b, err)
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure9()
		benchErr(b, err)
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure10()
		benchErr(b, err)
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Figure11(experiments.ValidationOptions{
			Seed: int64(i), Warmup: 3000, Duration: 25000, Threads: []int{2, 6, 10},
		})
		benchErr(b, err)
	}
}

func BenchmarkValidationDet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ValidationDeterministic(experiments.ValidationOptions{
			Seed: int64(i), Warmup: 3000, Duration: 25000, Threads: []int{4, 8},
		})
		benchErr(b, err)
	}
}

// ---- Extension studies -----------------------------------------------------

func BenchmarkExtensionMemoryPorts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionMemoryPorts()
		benchErr(b, err)
	}
}

func BenchmarkExtensionLocalPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionLocalPriority(experiments.ValidationOptions{
			Seed: int64(i), Warmup: 3000, Duration: 25000,
		})
		benchErr(b, err)
	}
}

func BenchmarkExtensionFiniteBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionFiniteBuffers(experiments.ValidationOptions{
			Seed: int64(i), Warmup: 3000, Duration: 25000,
		})
		benchErr(b, err)
	}
}

func BenchmarkExtensionPipelinedSwitches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionPipelinedSwitches()
		benchErr(b, err)
	}
}

func BenchmarkExtensionHotSpot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionHotSpot()
		benchErr(b, err)
	}
}

func BenchmarkExtensionImbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionImbalance()
		benchErr(b, err)
	}
}

func BenchmarkExtensionMeshVsTorus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionMeshVsTorus()
		benchErr(b, err)
	}
}

func BenchmarkExtensionBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.ExtensionBarrier(experiments.ValidationOptions{
			Seed: int64(i), Warmup: 2000, Duration: 15000,
		})
		benchErr(b, err)
	}
}

func BenchmarkDeviationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.DeviationStudy(experiments.ValidationOptions{
			Seed: int64(i), Warmup: 2000, Duration: 15000,
		})
		benchErr(b, err)
	}
}

// ---- Ablations (DESIGN.md §6) ----------------------------------------------

// BenchmarkAblationSymmetric measures the symmetric fast path against the
// general multiclass AMVA on the same 8×8 system (64 classes, 256 stations).
func BenchmarkAblationSymmetric(b *testing.B) {
	cfg := mms.DefaultConfig()
	cfg.K = 8
	model, err := mms.Build(cfg)
	benchErr(b, err)
	b.Run("symmetric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := model.Solve(mms.SolveOptions{Solver: mms.SymmetricAMVA})
			benchErr(b, err)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := model.Solve(mms.SolveOptions{Solver: mms.FullAMVA})
			benchErr(b, err)
		}
	})
}

// BenchmarkAblationExactMVA compares the exact multiclass recursion with the
// approximate solver on the largest system where exact is feasible.
func BenchmarkAblationExactMVA(b *testing.B) {
	cfg := mms.Config{K: 2, Threads: 2, Runlength: 10, MemoryTime: 10, SwitchTime: 10, PRemote: 0.4, Psw: 0.5}
	model, err := mms.Build(cfg)
	benchErr(b, err)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := model.Solve(mms.SolveOptions{Solver: mms.ExactMVA})
			benchErr(b, err)
		}
	})
	b.Run("approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := model.Solve(mms.SolveOptions{Solver: mms.SymmetricAMVA})
			benchErr(b, err)
		}
	})
}

// BenchmarkAblationPattern compares the paper's per-distance geometric
// normalization with the per-node variant and the uniform pattern.
func BenchmarkAblationPattern(b *testing.B) {
	for _, variant := range []struct {
		name string
		cfg  func() mms.Config
	}{
		{"per-distance", func() mms.Config { return mms.DefaultConfig() }},
		{"per-node", func() mms.Config {
			cfg := mms.DefaultConfig()
			cfg.GeometricMode = access.PerNode
			return cfg
		}},
		{"uniform", func() mms.Config {
			cfg := mms.DefaultConfig()
			cfg.Uniform = true
			return cfg
		}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := variant.cfg()
			for i := 0; i < b.N; i++ {
				_, err := tolerance.NetworkIndex(cfg)
				benchErr(b, err)
			}
		})
	}
}

// BenchmarkAblationEngines compares the two simulation substrates on an
// identical workload and horizon.
func BenchmarkAblationEngines(b *testing.B) {
	cfg := mms.DefaultConfig()
	for _, eng := range []simmms.EngineKind{simmms.Direct, simmms.STPN} {
		b.Run(eng.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := simmms.Run(cfg, simmms.Options{
					Engine: eng, Seed: int64(i), Warmup: 2000, Duration: 20000,
				})
				benchErr(b, err)
			}
		})
	}
}

// ---- Replication engine (DESIGN.md §17) ------------------------------------

// BenchmarkReplicateSingle measures one replication through a reused
// Replicator — the replication runner's steady-state unit of work: reset and
// replay the prebuilt simulator, no model rebuild, zero allocations. Its ratio
// to BenchmarkAblationEngines (which rebuilds per run, the pre-replication
// path) plus the engine work per event is the single-replication speedup the
// parallel runner multiplies by its worker count.
func BenchmarkReplicateSingle(b *testing.B) {
	cfg := mms.DefaultConfig()
	for _, eng := range []simmms.EngineKind{simmms.Direct, simmms.STPN} {
		b.Run(eng.String(), func(b *testing.B) {
			rep, err := simmms.NewReplicator(cfg, simmms.Options{
				Engine: eng, Warmup: 2000, Duration: 20000,
			})
			benchErr(b, err)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rep.Replicate(int64(i))
			}
		})
	}
}

// BenchmarkReplicate measures the parallel replication runner end to end: a
// fixed budget of 16 replications per op, at 1 worker and at 8. The
// estimates are bit-identical at both settings (the runner's invariance
// contract), so the ratio of the two timings is pure parallel speedup —
// acceptance asks ≥3× at 8 workers on an 8-way host (a 1-CPU CI box will
// honestly show ~1×).
func BenchmarkReplicate(b *testing.B) {
	cfg := mms.DefaultConfig()
	// Sub-benchmark names must not end in "-<digits>": go test already
	// appends -GOMAXPROCS, and scripts/benchjson strips trailing numeric
	// suffixes when aggregating, which would merge the two settings.
	for _, workers := range []int{1, 8} {
		b.Run(map[int]string{1: "sequential", 8: "eightworkers"}[workers], func(b *testing.B) {
			opts := replicate.Options{
				Sim:     simmms.Options{Engine: simmms.Direct, Seed: 1, Warmup: 2000, Duration: 20000},
				MinReps: 16,
				Workers: workers,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := replicate.Run(context.Background(), cfg, opts)
				benchErr(b, err)
				if res.Reps != 16 {
					b.Fatalf("ran %d reps, want 16", res.Reps)
				}
			}
		})
	}
}

// ---- Warm-start and acceleration (DESIGN.md §12) ---------------------------

// figure4SnakeModels prebuilds the Figure 4 operating grid (R = 10,
// n_t = 1..10 × p_remote = 0.05..0.90) in snake order, so consecutive
// points are grid neighbours, and the benchmark measures solving only, not
// model construction.
func figure4SnakeModels(b *testing.B) []*mms.Model {
	b.Helper()
	var models []*mms.Model
	for nt := 1; nt <= 10; nt++ {
		for c := 5; c <= 90; c += 5 {
			p := float64(c) / 100
			if nt%2 == 0 {
				p = float64(95-c) / 100
			}
			cfg := mms.DefaultConfig()
			cfg.Threads = nt
			cfg.PRemote = p
			model, err := mms.Build(cfg)
			benchErr(b, err)
			models = append(models, model)
		}
	}
	return models
}

// BenchmarkAMVAColdVsWarm measures continuation sweeps: one op solves the
// whole 180-point Figure 4 grid through a single reused workspace. "cold"
// solves every point from the uniform seed; "warm" seeds each solve from
// the neighboring point's converged role totals, whatever its merged
// station count — the configuration the sweep paths actually run. Both
// run the kernel's guarded Aitken extrapolation. The iters/solve metric is
// the mean AMVA iteration count per grid point.
func BenchmarkAMVAColdVsWarm(b *testing.B) {
	models := figure4SnakeModels(b)
	for _, mode := range []struct {
		name string
		opts mms.SolveOptions
	}{
		{"cold", mms.SolveOptions{}},
		{"warm", mms.SolveOptions{WarmStart: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ws := new(mms.Workspace)
			opts := mode.opts
			opts.Workspace = ws
			var iters, solves int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, model := range models {
					met, err := model.Solve(opts)
					benchErr(b, err)
					iters += int64(met.Iterations)
					solves++
				}
			}
			b.ReportMetric(float64(iters)/float64(solves), "iters/solve")
		})
	}
}

// BenchmarkFullAMVAAccel times the general multiclass AMVA on a single cold
// solve of a congested operating point (high thread count and remote
// fraction, where plain Bard–Schweitzer converges slowest), reporting the
// sweeps its guarded Irons–Tuck loop takes.
func BenchmarkFullAMVAAccel(b *testing.B) {
	cfg := mms.DefaultConfig()
	cfg.Threads = 10
	cfg.PRemote = 0.9
	model, err := mms.Build(cfg)
	benchErr(b, err)
	ws := new(mms.Workspace)
	var iters int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		met, err := model.Solve(mms.SolveOptions{Solver: mms.FullAMVA, Workspace: ws})
		benchErr(b, err)
		iters += int64(met.Iterations)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/solve")
}

// ---- Component microbenchmarks ---------------------------------------------

func BenchmarkSolveDefault(b *testing.B) {
	model, err := mms.Build(mms.DefaultConfig())
	benchErr(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := model.Solve(mms.SolveOptions{})
		benchErr(b, err)
	}
}

func BenchmarkSolveK10(b *testing.B) {
	cfg := mms.DefaultConfig()
	cfg.K = 10
	model, err := mms.Build(cfg)
	benchErr(b, err)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := model.Solve(mms.SolveOptions{})
		benchErr(b, err)
	}
}

// BenchmarkSolveK10Workspace is BenchmarkSolveK10 with an explicit reused
// workspace, the configuration sweep workers run in: steady state must be
// allocation-free.
func BenchmarkSolveK10Workspace(b *testing.B) {
	cfg := mms.DefaultConfig()
	cfg.K = 10
	model, err := mms.Build(cfg)
	benchErr(b, err)
	ws := new(mms.Workspace)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := model.Solve(mms.SolveOptions{Workspace: ws})
		benchErr(b, err)
	}
}

func BenchmarkBuildModelK10(b *testing.B) {
	cfg := mms.DefaultConfig()
	cfg.K = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := mms.Build(cfg)
		benchErr(b, err)
	}
}

// BenchmarkBuildModelK4 elaborates the Table 1 default system, the size
// every lattold workload solves.
func BenchmarkBuildModelK4(b *testing.B) {
	cfg := mms.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := mms.Build(cfg)
		benchErr(b, err)
	}
}

// BenchmarkServeSolveCached measures the daemon's cache-hit path: request
// canonicalization, shard lookup and LRU touch, with the solver never running
// after the priming call. The whole path must stay allocation-free.
func BenchmarkServeSolveCached(b *testing.B) {
	eval := serve.NewEvaluator(serve.Config{})
	defer eval.Close()
	req := serve.ModelRequest{
		K: 4, Threads: 8, Runlength: 10, MemoryTime: 10, SwitchTime: 10,
		PRemote: 0.2, Psw: 0.5,
	}
	ctx := context.Background()
	if _, _, err := eval.Solve(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := eval.Solve(ctx, req)
		benchErr(b, err)
	}
}

// BenchmarkServeSolveMiss measures the daemon's cache-miss path end to end:
// canonicalization, leadership election and a full solver run per request.
// Every iteration queries a fresh operating point scattered over the
// (runlength, p_remote) plane by golden-ratio stepping, so no request repeats
// (always a miss) and the worker's warm start gets no free lunch from
// near-identical neighbors — this is the cold-traffic path the surrogate tier
// replaces, and its ratio to BenchmarkServeSolveSurrogate is the headline
// speedup.
func BenchmarkServeSolveMiss(b *testing.B) {
	eval := serve.NewEvaluator(serve.Config{})
	defer eval.Close()
	req := serve.ModelRequest{
		K: 10, Threads: 4, Runlength: 10, MemoryTime: 10, SwitchTime: 10,
		PRemote: 0.2, Psw: 0.5,
	}
	ctx := context.Background()
	const phi = 0.6180339887498949
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := math.Mod(float64(i)*phi, 1)
		fp := math.Mod(float64(i)*phi*phi, 1)
		req.Runlength = 5 + 25*fr
		req.PRemote = 0.05 + 0.85*fp
		_, _, err := eval.Solve(ctx, req)
		benchErr(b, err)
	}
}

// BenchmarkSolveColdMix runs the solver side of the repo benchmark's
// solve-cold exact misses in process: one-item SolveBatchInto calls with
// WarmStart on one reused workspace, as a lattold worker makes them. Points
// step by the golden ratio over runlength 5–30, p_remote 0.05–0.9 and
// threads 1–10, with K alternating 4 and 8; every fourth point (K = 4) is a
// tolerance item, solved as the real system followed by its ZeroRemote
// ideal. One op is one solve; iters/solve is the mean kernel iteration
// count.
func BenchmarkSolveColdMix(b *testing.B) {
	const phi = 0.6180339887498949
	var items []mms.BatchItem
	for j := 0; j < 256; j++ {
		cfg := mms.DefaultConfig()
		if j%2 == 1 {
			cfg.K = 8
		}
		_, u0 := math.Modf(float64(j) * phi)
		_, u1 := math.Modf(float64(j) * phi * phi)
		_, u2 := math.Modf(float64(j) * phi * phi * phi)
		cfg.Runlength = 5 + 25*u0
		cfg.PRemote = 0.05 + 0.85*u1
		cfg.Threads = 1 + int(10*u2)
		items = append(items, mms.BatchItem{Config: cfg})
		if j%4 == 2 {
			ideal, err := tolerance.IdealConfig(cfg, tolerance.Network, tolerance.ZeroRemote)
			benchErr(b, err)
			items = append(items, mms.BatchItem{Config: ideal})
		}
	}
	dst := make([]mms.BatchResult, 1)
	opts := mms.SolveOptions{Workspace: new(mms.Workspace), WarmStart: true}
	var iters int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(items)
		mms.SolveBatchInto(dst, items[j:j+1], opts)
		benchErr(b, dst[0].Err)
		iters += int64(dst[0].Metrics.Iterations)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/solve")
}

// benchSurrogateSpec is the serve benchmark grid: small enough to build
// quickly, wide enough that the benchmark query interpolates mid-cell on both
// continuous axes. It pins the paper's larger 10×10 torus — the regime where
// precomputation pays — so the miss/surrogate pair measures the same
// workload; lookup cost itself is independent of K.
func benchSurrogateSpec() surrogate.Spec {
	return surrogate.Spec{
		Solver:     mva.SolverVersion,
		MemoryTime: 10,
		SwitchTime: 10,
		K:          []int{10},
		NT:         []int{2, 4, 8},
		R:          []float64{10, 15, 20},
		PRemote:    []float64{0.1, 0.2, 0.3, 0.4},
		Psw:        []float64{0.5},
	}
}

// BenchmarkServeSolveSurrogate measures the surrogate-hit path: a max_error
// request interpolated mid-cell from the precomputed grid, never touching the
// LRU (the result is not cached) or the solver. Must stay at 0 allocs/op and
// ≥100x faster than BenchmarkServeSolveMiss.
func BenchmarkServeSolveSurrogate(b *testing.B) {
	grid, err := surrogate.Build(benchSurrogateSpec(), surrogate.BuildOptions{})
	benchErr(b, err)
	eval := serve.NewEvaluator(serve.Config{})
	defer eval.Close()
	eval.SetSurrogate(grid)
	req := serve.ModelRequest{
		K: 10, Threads: 4, Runlength: 12.5, MemoryTime: 10, SwitchTime: 10,
		PRemote: 0.25, Psw: 0.5, MaxError: 0.9,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, err := eval.SolveBounded(ctx, req)
		benchErr(b, err)
	}
}

// ---- Batched solve path (DESIGN.md §13) ------------------------------------

// reportPointsPerSec converts whole-grid iterations into an aggregate
// operating-points-per-second rate, the unit the batch path is judged in.
func reportPointsPerSec(b *testing.B, points float64) {
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
}

// BenchmarkBatchVsLooped measures one kernel batch against looped
// Model.Solve calls (the same kernel, one point at a time) on the 180-point
// Figure 4–5 operating grid (prebuilt models, snake order, one reused
// workspace each, so both sides measure solving only). "looped-cold" solves
// each point from the uniform seed; "looped-warm" seeds each point from the
// previous one's solution; "batch" runs all 180 points through
// SolveBatchInto as one batch, continuing from the previous batch. The batch
// steady state must stay at 0 allocs/op.
func BenchmarkBatchVsLooped(b *testing.B) {
	models := figure4SnakeModels(b)
	points := float64(len(models))
	b.Run("looped-cold", func(b *testing.B) {
		ws := new(mms.Workspace)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, model := range models {
				_, err := model.Solve(mms.SolveOptions{Workspace: ws})
				benchErr(b, err)
			}
		}
		reportPointsPerSec(b, points)
	})
	b.Run("looped-warm", func(b *testing.B) {
		ws := new(mms.Workspace)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, model := range models {
				_, err := model.Solve(mms.SolveOptions{Workspace: ws, WarmStart: true})
				benchErr(b, err)
			}
		}
		reportPointsPerSec(b, points)
	})
	b.Run("batch", func(b *testing.B) {
		items := make([]mms.BatchItem, len(models))
		for i, m := range models {
			items[i] = mms.BatchItem{Model: m}
		}
		dst := make([]mms.BatchResult, len(items))
		opts := mms.SolveOptions{Workspace: new(mms.Workspace), WarmStart: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mms.SolveBatchInto(dst, items, opts)
			if dst[0].Err != nil {
				b.Fatal(dst[0].Err)
			}
		}
		reportPointsPerSec(b, points)
	})
}

// BenchmarkSolveBatchSweepItems solves the items of an 18-point p_remote
// /v1/sweep as lattold's worker submits them: per point a network and a
// memory tolerance key, each the real system followed by its ideal, as
// Config items on one reused workspace, continuing from the previous batch
// (WarmStart) as the worker does. The 72 items hold 37 distinct systems over
// 19 distinct geometries, so the time includes elaboration and the batch's
// sharing as well as the kernel.
func BenchmarkSolveBatchSweepItems(b *testing.B) {
	knob, err := mms.ParseParam("premote")
	benchErr(b, err)
	var items []mms.BatchItem
	for _, v := range knob.Grid(0.05, 0.9, 18) {
		cfg := mms.DefaultConfig()
		knob.Apply(&cfg, v)
		for _, ideal := range []struct {
			sub  tolerance.Subsystem
			mode tolerance.IdealMode
		}{{tolerance.Network, tolerance.ZeroRemote}, {tolerance.Memory, tolerance.ZeroDelay}} {
			icfg, err := tolerance.IdealConfig(cfg, ideal.sub, ideal.mode)
			benchErr(b, err)
			items = append(items, mms.BatchItem{Config: cfg}, mms.BatchItem{Config: icfg})
		}
	}
	dst := make([]mms.BatchResult, len(items))
	opts := mms.SolveOptions{Workspace: new(mms.Workspace), WarmStart: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mms.SolveBatchInto(dst, items, opts)
		benchErr(b, dst[0].Err)
	}
	reportPointsPerSec(b, float64(len(items)))
}

// BenchmarkSolveBatchNewGeometries solves 32 K = 4 points of distinct
// p_remote, each followed by its network and memory ideals (ZeroRemote,
// ZeroDelay), as Config items on one reused workspace, continuing from the
// previous batch (WarmStart) as lattold's worker does. The workspace keeps
// elaboration tables but no models between calls, so every op elaborates
// all 32 geometries again: the time is elaboration, sharing and the kernel.
// The steady state must stay at 0 allocs/op.
func BenchmarkSolveBatchNewGeometries(b *testing.B) {
	var items []mms.BatchItem
	for j := 0; j < 32; j++ {
		cfg := mms.DefaultConfig()
		_, f := math.Modf(float64(j) * 0.6180339887498949)
		cfg.PRemote = 0.05 + 0.85*f
		items = append(items, mms.BatchItem{Config: cfg})
		for _, ideal := range []struct {
			sub  tolerance.Subsystem
			mode tolerance.IdealMode
		}{{tolerance.Network, tolerance.ZeroRemote}, {tolerance.Memory, tolerance.ZeroDelay}} {
			icfg, err := tolerance.IdealConfig(cfg, ideal.sub, ideal.mode)
			benchErr(b, err)
			items = append(items, mms.BatchItem{Config: icfg})
		}
	}
	dst := make([]mms.BatchResult, len(items))
	opts := mms.SolveOptions{Workspace: new(mms.Workspace), WarmStart: true}
	mms.SolveBatchInto(dst, items, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mms.SolveBatchInto(dst, items, opts)
		benchErr(b, dst[0].Err)
	}
	reportPointsPerSec(b, float64(len(items)))
}

// cachedBatchItems is the 16-item batch of the cached-batch benchmarks: ten
// solves over threads 1–10 and six tolerance items.
func cachedBatchItems() []serve.BatchItemRequest {
	items := make([]serve.BatchItemRequest, 16)
	for i := range items {
		items[i] = serve.BatchItemRequest{ModelRequest: serve.ModelRequest{
			K: 4, Threads: 1 + i%10, Runlength: 10, MemoryTime: 10, SwitchTime: 10,
			PRemote: 0.2, Psw: 0.5,
		}}
		if i >= 10 {
			items[i].Op = "tolerance"
		}
	}
	return items
}

// BenchmarkServeBatchCached measures the daemon's all-hit batch path: 16
// items canonicalized, looked up and copied out of the cache with the solver
// never running after the priming call.
func BenchmarkServeBatchCached(b *testing.B) {
	eval := serve.NewEvaluator(serve.Config{})
	defer eval.Close()
	items := cachedBatchItems()
	out := make([]serve.BatchOutcome, len(items))
	ctx := context.Background()
	if err := eval.Batch(ctx, items, out); err != nil {
		b.Fatal(err)
	}
	for i := range out {
		if out[i].Err != nil {
			b.Fatal(out[i].Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eval.Batch(ctx, items, out); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- HTTP boundary and response encoding ---------------------------------

// benchPost runs one POST through h in process and fails the benchmark on a
// non-200 answer.
func benchPost(b *testing.B, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec
}

// benchModelJSON is the Table 1 default configuration as a request body
// fragment.
const benchModelJSON = `"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5`

// benchBatchBody is a /v1/batch body of n distinct items, every other one a
// tolerance evaluation, as the bulk-plan workload sends them.
func benchBatchBody(n int) string {
	var items bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			items.WriteByte(',')
		}
		op := ""
		if i%2 == 1 {
			op = `,"op":"tolerance"`
		}
		fmt.Fprintf(&items, `{"k":4,"threads":%d,"runlength":%d,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5%s}`, 1+i%8, 5+i, op)
	}
	return `{"items":[` + items.String() + `]}`
}

// BenchmarkWireEncode measures the reflection-free response encoder on the
// bodies lattold actually writes: each shape is answered once by a real
// server, decoded into its wire type, then re-encoded into a reused buffer.
// The steady state must allocate nothing. batch32 and sweep18 are the
// bulk-plan workload's batch and sweep sizes; plan is its thread-count plan.
func BenchmarkWireEncode(b *testing.B) {
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	shapes := []struct {
		name, path, body string
		dst              interface {
			AppendJSON([]byte) ([]byte, error)
		}
	}{
		{"solve", "/v1/solve", `{` + benchModelJSON + `}`, new(lattolclient.SolveResponse)},
		{"tolerance", "/v1/tolerance", `{` + benchModelJSON + `}`, new(lattolclient.ToleranceResponse)},
		{"batch32", "/v1/batch", benchBatchBody(32), new(lattolclient.BatchResponse)},
		{"sweep18", "/v1/sweep", `{` + benchModelJSON + `,"param":"premote","from":0.05,"to":0.9,"steps":18}`, new(lattolclient.SweepResponse)},
		{"plan", "/v1/plan", `{` + benchModelJSON + `,"knob":"nt","metric":"tol_network","target":0.9}`, new(lattolclient.PlanResponse)},
	}
	for _, sh := range shapes {
		rec := benchPost(b, h, sh.path, []byte(sh.body))
		if err := json.Unmarshal(rec.Body.Bytes(), sh.dst); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, 2*rec.Body.Len())
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(rec.Body.Len()))
			for i := 0; i < b.N; i++ {
				out, err := sh.dst.AppendJSON(buf[:0])
				benchErr(b, err)
				buf = out
			}
		})
	}
}

// BenchmarkWireDecode measures the reflection-free request decoder
// (ParseWire, sub-benchmark parse) beside the encoding/json decode it
// replaces (json) on the same bodies: the strict decoder lattold ran on
// requests, and json.Unmarshal for batchresp6, the answer to a 6-item
// sub-batch that a cluster peer relays back to the batch router.
func BenchmarkWireDecode(b *testing.B) {
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	answer := benchPost(b, srv.Handler(), "/v1/batch", []byte(benchBatchBody(6))).Body.Bytes()
	shapes := []struct {
		name string
		body []byte
		dst  func() lattolclient.WireParser
	}{
		{"solve", []byte(`{` + benchModelJSON + `}`), func() lattolclient.WireParser { return new(lattolclient.ModelRequest) }},
		{"plan", []byte(`{` + benchModelJSON + `,"knob":"nt","metric":"tol_network","target":0.9}`), func() lattolclient.WireParser { return new(lattolclient.PlanRequest) }},
		{"sweep", []byte(`{` + benchModelJSON + `,"param":"premote","from":0.05,"to":0.9,"steps":18}`), func() lattolclient.WireParser { return new(lattolclient.SweepRequest) }},
		{"batch32", []byte(benchBatchBody(32)), func() lattolclient.WireParser { return new(lattolclient.BatchRequest) }},
		{"batchresp6", answer, func() lattolclient.WireParser { return new(lattolclient.BatchResponse) }},
	}
	for _, sh := range shapes {
		b.Run(sh.name+"/parse", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(sh.body)))
			for i := 0; i < b.N; i++ {
				if !sh.dst().ParseWire(sh.body) {
					b.Fatalf("ParseWire declined %s", sh.body)
				}
			}
		})
		b.Run(sh.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(sh.body)))
			for i := 0; i < b.N; i++ {
				dst := sh.dst()
				if _, answer := dst.(*lattolclient.BatchResponse); answer {
					benchErr(b, json.Unmarshal(sh.body, dst))
					continue
				}
				dec := json.NewDecoder(bytes.NewReader(sh.body))
				dec.DisallowUnknownFields()
				benchErr(b, dec.Decode(dst))
			}
		})
	}
}

// BenchmarkServeHTTPSolveCached measures a cache-hit /v1/solve through
// Server.Handler() in process: body read, strict decode, canonicalization,
// LRU hit and response encoding, without a socket. Its delta to
// BenchmarkServeSolveCached is the HTTP and wire layer.
func BenchmarkServeHTTPSolveCached(b *testing.B) {
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{` + benchModelJSON + `}`)
	benchPost(b, h, "/v1/solve", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/solve", body)
	}
}

// BenchmarkServeHTTPBatchCached is BenchmarkServeBatchCached's 16-item all-hit
// batch through Server.Handler() in process; its delta to that benchmark is
// the HTTP and wire layer for a several-KB body.
func BenchmarkServeHTTPBatchCached(b *testing.B) {
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(serve.BatchRequest{Items: cachedBatchItems()})
	if err != nil {
		b.Fatal(err)
	}
	benchPost(b, h, "/v1/batch", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, "/v1/batch", body)
	}
}

// ---- Cluster and client paths ---------------------------------------------

// BenchmarkClusterForwardHit measures the full cross-node cache-hit path: an
// HTTP request enters the NON-owner of its key, is forwarded over loopback to
// the owner (where it hits the cache), and the answer is relayed back
// verbatim. The delta to BenchmarkServeSolveCached is the price of one
// network hop plus the forward/relay plumbing — the cost a client pays for
// not knowing the ring.
func BenchmarkClusterForwardHit(b *testing.B) {
	var srvs [2]*serve.Server
	var urls [2]string
	for i := range srvs {
		srvs[i] = serve.NewServer(serve.Config{Workers: 1})
		ts := httptest.NewServer(srvs[i].Handler())
		urls[i] = ts.URL
		defer ts.Close()
		defer srvs[i].Close()
	}
	for i := range srvs {
		cl, err := cluster.New(urls[i], []string{urls[1-i]}, cluster.Options{})
		benchErr(b, err)
		srvs[i].SetCluster(cl)
	}

	// Probe for a request whose canonical key the OTHER node owns.
	var body []byte
	for threads := 1; threads <= 64 && body == nil; threads++ {
		req := serve.ModelRequest{
			K: 2, Threads: threads, Runlength: 10, MemoryTime: 8, SwitchTime: 2,
			PRemote: 0.2, Psw: 0.5,
		}
		k, err := serve.SolveKey(req)
		benchErr(b, err)
		if srvs[0].Cluster().Ring().Owner(k.Hash()) == urls[1] {
			body, err = json.Marshal(req)
			benchErr(b, err)
		}
	}
	if body == nil {
		b.Fatal("no probed key owned by the peer node")
	}

	post := func() *http.Response {
		resp, err := http.Post(urls[0]+"/v1/solve", "application/json", bytes.NewReader(body))
		benchErr(b, err)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		return resp
	}
	// Prime: the owner solves once and caches; every timed iteration below is
	// a forwarded hit.
	resp := post()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := post()
		if i == 0 && resp.Header.Get("X-Lattold-Cache") != "hit" {
			b.Fatalf("X-Lattold-Cache = %q, want hit", resp.Header.Get("X-Lattold-Cache"))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkClientPostRaw measures lattolclient's request path — one HTTP
// exchange and the exact-length body read — over the daemon's cache-hit
// solve. The delta to BenchmarkServeSolveCached is the client library's
// per-call overhead plus the loopback round trip.
func BenchmarkClientPostRaw(b *testing.B) {
	srv := serve.NewServer(serve.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := lattolclient.New(ts.URL, lattolclient.Options{ClientID: "bench"})
	body, err := json.Marshal(lattolclient.ModelRequest{
		K: 4, Threads: 8, Runlength: 10, MemoryTime: 10, SwitchTime: 10,
		PRemote: 0.2, Psw: 0.5,
	})
	benchErr(b, err)
	ctx := context.Background()
	post := func() {
		raw, err := c.PostRaw(ctx, "/v1/solve", body, nil)
		benchErr(b, err)
		if raw.Status != http.StatusOK {
			b.Fatalf("status %d: %s", raw.Status, raw.Body)
		}
	}
	post() // prime the server cache: every timed call is a hit

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
