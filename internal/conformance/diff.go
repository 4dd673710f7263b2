package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/simmms"
	"lattol/internal/sweep"
	"lattol/internal/tolerance"
)

// DiffOptions configures a differential run. The zero value selects the
// PR-budget defaults; the nightly workflow widens Trials and the simulation
// horizon through the environment (see diff_test.go).
type DiffOptions struct {
	// Trials is the number of randomized configurations. Default 6.
	Trials int
	// Seed is the base seed; every trial derives its own independent RNG and
	// simulation seeds from (Seed, trial) via sweep.DeriveSeed, so one
	// failure line reproduces locally at any worker count. Default 1.
	Seed int64
	// SimWarmup and SimDuration set the simulation horizon (defaults 5000
	// and 40000 — the unit-test horizon; validation runs use longer).
	SimWarmup, SimDuration float64
	// SkipSim restricts the run to the analytical substrates (used by the
	// fuzz targets, where a simulation per input would be far too slow).
	SkipSim bool
	// MaxExactStates bounds the exact-MVA population lattice; trials whose
	// lattice is larger skip the exact comparison. Default 1<<20.
	MaxExactStates int
	// Bands are the agreement bands; zero fields take the documented
	// defaults.
	Bands Bands
	// SimUp and SimLatency are the relative agreement bands between the
	// analytical model and the simulators for utilization/rate metrics and
	// for observed latencies. Defaults 0.12 and 0.30. Both are widened 2.5×
	// on configurations with multi-port stations, where the shadow-server
	// approximation is deliberately pessimistic.
	SimUp, SimLatency float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Trials <= 0 {
		o.Trials = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SimWarmup <= 0 {
		o.SimWarmup = 5000
	}
	if o.SimDuration <= 0 {
		o.SimDuration = 40000
	}
	if o.MaxExactStates <= 0 {
		o.MaxExactStates = 1 << 20
	}
	if o.SimUp <= 0 {
		o.SimUp = 0.12
	}
	if o.SimLatency <= 0 {
		o.SimLatency = 0.30
	}
	o.Bands = o.Bands.withDefaults()
	return o
}

// RandomConfig draws one randomized model configuration from rng: torus
// sizes 1..3, 1..6 threads, service times and remote fractions spanning the
// paper's operating range, with occasional context-switch overhead and
// multi-port stations. The domain deliberately avoids near-zero service
// times and extreme p_remote — the harness certifies the documented
// operating range, not the solvers' behavior at singular corners (those are
// the fuzz targets' job).
func RandomConfig(rng *rand.Rand) mms.Config {
	cfg := mms.Config{
		K:          1 + rng.Intn(3),
		Threads:    1 + rng.Intn(6),
		Runlength:  2 + 18*rng.Float64(),
		MemoryTime: 1 + 14*rng.Float64(),
		SwitchTime: 1 + 9*rng.Float64(),
	}
	if cfg.K > 1 {
		cfg.PRemote = 0.05 + 0.55*rng.Float64()
		cfg.Psw = 0.3 + 0.4*rng.Float64()
	}
	if rng.Intn(4) == 0 {
		cfg.ContextSwitch = 2 * rng.Float64()
	}
	if rng.Intn(4) == 0 {
		cfg.MemoryPorts = 2
	}
	if rng.Intn(4) == 0 {
		cfg.SwitchPorts = 2
	}
	return cfg
}

// DiffFailure reports one failed differential trial: the seed coordinates
// that reproduce it, the configuration that failed and its shrunk minimal
// form, and the underlying violation.
type DiffFailure struct {
	Seed   int64
	Trial  int
	Config mms.Config
	// Shrunk is the minimal configuration that still fails (equal to Config
	// when no simplification preserved the failure).
	Shrunk mms.Config
	Err    error
}

func (f *DiffFailure) Error() string {
	return fmt.Sprintf("conformance: trial %d (seed %d) failed on %+v; shrunk reproducer %+v: %v",
		f.Trial, f.Seed, f.Config, f.Shrunk, f.Err)
}

func (f *DiffFailure) Unwrap() error { return f.Err }

// hasMultiPort reports whether any station of cfg has more than one server.
func hasMultiPort(cfg mms.Config) bool {
	return cfg.MemoryPorts > 1 || cfg.SwitchPorts > 1
}

// exactStates returns the exact-MVA lattice size of cfg, or 0 on overflow.
func exactStates(cfg mms.Config) int {
	states := 1
	for i := 0; i < cfg.K*cfg.K; i++ {
		if states > math.MaxInt/(cfg.Threads+1) {
			return 0
		}
		states *= cfg.Threads + 1
	}
	return states
}

// CheckConfig runs the full differential stack on one configuration with
// simulation seeds derived from (seed, trial):
//
//  1. symmetric AMVA metrics satisfy the operational laws (CheckMetrics) and
//     both tolerance indices are in range;
//  2. full AMVA agrees with symmetric AMVA (same fixed point, band
//     Bands.Identity relative) and its full per-class solution satisfies
//     CheckResult;
//  3. exact MVA (when the lattice fits MaxExactStates) agrees with AMVA
//     within the documented divergence band;
//  4. unless SkipSim, the direct DES and the Petri-net substrate agree with
//     the analytical metrics within the simulation bands.
func CheckConfig(cfg mms.Config, seed int64, trial int, opts DiffOptions) error {
	opts = opts.withDefaults()
	model, err := mms.Build(cfg)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}

	sym, err := model.Solve(mms.SolveOptions{Solver: mms.SymmetricAMVA})
	if err != nil {
		return fmt.Errorf("symmetric AMVA: %w", err)
	}
	if err := CheckMetrics(model, sym, opts.Bands); err != nil {
		return err
	}
	for _, tc := range []struct {
		sub  tolerance.Subsystem
		mode tolerance.IdealMode
	}{
		{tolerance.Network, tolerance.ZeroRemote},
		{tolerance.Memory, tolerance.ZeroDelay},
	} {
		idx, err := tolerance.Compute(cfg, tc.sub, tc.mode, mms.SolveOptions{})
		if err != nil {
			return fmt.Errorf("tolerance %v/%v: %w", tc.sub, tc.mode, err)
		}
		if err := CheckToleranceIndex(idx, opts.Bands); err != nil {
			return fmt.Errorf("tolerance %v/%v: %w", tc.sub, tc.mode, err)
		}
	}

	full, err := model.Solve(mms.SolveOptions{Solver: mms.FullAMVA})
	if err != nil {
		return fmt.Errorf("full AMVA: %w", err)
	}
	for _, pair := range []struct {
		name      string
		sym, full float64
	}{
		{"U_p", sym.Up, full.Up},
		{"λ_net", sym.LambdaNet, full.LambdaNet},
		{"S_obs", sym.SObs, full.SObs},
		{"L_obs", sym.LObs, full.LObs},
	} {
		if relErr(pair.full, pair.sym) > opts.Bands.Identity {
			return violatef("symmetric-vs-full", "%s: symmetric %v, full %v",
				pair.name, pair.sym, pair.full)
		}
	}
	net := model.Network()
	res, err := mva.ApproxMultiClass(net, mva.AMVAOptions{})
	if err != nil {
		return fmt.Errorf("full AMVA on network: %w", err)
	}
	if err := CheckResult(net, res, opts.Bands); err != nil {
		return err
	}

	if s := exactStates(cfg); s > 0 && s <= opts.MaxExactStates {
		if err := CheckAMVAVsExact(net, opts.MaxExactStates, opts.Bands); err != nil {
			return err
		}
	}

	if opts.SkipSim {
		return nil
	}
	upBand, latBand := opts.SimUp, opts.SimLatency
	if hasMultiPort(cfg) {
		upBand *= 2.5
		latBand *= 2.5
	}
	for _, eng := range []simmms.EngineKind{simmms.Direct, simmms.STPN} {
		sim, err := simmms.Run(cfg, simmms.Options{
			Engine:   eng,
			Seed:     sweep.DeriveSeed(seed, int64(trial), int64(eng)+10),
			Warmup:   opts.SimWarmup,
			Duration: opts.SimDuration,
		})
		if err != nil {
			return fmt.Errorf("%v simulation: %w", eng, err)
		}
		for _, pair := range []struct {
			name      string
			ana, sim  float64
			band      float64
			onlyIfPos bool
		}{
			{"U_p", sym.Up, sim.Up, upBand, false},
			{"λ_net", sym.LambdaNet, sim.LambdaNet, upBand, true},
			{"S_obs", sym.SObs, sim.SObs, latBand, true},
			{"L_obs", sym.LObs, sim.LObs, latBand, false},
		} {
			if pair.onlyIfPos && pair.ana == 0 {
				continue
			}
			if relErr(pair.sim, pair.ana) > pair.band {
				return violatef("analytical-vs-"+eng.String(), "%s: analytical %v, simulated %v (band %.2f)",
					pair.name, pair.ana, pair.sim, pair.band)
			}
		}
	}
	return nil
}

// maxContinuationThreads bounds the thread count of RunDiff's continuation
// leg: high enough to reach populations where a seeded kernel solve once
// stalled (nt = 262), cheap enough for every trial.
const maxContinuationThreads = 512

// CheckContinuation solves cfg with the symmetric AMVA cold and then twice
// seeded (WarmStart), the continuation lattold's workers run: on a
// workspace that just solved the same system at Threads−1, and on one that
// just solved the unrelated system from, whose role totals seed a point of
// another size and shape. Every solve must converge and both seeded answers
// must agree with the cold one within GoldenRelTol.
func CheckContinuation(cfg, from mms.Config) error {
	model, err := mms.Build(cfg)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	cold, err := model.Solve(mms.SolveOptions{})
	if err != nil {
		return fmt.Errorf("cold solve: %w", err)
	}
	prev := cfg
	prev.Threads = max(cfg.Threads-1, 1)
	for _, leg := range []struct {
		name string
		cfg  mms.Config
	}{{"nt-1", prev}, {"unrelated", from}} {
		seedModel, err := mms.Build(leg.cfg)
		if err != nil {
			return fmt.Errorf("build at %s %+v: %w", leg.name, leg.cfg, err)
		}
		ws := new(mms.Workspace)
		if _, err := seedModel.Solve(mms.SolveOptions{Workspace: ws}); err != nil {
			return fmt.Errorf("solve at %s %+v: %w", leg.name, leg.cfg, err)
		}
		seeded, err := model.Solve(mms.SolveOptions{Workspace: ws, WarmStart: true})
		if err != nil {
			return violatef("continuation", "seeded from %s %+v: %v", leg.name, leg.cfg, err)
		}
		for _, pair := range []struct {
			name         string
			cold, seeded float64
		}{
			{"U_p", cold.Up, seeded.Up},
			{"λ_net", cold.LambdaNet, seeded.LambdaNet},
			{"S_obs", cold.SObs, seeded.SObs},
			{"L_obs", cold.LObs, seeded.LObs},
		} {
			if relErr(pair.seeded, pair.cold) > GoldenRelTol {
				return violatef("continuation", "%s: cold %v, seeded from %s %+v: %v", pair.name, pair.cold, leg.name, leg.cfg, pair.seeded)
			}
		}
	}
	return nil
}

// unrelatedConfig draws a RandomConfig that differs from cfg, another
// RandomConfig, in torus size, access pattern and remote fraction, with up
// to maxContinuationThreads threads: the seed of CheckContinuation's
// cross-shape leg. RandomConfig draws the geometric pattern only, so the
// unrelated one is uniform.
func unrelatedConfig(rng *rand.Rand, cfg mms.Config) mms.Config {
	from := RandomConfig(rng)
	for from.K == cfg.K {
		from = RandomConfig(rng)
	}
	from.Uniform = from.K > 1
	from.Threads = 1 + rng.Intn(maxContinuationThreads)
	return from
}

// shrinkSteps are the candidate simplifications tried, in order, by Shrink.
// Each either simplifies the configuration or returns it unchanged.
var shrinkSteps = []func(mms.Config) mms.Config{
	func(c mms.Config) mms.Config { c.ContextSwitch = 0; return c },
	func(c mms.Config) mms.Config { c.MemoryPorts = 0; return c },
	func(c mms.Config) mms.Config { c.SwitchPorts = 0; return c },
	func(c mms.Config) mms.Config {
		if c.K > 1 {
			c.K--
			if c.K == 1 {
				c.PRemote, c.Psw = 0, 0
			}
		}
		return c
	},
	func(c mms.Config) mms.Config {
		if c.Threads > 1 {
			c.Threads /= 2
		}
		return c
	},
	func(c mms.Config) mms.Config {
		if c.Threads > 1 {
			c.Threads--
		}
		return c
	},
	func(c mms.Config) mms.Config {
		if c.PRemote > 0 {
			c.PRemote = math.Round(c.PRemote*10) / 10
			if c.PRemote == 0 {
				c.Psw = 0
			}
		}
		return c
	},
	func(c mms.Config) mms.Config {
		if c.Psw > 0 {
			c.Psw = 0.5
		}
		return c
	},
	func(c mms.Config) mms.Config { c.Runlength = math.Max(1, math.Round(c.Runlength)); return c },
	func(c mms.Config) mms.Config { c.MemoryTime = math.Max(1, math.Round(c.MemoryTime)); return c },
	func(c mms.Config) mms.Config { c.SwitchTime = math.Max(1, math.Round(c.SwitchTime)); return c },
}

// Shrink greedily simplifies a failing configuration while the predicate
// keeps failing: ports dropped, context switch zeroed, the torus and thread
// count reduced, probabilities and service times rounded. It returns the
// smallest configuration reached and caps predicate evaluations at budget
// (default 64 when ≤ 0) — each evaluation may run simulations.
func Shrink(cfg mms.Config, fails func(mms.Config) bool, budget int) mms.Config {
	if budget <= 0 {
		budget = 64
	}
	for changed := true; changed && budget > 0; {
		changed = false
		for _, step := range shrinkSteps {
			cand := step(cfg)
			if cand == cfg || cand.Validate() != nil {
				continue
			}
			budget--
			if fails(cand) {
				cfg = cand
				changed = true
			}
			if budget == 0 {
				break
			}
		}
	}
	return cfg
}

// RunDiff runs the differential harness: opts.Trials randomized
// configurations, fanned out over the sweep runner, each checked with
// CheckConfig. Each trial also draws a second configuration with up to 512
// threads (maxContinuationThreads) and checks it with CheckContinuation,
// seeded across shapes from a third, unrelated one (unrelatedConfig).
// Failing trials are shrunk to a minimal reproducer and reported as
// *DiffFailure (joined when several trials fail).
func RunDiff(ctx context.Context, opts DiffOptions) error {
	opts = opts.withDefaults()
	trials := make([]int, opts.Trials)
	for i := range trials {
		trials[i] = i
	}
	_, err := sweep.Run(ctx, trials, sweep.Options{}, func(trial int) (struct{}, error) {
		rng := rand.New(rand.NewSource(sweep.DeriveSeed(opts.Seed, int64(trial))))
		cfg := RandomConfig(rng)
		hi := RandomConfig(rng)
		hi.Threads = 1 + rng.Intn(maxContinuationThreads)
		from := unrelatedConfig(rng, hi)
		for _, leg := range []struct {
			cfg   mms.Config
			check func(mms.Config) error
		}{
			{cfg, func(c mms.Config) error { return CheckConfig(c, opts.Seed, trial, opts) }},
			{hi, func(c mms.Config) error { return CheckContinuation(c, from) }},
		} {
			err := leg.check(leg.cfg)
			if err == nil {
				continue
			}
			shrunk := Shrink(leg.cfg, func(c mms.Config) bool { return leg.check(c) != nil }, 0)
			return struct{}{}, &DiffFailure{
				Seed:   opts.Seed,
				Trial:  trial,
				Config: leg.cfg,
				Shrunk: shrunk,
				Err:    err,
			}
		}
		return struct{}{}, nil
	})
	return err
}
