package experiments

import (
	"fmt"
	"math"
	"testing"

	"lattol/internal/conformance"
	"lattol/internal/mms"
	"lattol/internal/tolerance"
)

// coldPoint solves one configuration point by point from cold: the real
// system (mms.Solve) and both tolerance indices (tolerance.Compute), with no
// batch, workspace reuse or continuation.
type coldPoint struct {
	met      mms.Metrics
	net, mem float64
}

func solveCold(t *testing.T, cfg mms.Config) coldPoint {
	t.Helper()
	met, err := mms.Solve(cfg)
	if err != nil {
		t.Fatalf("mms.Solve(%+v): %v", cfg, err)
	}
	net, err := tolerance.NetworkIndex(cfg)
	if err != nil {
		t.Fatalf("NetworkIndex(%+v): %v", cfg, err)
	}
	mem, err := tolerance.MemoryIndex(cfg)
	if err != nil {
		t.Fatalf("MemoryIndex(%+v): %v", cfg, err)
	}
	return coldPoint{met: met, net: net.Tol, mem: mem.Tol}
}

// checkRel fails the test when got is further than conformance.GoldenRelTol
// (relative) from want.
func checkRel(t *testing.T, what string, got, want float64) {
	t.Helper()
	d := math.Abs(got - want)
	if s := math.Abs(want); s > 0 {
		d /= s
	}
	if d > conformance.GoldenRelTol {
		t.Errorf("%s: batch %v, cold %v (rel %.2g)", what, got, want, d)
	}
}

// TestBatchedExhibitsMatchColdSolves: every exhibit solved as one lockstep
// batch lands on the fixed points that per-point cold solves reach.
func TestBatchedExhibitsMatchColdSolves(t *testing.T) {
	for _, fig := range []func() (*WorkloadSurfaces, error){Figure4, Figure5} {
		w, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		for ti, nt := range w.Threads {
			for pi, p := range w.PRemote {
				cfg := mms.DefaultConfig()
				cfg.Runlength = w.Runlength
				cfg.Threads = nt
				cfg.PRemote = p
				c := solveCold(t, cfg)
				at := fmt.Sprintf("workload surface R=%g n_t=%d p_remote=%g", w.Runlength, nt, p)
				checkRel(t, at+" U_p", w.Up[ti][pi], c.met.Up)
				checkRel(t, at+" S_obs", w.SObs[ti][pi], c.met.SObs)
				checkRel(t, at+" lambda_net", w.LamNet[ti][pi], c.met.LambdaNet)
				checkRel(t, at+" tol_network", w.TolNet[ti][pi], c.net)
			}
		}
	}

	for _, fig := range []func() (*TolSurfaces, error){Figure6, Figure8} {
		s, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		for vi, v := range s.Values {
			for ti, nt := range s.Threads {
				for ri, r := range s.Runs {
					cfg := mms.DefaultConfig()
					cfg.Runlength = r
					cfg.Threads = nt
					want := 0.0
					if s.Metric == "tol_memory" {
						cfg.MemoryTime = v
						want = solveCold(t, cfg).mem
					} else {
						cfg.PRemote = v
						want = solveCold(t, cfg).net
					}
					checkRel(t, fmt.Sprintf("%s %s=%g n_t=%d R=%g", s.Metric, s.Secondary, v, nt, r), s.Z[vi][ti][ri], want)
				}
			}
		}
	}

	f7, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range f7.PRemote {
		for wi, work := range f7.Works {
			s := f7.Curves[pi][wi]
			for i, r := range s.X {
				cfg := mms.DefaultConfig()
				cfg.Threads = work / int(r)
				cfg.Runlength = r
				cfg.PRemote = p
				checkRel(t, fmt.Sprintf("figure7 p_remote=%g %s R=%g", p, s.Name, r), s.Y[i], solveCold(t, cfg).net)
			}
		}
	}

	for _, table := range []func() (*PartitionTable, error){Table3, Table4} {
		tab, err := table()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			cfg := mms.DefaultConfig()
			cfg.PRemote = row.PRemote
			cfg.MemoryTime = row.L
			cfg.Threads = row.Threads
			cfg.Runlength = row.R
			c := solveCold(t, cfg)
			at := fmt.Sprintf("%s row p_remote=%g L=%g n_t=%d R=%g", tab.Title[:7], row.PRemote, row.L, row.Threads, row.R)
			checkRel(t, at+" L_obs", row.LObs, c.met.LObs)
			checkRel(t, at+" S_obs", row.SObs, c.met.SObs)
			checkRel(t, at+" lambda_net", row.LamNet, c.met.LambdaNet)
			checkRel(t, at+" U_p", row.Up, c.met.Up)
			checkRel(t, at+" tol_network", row.TolNet, c.net)
			checkRel(t, at+" tol_memory", row.TolMem, c.mem)
		}
	}
}
