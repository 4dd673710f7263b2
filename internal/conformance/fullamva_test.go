package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"

	"testing"

	lattolclient "lattol/internal/client"
	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/serve"
)

// TestFullAMVAOneAnswer solves full-AMVA models the three ways a caller can
// ask: Model.Solve with default options (the CLIs and paperfigs),
// eval.Solver (lattolplan) and lattold's /v1/solve with "solver":"full".
// Every path runs the same accelerated loop from the same cold start, so
// U_p must agree bit for bit and the iteration counts exactly.
func TestFullAMVAOneAnswer(t *testing.T) {
	for _, c := range []struct {
		k, nt int
		r, p  float64
	}{{2, 3, 10, 0.3}, {3, 8, 10, 0.5}, {4, 10, 10, 0.9}, {5, 4, 20, 0.2}, {6, 8, 10, 0.4}} {
		cfg := mms.DefaultConfig()
		cfg.K, cfg.Threads, cfg.Runlength, cfg.PRemote = c.k, c.nt, c.r, c.p

		model, err := mms.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := model.Solve(mms.SolveOptions{Solver: mms.FullAMVA})
		if err != nil {
			t.Fatalf("%+v: Model.Solve: %v", c, err)
		}

		planned, err := eval.One(context.Background(), eval.NewSolver(),
			eval.Config{Model: cfg, Solver: mms.FullAMVA}, eval.Options{})
		if err != nil {
			t.Fatalf("%+v: eval.Solver: %v", c, err)
		}

		body, err := json.Marshal(serve.ModelRequest{
			K: cfg.K, Threads: cfg.Threads, Runlength: cfg.Runlength,
			ContextSwitch: cfg.ContextSwitch, MemoryTime: cfg.MemoryTime,
			SwitchTime: cfg.SwitchTime, PRemote: cfg.PRemote, Psw: cfg.Psw,
			Solver: "full",
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServer(serve.Config{Workers: 1})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		srv.Close()
		if rec.Code != http.StatusOK {
			t.Fatalf("%+v: /v1/solve: %d %s", c, rec.Code, rec.Body)
		}
		var served lattolclient.SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
			t.Fatal(err)
		}

		for _, got := range []struct {
			path  string
			up    float64
			iters int
		}{
			{"eval.Solver", planned.Up, planned.Iterations},
			{"/v1/solve", served.Metrics.Up, served.Metrics.Iterations},
		} {
			if got.up != direct.Up || got.iters != direct.Iterations {
				t.Errorf("%+v: %s answers U_p %.17g in %d iterations, Model.Solve %.17g in %d",
					c, got.path, got.up, got.iters, direct.Up, direct.Iterations)
			}
		}
	}
}
