package serve

import (
	"math"
	"testing"

	"lattol/internal/validate"
)

// baseRequest is a valid default request (the paper's Table 1 system).
func baseRequest() ModelRequest {
	return ModelRequest{
		K: 4, Threads: 8, Runlength: 10, MemoryTime: 10, SwitchTime: 10,
		PRemote: 0.2, Psw: 0.5,
	}
}

// mustKey canonicalizes a request for the solve op, failing the test on any
// validation error.
func mustKey(t *testing.T, r ModelRequest) Key {
	t.Helper()
	cfg, solver, err := components(&r)
	if err != nil {
		t.Fatalf("components(%+v): %v", r, err)
	}
	if err := validateConfig(cfg); err != nil {
		t.Fatalf("validate(%+v): %v", r, err)
	}
	return canonicalKey(cfg, solver, opSolve, 0, 0)
}

func TestCanonicalKeyEquivalences(t *testing.T) {
	base := mustKey(t, baseRequest())

	t.Run("solver name aliases", func(t *testing.T) {
		for _, name := range []string{"symmetric", "symmetric-amva"} {
			r := baseRequest()
			r.Solver = name
			if got := mustKey(t, r); got != base {
				t.Errorf("solver %q: key %+v != default key", name, got)
			}
		}
		r := baseRequest()
		r.Solver = "full"
		if got := mustKey(t, r); got == base {
			t.Error("solver full collapsed onto the symmetric key")
		}
	})

	t.Run("default ports", func(t *testing.T) {
		r := baseRequest()
		r.MemoryPorts, r.SwitchPorts = 1, 1
		if got := mustKey(t, r); got != base {
			t.Errorf("explicit single ports: key %+v != default key", got)
		}
	})

	t.Run("pattern irrelevant without remote accesses", func(t *testing.T) {
		a, b := baseRequest(), baseRequest()
		a.PRemote, a.Psw = 0, 0.3
		b.PRemote, b.Psw, b.Pattern = 0, 0.9, "uniform"
		if mustKey(t, a) != mustKey(t, b) {
			t.Error("p_remote=0 requests with different pattern parameters got different keys")
		}
	})

	t.Run("uniform pattern has no psw", func(t *testing.T) {
		a, b := baseRequest(), baseRequest()
		a.Pattern, a.Psw = "uniform", 0.3
		b.Pattern, b.Psw = "uniform", 0.9
		if mustKey(t, a) != mustKey(t, b) {
			t.Error("uniform-pattern requests with different psw got different keys")
		}
		c := baseRequest()
		c.Psw = 0.3
		if mustKey(t, a) == mustKey(t, c) {
			t.Error("uniform and geometric patterns share a key")
		}
	})

	t.Run("geometric psw is significant", func(t *testing.T) {
		a := baseRequest()
		a.Psw = 0.3
		if mustKey(t, a) == base {
			t.Error("different psw collapsed onto one key")
		}
	})

	t.Run("negative zero", func(t *testing.T) {
		a := baseRequest()
		a.ContextSwitch = math.Copysign(0, -1)
		if mustKey(t, a) != base {
			t.Error("-0.0 context switch got a different key than 0.0")
		}
	})

	t.Run("solve and tolerance ops are disjoint", func(t *testing.T) {
		r := baseRequest()
		cfg, solver, _ := components(&r)
		s := canonicalKey(cfg, solver, opSolve, 0, 0)
		tol := canonicalKey(cfg, solver, opTolerance, 0, 0)
		if s == tol {
			t.Error("solve and tolerance keys collide")
		}
	})
}

func TestRequestValidateFieldNames(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ModelRequest)
		field  string
	}{
		{"zero k", func(r *ModelRequest) { r.K = 0 }, "K"},
		{"negative threads", func(r *ModelRequest) { r.Threads = -1 }, "Threads"},
		{"p_remote out of range", func(r *ModelRequest) { r.PRemote = 1.5 }, "PRemote"},
		{"NaN runlength", func(r *ModelRequest) { r.Runlength = math.NaN() }, "Runlength"},
		{"bad psw", func(r *ModelRequest) { r.Psw = 0 }, "Psw"},
		{"bad pattern", func(r *ModelRequest) { r.Pattern = "bogus" }, "pattern"},
		{"bad geometric mode", func(r *ModelRequest) { r.GeometricMode = "bogus" }, "geometric_mode"},
		{"bad solver", func(r *ModelRequest) { r.Solver = "bogus" }, "Solver"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := baseRequest()
			tc.mutate(&r)
			_, err := SolveKey(r)
			if err == nil {
				t.Fatal("invalid request validated")
			}
			if got := validate.Field(err); got != tc.field {
				t.Errorf("field = %q, want %q (err: %v)", got, tc.field, err)
			}
		})
	}
}

func TestUniformPatternValidatesWithoutPsw(t *testing.T) {
	r := baseRequest()
	r.Pattern, r.Psw = "uniform", 0
	if _, err := SolveKey(r); err != nil {
		t.Errorf("uniform request without psw rejected: %v", err)
	}
}

func TestKeyConfigRoundTrip(t *testing.T) {
	r := baseRequest()
	r.Pattern = "uniform"
	k, err := SolveKey(r)
	if err != nil {
		t.Fatal(err)
	}
	back := k.ModelConfig()
	if !back.Uniform || back.Psw != 0 {
		t.Fatalf("uniform key's config = %+v, want Uniform and no psw", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped config invalid: %v", err)
	}
	if back.K != 4 || back.Threads != 8 || back.MemoryPorts != 1 {
		t.Errorf("round-tripped config = %+v", back)
	}
}
