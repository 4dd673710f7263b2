package mms

import (
	"testing"
)

// TestRebaseMatchesBuild verifies a rebased model solves bit-for-bit like a
// freshly built one across every visit-preserving knob.
func TestRebaseMatchesBuild(t *testing.T) {
	base, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"threads", func(c *Config) { c.Threads = 3 }},
		{"runlength", func(c *Config) { c.Runlength = 25 }},
		{"memtime", func(c *Config) { c.MemoryTime = 4 }},
		{"swtime", func(c *Config) { c.SwitchTime = 7 }},
		{"ctxswitch", func(c *Config) { c.ContextSwitch = 2 }},
		{"memports", func(c *Config) { c.MemoryPorts = 2 }},
		{"swports", func(c *Config) { c.SwitchPorts = 2 }},
	}
	for _, tc := range muts {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if cfg.geometry() != base.cfg.geometry() {
				t.Fatalf("%s changes the geometry", tc.name)
			}
			var rebased Model
			base.rebaseInto(&rebased, cfg)
			fresh, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rebased.Solve(SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Solve(SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("rebased solve %+v != fresh solve %+v", got, want)
			}
		})
	}
}

// TestRebaseRefusals verifies SolveBatch never rebases a visit-changing or
// invalid configuration onto an earlier item's model: behind the default
// system in one batch, each answers exactly as it does alone.
func TestRebaseRefusals(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"k", func(c *Config) { c.K = 2 }},
		{"premote", func(c *Config) { c.PRemote = 0.5 }},
		{"psw", func(c *Config) { c.Psw = 0.9 }},
		{"invalid", func(c *Config) { c.Threads = -1 }},
	}
	for _, tc := range muts {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			alone := SolveBatch([]BatchItem{{Config: cfg}}, SolveOptions{})[0]
			behind := SolveBatch([]BatchItem{{Config: DefaultConfig()}, {Config: cfg}}, SolveOptions{})[1]
			if (alone.Err == nil) != (behind.Err == nil) || alone.Metrics != behind.Metrics {
				t.Errorf("behind the default: %+v, alone: %+v", behind, alone)
			}
			if tc.name == "invalid" && behind.Err == nil {
				t.Error("invalid configuration solved")
			}
		})
	}
}
