// Package mms builds and solves the paper's model of a multithreaded
// multiprocessor system: k×k processing elements on a 2-D torus, each with a
// multithreaded processor, a distributed-shared-memory module and an
// inbound/outbound switch pair, modeled as a closed multiclass queueing
// network (one class per processor, population n_t) and solved with mean
// value analysis.
//
// The package exposes the paper's performance measures: processor utilization
// U_p (Eq. 3), message rate to the network λ_net (Eq. 2), observed one-way
// network latency S_obs (Eq. 1) and observed memory latency L_obs.
package mms

import (
	"flag"
	"math"

	"lattol/internal/access"
	"lattol/internal/topology"
	"lattol/internal/validate"
)

// Config collects the paper's workload and architecture parameters
// (Tables 1 and 5).
type Config struct {
	// K is the number of processing elements per torus dimension (P = K²).
	K int
	// Threads is n_t, the number of threads per processor.
	Threads int
	// Runlength is R, the mean computation time of a thread between memory
	// accesses (includes issuing the access).
	Runlength float64
	// ContextSwitch is C, the context-switch overhead added to each processor
	// service. The paper folds it into R; the default is 0.
	ContextSwitch float64
	// MemoryTime is L, the memory access (service) time without queueing.
	MemoryTime float64
	// SwitchTime is S, the routing time at each switch without queueing.
	SwitchTime float64
	// PRemote is the probability that a memory access targets a remote node.
	PRemote float64
	// Uniform selects the uniform remote access pattern: every remote
	// module is equally likely. False selects the paper's default, the
	// geometric pattern with parameters Psw and GeometricMode. Ignored when
	// PRemote == 0 or K == 1.
	Uniform bool
	// Psw is the locality parameter of the geometric pattern.
	Psw float64
	// GeometricMode selects the geometric normalization (default
	// access.PerDistance, the paper's formulation).
	GeometricMode access.GeometricMode
	// MemoryPorts is the number of parallel ports per memory module; 0
	// means 1. Section 7 of the paper suggests multiporting/pipelining
	// memory for systems with fast networks; this implements that
	// extension.
	MemoryPorts int
	// SwitchPorts is the number of parallel routing engines per switch; 0
	// means 1 (the paper's non-pipelined switch assumption). Larger values
	// model pipelined switches.
	SwitchPorts int
}

// DefaultConfig returns the paper's Table 1 defaults: a 4×4 torus, n_t = 8,
// R = 10, L = 10, S = 10, p_remote = 0.2, geometric pattern with p_sw = 0.5
// (d_avg = 1.733).
func DefaultConfig() Config {
	return Config{
		K:          4,
		Threads:    8,
		Runlength:  10,
		MemoryTime: 10,
		SwitchTime: 10,
		PRemote:    0.2,
		Psw:        0.5,
	}
}

// BindFlags binds the model flags the command-line tools share — k, nt, r,
// l, s, p and psw — to c's fields on fs, with DefaultConfig's values as
// defaults. A tool binds its own extras (context switch, pattern, ports).
func (c *Config) BindFlags(fs *flag.FlagSet) {
	d := DefaultConfig()
	fs.IntVar(&c.K, "k", d.K, "PEs per torus dimension (P = k²)")
	fs.IntVar(&c.Threads, "nt", d.Threads, "threads per processor n_t")
	fs.Float64Var(&c.Runlength, "r", d.Runlength, "thread runlength R")
	fs.Float64Var(&c.MemoryTime, "l", d.MemoryTime, "memory access time L")
	fs.Float64Var(&c.SwitchTime, "s", d.SwitchTime, "switch delay S")
	fs.Float64Var(&c.PRemote, "p", d.PRemote, "remote access probability p_remote")
	fs.Float64Var(&c.Psw, "psw", d.Psw, "geometric locality parameter p_sw")
}

// Validate reports the first invalid parameter as a field-named error
// (*validate.FieldError), so both the CLIs and the HTTP serving layer can
// point at the offending field.
func (c Config) Validate() error {
	if c.K < 1 {
		return validate.Fieldf("mms.Config", "K", "= %d, want >= 1", c.K)
	}
	if c.Threads < 0 {
		return validate.Fieldf("mms.Config", "Threads", "= %d, want >= 0", c.Threads)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Runlength", c.Runlength},
		{"ContextSwitch", c.ContextSwitch},
		{"MemoryTime", c.MemoryTime},
		{"SwitchTime", c.SwitchTime},
	} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return validate.Fieldf("mms.Config", p.name, "= %v, want finite >= 0", p.v)
		}
	}
	if sum := c.Runlength + c.ContextSwitch; sum <= 0 || math.IsInf(sum, 0) {
		return validate.Fieldf("mms.Config", "Runlength", "+ ContextSwitch = %v, want finite > 0", sum)
	}
	if c.PRemote < 0 || c.PRemote > 1 || math.IsNaN(c.PRemote) {
		return validate.Fieldf("mms.Config", "PRemote", "= %v, want in [0,1]", c.PRemote)
	}
	if c.K == 1 && c.PRemote > 0 {
		return validate.Fieldf("mms.Config", "PRemote", "= %v on a single-node system (K=1), want 0", c.PRemote)
	}
	if !c.Uniform && c.PRemote > 0 {
		if c.Psw <= 0 || c.Psw > 1 || math.IsNaN(c.Psw) {
			return validate.Fieldf("mms.Config", "Psw", "= %v, want in (0,1]", c.Psw)
		}
	}
	if c.MemoryPorts < 0 {
		return validate.Fieldf("mms.Config", "MemoryPorts", "= %d, want >= 0", c.MemoryPorts)
	}
	if c.SwitchPorts < 0 {
		return validate.Fieldf("mms.Config", "SwitchPorts", "= %d, want >= 0", c.SwitchPorts)
	}
	return nil
}

// memoryPorts returns the effective memory port count (at least 1).
func (c Config) memoryPorts() int {
	if c.MemoryPorts < 1 {
		return 1
	}
	return c.MemoryPorts
}

// switchPorts returns the effective switch port count (at least 1).
func (c Config) switchPorts() int {
	if c.SwitchPorts < 1 {
		return 1
	}
	return c.SwitchPorts
}

// geometry is the part of a Config that a model's topology and visit ratios
// depend on: SolveBatch indexes its items by it to elaborate each geometry
// once and rebase (Model.rebaseInto) the others of that geometry onto it.
type geometry struct {
	k       int
	pRemote float64
	uniform bool
	psw     float64
	mode    access.GeometricMode
}

func (c Config) geometry() geometry {
	return geometry{k: c.K, pRemote: c.PRemote, uniform: c.Uniform, psw: c.Psw, mode: c.GeometricMode}
}

// pattern resolves the configured access pattern (nil when remote accesses
// are impossible).
func (c Config) pattern(t *topology.Torus) (access.Pattern, error) {
	if c.PRemote == 0 || t.Nodes() == 1 {
		return nil, nil
	}
	if c.Uniform {
		return access.NewUniform(t)
	}
	return access.NewGeometric(t, c.Psw, c.GeometricMode)
}

// processorService returns the mean processor service time per thread
// activation (R + C).
func (c Config) processorService() float64 { return c.Runlength + c.ContextSwitch }

// serviceTime returns the mean service time of a station role.
func (c Config) serviceTime(role StationRole) float64 {
	switch role {
	case Processor:
		return c.processorService()
	case Memory:
		return c.MemoryTime
	default:
		return c.SwitchTime
	}
}

// serverCount returns the number of parallel servers of a station role.
func (c Config) serverCount(role StationRole) int {
	switch role {
	case Memory:
		return c.memoryPorts()
	case Outbound, Inbound:
		return c.switchPorts()
	default:
		return 1
	}
}
