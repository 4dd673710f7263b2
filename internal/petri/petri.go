// Package petri implements stochastic timed Petri nets (STPN) with colored
// tokens — the modeling substrate the paper uses to validate its analytical
// results (Section 8).
//
// Semantics: places hold FIFO queues of tokens; a timed transition is
// enabled when every input place is nonempty. An enabled, idle transition
// immediately *starts* a firing: it removes the head token of each input
// place, samples a firing delay from its distribution, and completes the
// firing after that delay by invoking its Fire function, which maps the
// consumed tokens to output tokens on output places. Each transition has a
// bounded number of servers (one by default): at most that many firings are
// in progress at a time, so a transition with a delay models an FCFS service
// center — the paper's subsystem model, with multi-server variants for
// multiported memories and pipelined switches. When several transitions
// share an input place,
// the one registered first is started first (deterministic preselection);
// probabilistic routing is expressed inside Fire, which receives the random
// stream.
package petri

import (
	"fmt"

	"lattol/internal/des"
	"lattol/internal/stats"
)

// PlaceID identifies a place.
type PlaceID int

// TransitionID identifies a transition.
type TransitionID int

// Token is a colored token: Data carries the color (any payload), Deposited
// records when it entered its current place.
type Token struct {
	Data      interface{}
	Deposited float64
}

// Output is a token deposited on a place when a firing completes.
type Output struct {
	Place PlaceID
	Data  interface{}
}

// Firing is the context passed to a transition's Fire function. The context
// and its Tokens slice are owned by the net and recycled after Fire returns:
// Fire must not retain the *Firing or the Tokens slice beyond the call
// (copy Token.Data out if it must escape).
type Firing struct {
	// Now is the completion time of the firing.
	Now float64
	// Started is when the firing started (tokens were consumed).
	Started float64
	// Rand is the net's random stream, for probabilistic routing.
	Rand *stats.RNG
	// Tokens are the consumed tokens, one per input place, in input order.
	Tokens []Token

	// out accumulates outputs emitted via Out into a buffer reused across
	// firings, so hot Fire functions need not allocate a return slice.
	out []Output
}

// Out deposits a token on a place when the firing completes, like returning
// an Output from Fire but without allocating a slice: the entries land in a
// net-owned buffer reused across firings. Outputs emitted with Out are
// deposited before any returned by Fire's return value; a Fire function may
// use either or both.
func (f *Firing) Out(p PlaceID, data interface{}) {
	f.out = append(f.out, Output{Place: p, Data: data})
}

// Transition describes a timed transition.
type Transition struct {
	Name string
	// Inputs lists the places from which one token each is consumed.
	Inputs []PlaceID
	// Delay is the firing-delay distribution (use stats.Deterministic{0} for
	// an immediate transition).
	Delay stats.Dist
	// Servers is the maximum number of concurrent firings; 0 means 1
	// (single-server, the paper's subsystem model). Larger values model
	// multiported memories or pipelined switches.
	Servers int
	// Fire maps consumed tokens to outputs. A nil Fire absorbs the tokens.
	Fire func(f *Firing) []Output
}

func (t Transition) servers() int {
	if t.Servers < 1 {
		return 1
	}
	return t.Servers
}

// tokenRing is a FIFO of tokens backed by a circular buffer, so the
// steady-state deposit/consume cycle neither allocates nor slides a slice
// window off its backing array.
type tokenRing struct {
	buf  []Token
	head int
	n    int
}

func (r *tokenRing) len() int { return r.n }

func (r *tokenRing) push(t Token) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = t
	r.n++
}

func (r *tokenRing) pop() Token {
	t := r.buf[r.head]
	r.buf[r.head] = Token{} // release the Data reference
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return t
}

// clear empties the ring, dropping token Data references but keeping the
// backing buffer for reuse.
func (r *tokenRing) clear() {
	for i := range r.buf {
		r.buf[i] = Token{}
	}
	r.head, r.n = 0, 0
}

func (r *tokenRing) grow() {
	nb := make([]Token, 2*len(r.buf)+4)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		nb[i] = r.buf[j]
	}
	r.buf = nb
	r.head = 0
}

type place struct {
	name string
	fifo tokenRing
	// consumers are transitions with this place among their inputs, in
	// registration order.
	consumers []TransitionID
	// Wait accumulates token waiting times in this place.
	wait stats.Mean
}

type transition struct {
	def Transition
	// delay is def.Delay compiled into a direct-dispatch sampler.
	delay    stats.Sampler
	inFlight int
	busyTW   stats.TimeWeighted
	served   int64
}

// firing is an in-flight firing record: the consumed tokens parked between
// service start and completion. Records are recycled through the net's
// free list so steady-state firing costs no allocation.
type firing struct {
	tid     TransitionID
	started float64
	tokens  []Token
	next    *firing // free-list link
}

// Net is a stochastic timed Petri net bound to a simulation engine.
type Net struct {
	engine      *des.Engine
	places      []*place
	transitions []*transition
	sealed      bool

	// freeFirings is the recycled-record free list; fctx and outBuf are the
	// Firing context and output buffer reused across completions.
	freeFirings *firing
	fctx        Firing
	outBuf      []Output
}

// New creates an empty net with its own engine and random stream.
func New(seed int64) *Net {
	return &Net{engine: des.NewEngine(seed)}
}

// Engine exposes the underlying engine (for Now and custom events).
func (n *Net) Engine() *des.Engine { return n.engine }

// AddPlace adds a place and returns its ID.
func (n *Net) AddPlace(name string) PlaceID {
	if n.sealed {
		panic("petri: AddPlace after Run")
	}
	p := &place{name: name}
	n.places = append(n.places, p)
	return PlaceID(len(n.places) - 1)
}

// AddTransition adds a transition and returns its ID. Inputs must reference
// existing places and there must be at least one.
func (n *Net) AddTransition(def Transition) (TransitionID, error) {
	if n.sealed {
		return 0, fmt.Errorf("petri: AddTransition after Run")
	}
	if len(def.Inputs) == 0 {
		return 0, fmt.Errorf("petri: transition %q has no inputs", def.Name)
	}
	if def.Delay == nil {
		return 0, fmt.Errorf("petri: transition %q has no delay distribution", def.Name)
	}
	for _, in := range def.Inputs {
		if int(in) < 0 || int(in) >= len(n.places) {
			return 0, fmt.Errorf("petri: transition %q input place %d out of range", def.Name, in)
		}
	}
	t := &transition{def: def, delay: stats.MakeSampler(def.Delay)}
	t.busyTW.Set(n.engine.Now(), 0)
	n.transitions = append(n.transitions, t)
	id := TransitionID(len(n.transitions) - 1)
	for _, in := range def.Inputs {
		n.places[in].consumers = append(n.places[in].consumers, id)
	}
	return id, nil
}

// MustAddTransition is AddTransition for known-good definitions.
func (n *Net) MustAddTransition(def Transition) TransitionID {
	id, err := n.AddTransition(def)
	if err != nil {
		panic(err)
	}
	return id
}

// Put deposits a token with the given color on a place at the current time
// and starts any transition it enables.
func (n *Net) Put(p PlaceID, data interface{}) {
	n.deposit(p, data)
}

func (n *Net) deposit(pid PlaceID, data interface{}) {
	p := n.places[pid]
	p.fifo.push(Token{Data: data, Deposited: n.engine.Now()})
	for _, tid := range p.consumers {
		if n.tryStart(tid) {
			break
		}
	}
}

// getFiring pops a record off the free list (or allocates one) with room for
// k tokens.
func (n *Net) getFiring(k int) *firing {
	f := n.freeFirings
	if f == nil {
		f = &firing{}
	} else {
		n.freeFirings = f.next
		f.next = nil
	}
	if cap(f.tokens) < k {
		f.tokens = make([]Token, k)
	}
	f.tokens = f.tokens[:k]
	return f
}

func (n *Net) putFiring(f *firing) {
	for i := range f.tokens {
		f.tokens[i] = Token{}
	}
	f.tokens = f.tokens[:0]
	f.next = n.freeFirings
	n.freeFirings = f
}

// fireHandler completes a firing; Actor is the net, Data the firing record.
func fireHandler(_ *des.Engine, ev des.Event) {
	ev.Actor.(*Net).complete(ev.Data.(*firing))
}

// tryStart begins a firing of transition tid if it has a free server and is
// enabled.
func (n *Net) tryStart(tid TransitionID) bool {
	t := n.transitions[tid]
	if t.inFlight >= t.def.servers() {
		return false
	}
	for _, in := range t.def.Inputs {
		if n.places[in].fifo.len() == 0 {
			return false
		}
	}
	now := n.engine.Now()
	rec := n.getFiring(len(t.def.Inputs))
	rec.tid = tid
	rec.started = now
	for i, in := range t.def.Inputs {
		p := n.places[in]
		tok := p.fifo.pop()
		p.wait.Add(now - tok.Deposited)
		rec.tokens[i] = tok
	}
	t.inFlight++
	t.busyTW.Set(now, float64(t.inFlight)/float64(t.def.servers()))
	delay := t.delay.Sample(&n.engine.Rand)
	n.engine.AfterEvent(delay, fireHandler, des.Event{Actor: n, Data: rec})
	return true
}

func (n *Net) complete(rec *firing) {
	t := n.transitions[rec.tid]
	now := n.engine.Now()
	t.served++
	var outs, buffered []Output
	if t.def.Fire != nil {
		n.fctx = Firing{Now: now, Started: rec.started, Rand: &n.engine.Rand,
			Tokens: rec.tokens, out: n.outBuf[:0]}
		outs = t.def.Fire(&n.fctx)
		buffered = n.fctx.out
		n.outBuf = n.fctx.out[:0] // reclaim (possibly grown) buffer for the next firing
	}
	t.inFlight--
	t.busyTW.Set(now, float64(t.inFlight)/float64(t.def.servers()))
	// Outputs emitted via Firing.Out first, then any returned slice. deposit
	// never re-enters complete synchronously (a newly enabled firing
	// completes through a future engine event), so the buffer is stable
	// while we drain it.
	for _, o := range buffered {
		n.deposit(o.Place, o.Data)
	}
	for _, o := range outs {
		n.deposit(o.Place, o.Data)
	}
	tid := rec.tid
	n.putFiring(rec)
	// The freed server may be enabled again by tokens that queued during the
	// firing.
	n.tryStart(tid)
}

// Run advances the simulation until the horizon.
func (n *Net) Run(horizon float64) {
	n.sealed = true
	n.engine.Run(horizon)
}

// Marking returns the number of tokens currently waiting in place p
// (excluding tokens consumed by in-progress firings).
func (n *Net) Marking(p PlaceID) int { return n.places[p].fifo.len() }

// TokensInTransit returns the number of firings currently in progress.
func (n *Net) TokensInTransit() int {
	c := 0
	for _, t := range n.transitions {
		c += t.inFlight
	}
	return c
}

// Utilization returns the busy fraction of a transition (servers in use /
// servers, time-averaged) up to now.
func (n *Net) Utilization(t TransitionID) float64 {
	return n.transitions[t].busyTW.MeanAt(n.engine.Now())
}

// Served returns the number of completed firings of a transition since the
// last ResetStats.
func (n *Net) Served(t TransitionID) int64 { return n.transitions[t].served }

// MeanWait returns the mean token waiting time in a place (time from deposit
// to consumption) since the last ResetStats.
func (n *Net) MeanWait(p PlaceID) float64 { return n.places[p].wait.Mean() }

// WaitCount returns how many tokens have been consumed from a place since
// the last ResetStats.
func (n *Net) WaitCount(p PlaceID) int64 { return n.places[p].wait.Count() }

// Reset empties the net — pending engine events, tokens, in-flight firings,
// and all statistics — and reseeds its random stream, keeping the structure
// (places, transitions, compiled samplers) and every backing buffer. A Reset
// net replayed with the same seed and deposits reproduces the identical
// trajectory as a freshly built one, which is what lets a replication worker
// reuse one net across replications at zero allocation.
func (n *Net) Reset(seed int64) {
	n.engine.Reset(seed)
	for _, p := range n.places {
		p.fifo.clear()
		p.wait = stats.Mean{}
	}
	for _, t := range n.transitions {
		// In-flight firing records are dropped with the engine's calendar;
		// their token buffers are unreachable now, but records were recycled
		// through freeFirings only on completion, so just forget the list —
		// getFiring re-allocates lazily and reaches steady state again within
		// one warm-up.
		t.inFlight = 0
		t.busyTW = stats.TimeWeighted{}
		t.busyTW.Set(0, 0)
		t.served = 0
	}
	n.freeFirings = nil
}

// ResetStats discards statistics gathered so far (warm-up removal) without
// disturbing the net's state.
func (n *Net) ResetStats() {
	now := n.engine.Now()
	for _, p := range n.places {
		p.wait = stats.Mean{}
	}
	for _, t := range n.transitions {
		t.busyTW.Reset(now)
		t.served = 0
	}
}
