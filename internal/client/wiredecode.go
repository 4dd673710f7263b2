package lattolclient

import (
	"bytes"
	"strconv"
)

// This file decodes the request types of wire.go, and the batch answer one
// node relays to another, without reflection. ParseWire accepts a canonical
// subset of JSON:
//
//   - one object, followed by nothing but JSON whitespace;
//   - keys in their exact wire case, each at most once, none unknown;
//   - strings of printable ASCII without escapes;
//   - numbers in JSON's grammar: an int field takes an integer literal (no
//     fraction, no exponent) that fits the field, a float field any literal
//     strconv.ParseFloat reads without a range error;
//   - true and false, never null.
//
// What json.Marshal and AppendJSON write for these types lies in the subset
// whenever the value's strings are printable ASCII other than ", \, <, > and
// & (the ones they escape) and its slices are not nil (written null), as in
// every request that uses the schema's enumerated values and every batch
// answer without item errors (most validation messages carry >= or <=). On
// any other input ParseWire zeroes the value and returns false, and the
// caller decodes the same bytes with encoding/json. Whatever ParseWire
// accepts, encoding/json decodes to a deeply equal value, so the parser needs
// no error messages of its own: every error a client reads still comes from
// encoding/json. The conformance package holds the oracle (FuzzWireDecode,
// TestWireDecodeEveryField).
//
// Adding a field to one of these types in wire.go means adding its case to
// the type's field method here. Until then ParseWire declines every body that
// carries the field, and TestWireDecodeEveryField fails.

// WireParser is a type with a ParseWire method from this file: ParseWire
// decodes the canonical subset into the value and returns true, or zeroes
// the value and returns false, and the caller falls back to encoding/json.
type WireParser interface {
	ParseWire(body []byte) bool
}

// wireReader walks one body. Any input outside the subset clears ok and
// moves i to the end, after which every read fails and nothing is consumed.
type wireReader struct {
	b  []byte
	i  int
	ok bool
}

func (r *wireReader) fail() {
	r.ok = false
	r.i = len(r.b)
}

// ws skips JSON whitespace.
func (r *wireReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (r *wireReader) next(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// wireObject is a type whose JSON object ParseWire decodes. field decodes the
// value of the member named key and returns the member's bit in the object's
// set of keys seen, or 0 for a key the type does not have.
type wireObject interface {
	field(r *wireReader, key []byte) uint64
}

// object decodes one JSON object into v.
func (r *wireReader) object(v wireObject) {
	if !r.next('{') {
		r.fail()
		return
	}
	if r.next('}') {
		return
	}
	var seen uint64
	for r.ok {
		key := r.raw()
		if !r.next(':') {
			r.fail()
			return
		}
		bit := v.field(r, key)
		if bit == 0 || seen&bit != 0 {
			r.fail()
			return
		}
		seen |= bit
		if r.next(',') {
			continue
		}
		if !r.next('}') {
			r.fail()
		}
		return
	}
}

// objects decodes a JSON array of objects into a new, non-nil slice. Its
// capacity guess is one element per '{' left in the body, capped at 64 so
// that a body of braces cannot inflate the allocation; appends grow past it.
func objects[T any, P interface {
	*T
	wireObject
}](r *wireReader) []T {
	s := make([]T, 0, min(bytes.Count(r.b[r.i:], []byte{'{'}), 64))
	if !r.next('[') {
		r.fail()
		return s
	}
	if r.next(']') {
		return s
	}
	for r.ok {
		var zero T
		s = append(s, zero)
		r.object(P(&s[len(s)-1]))
		if r.next(',') {
			continue
		}
		if !r.next(']') {
			r.fail()
		}
		break
	}
	return s
}

// raw decodes a string and returns its bytes, which alias the body.
func (r *wireReader) raw() []byte {
	if !r.next('"') {
		r.fail()
		return nil
	}
	start := r.i
	for i := start; i < len(r.b); i++ {
		c := r.b[i]
		if c == '"' {
			r.i = i + 1
			return r.b[start:i]
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	r.fail()
	return nil
}

func (r *wireReader) str() string { return string(r.raw()) }

func (r *wireReader) boolean() bool {
	r.ws()
	rest := r.b[r.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		r.i += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		r.i += 5
		return false
	}
	r.fail()
	return false
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number consumes a JSON number and returns its literal; integer reports
// that the literal has neither fraction nor exponent.
func (r *wireReader) number() (lit []byte, integer bool) {
	r.ws()
	b, i := r.b, r.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		r.fail()
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			r.fail()
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			r.fail()
			return nil, false
		}
		i = j
	}
	r.i = i
	return b[start:i], integer
}

func (r *wireReader) integer() int {
	lit, integer := r.number()
	if !integer {
		r.fail()
		return 0
	}
	if len(lit) < 10 { // at most nine digits: fits any int
		neg := lit[0] == '-'
		if neg {
			lit = lit[1:]
		}
		n := 0
		for _, c := range lit {
			n = n*10 + int(c-'0')
		}
		if neg {
			n = -n
		}
		return n
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		r.fail()
	}
	return int(n)
}

func (r *wireReader) float() float64 {
	lit, _ := r.number()
	if !r.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.fail()
	}
	return f
}

// parseWire decodes body into v, or zeroes v and returns false.
func parseWire[T any, P interface {
	*T
	wireObject
}](body []byte, v P) bool {
	r := wireReader{b: body, ok: true}
	r.object(v)
	r.ws()
	if r.ok && r.i == len(body) {
		return true
	}
	var zero T
	*v = zero
	return false
}

// ParseWire decodes body into m if it lies in the canonical subset; otherwise
// it zeroes m and returns false.
func (m *ModelRequest) ParseWire(body []byte) bool { return parseWire(body, m) }

// ParseWire decodes body into t if it lies in the canonical subset; otherwise
// it zeroes t and returns false.
func (t *ToleranceRequest) ParseWire(body []byte) bool { return parseWire(body, t) }

// ParseWire decodes body into s if it lies in the canonical subset; otherwise
// it zeroes s and returns false.
func (s *SweepRequest) ParseWire(body []byte) bool { return parseWire(body, s) }

// ParseWire decodes body into b if it lies in the canonical subset; otherwise
// it zeroes b and returns false.
func (b *BatchRequest) ParseWire(body []byte) bool { return parseWire(body, b) }

// ParseWire decodes body into p if it lies in the canonical subset; otherwise
// it zeroes p and returns false.
func (p *PlanRequest) ParseWire(body []byte) bool { return parseWire(body, p) }

// ParseWire decodes body into b if it lies in the canonical subset; otherwise
// it zeroes b and returns false.
func (b *BatchResponse) ParseWire(body []byte) bool { return parseWire(body, b) }

// ModelRequest's members take bits 0–13; the types embedding it number
// theirs from 16.

func (m *ModelRequest) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "k":
		m.K, bit = r.integer(), 1<<0
	case "threads":
		m.Threads, bit = r.integer(), 1<<1
	case "runlength":
		m.Runlength, bit = r.float(), 1<<2
	case "context_switch":
		m.ContextSwitch, bit = r.float(), 1<<3
	case "memory_time":
		m.MemoryTime, bit = r.float(), 1<<4
	case "switch_time":
		m.SwitchTime, bit = r.float(), 1<<5
	case "p_remote":
		m.PRemote, bit = r.float(), 1<<6
	case "psw":
		m.Psw, bit = r.float(), 1<<7
	case "pattern":
		m.Pattern, bit = r.str(), 1<<8
	case "geometric_mode":
		m.GeometricMode, bit = r.str(), 1<<9
	case "memory_ports":
		m.MemoryPorts, bit = r.integer(), 1<<10
	case "switch_ports":
		m.SwitchPorts, bit = r.integer(), 1<<11
	case "solver":
		m.Solver, bit = r.str(), 1<<12
	case "max_error":
		m.MaxError, bit = r.float(), 1<<13
	}
	return bit
}

func (t *ToleranceRequest) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "subsystem":
		t.Subsystem, bit = r.str(), 1<<16
	case "mode":
		t.Mode, bit = r.str(), 1<<17
	default:
		bit = t.ModelRequest.field(r, key)
	}
	return bit
}

func (s *SweepRequest) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "param":
		s.Param, bit = r.str(), 1<<16
	case "from":
		s.From, bit = r.float(), 1<<17
	case "to":
		s.To, bit = r.float(), 1<<18
	case "steps":
		s.Steps, bit = r.integer(), 1<<19
	default:
		bit = s.ModelRequest.field(r, key)
	}
	return bit
}

func (it *BatchItemRequest) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "op":
		it.Op, bit = r.str(), 1<<16
	case "subsystem":
		it.Subsystem, bit = r.str(), 1<<17
	case "mode":
		it.Mode, bit = r.str(), 1<<18
	default:
		bit = it.ModelRequest.field(r, key)
	}
	return bit
}

func (b *BatchRequest) field(r *wireReader, key []byte) uint64 {
	if string(key) != "items" {
		return 0
	}
	b.Items = objects[BatchItemRequest](r)
	return 1
}

func (f *PlanFrontierRequest) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "param":
		f.Param, bit = r.str(), 1<<0
	case "from":
		f.From, bit = r.float(), 1<<1
	case "to":
		f.To, bit = r.float(), 1<<2
	case "steps":
		f.Steps, bit = r.integer(), 1<<3
	}
	return bit
}

func (p *PlanRequest) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "knob":
		p.Knob, bit = r.str(), 1<<16
	case "metric":
		p.Metric, bit = r.str(), 1<<17
	case "target":
		p.Target, bit = r.float(), 1<<18
	case "relation":
		p.Relation, bit = r.str(), 1<<19
	case "knob_min":
		p.KnobMin, bit = r.float(), 1<<20
	case "knob_max":
		p.KnobMax, bit = r.float(), 1<<21
	case "knob_tol":
		p.KnobTol, bit = r.float(), 1<<22
	case "max_probes":
		p.MaxProbes, bit = r.integer(), 1<<23
	case "trace":
		p.Trace, bit = r.boolean(), 1<<24
	case "frontier":
		p.Frontier, bit = new(PlanFrontierRequest), 1<<25
		r.object(p.Frontier)
	default:
		bit = p.ModelRequest.field(r, key)
	}
	return bit
}

func (m *MetricsBody) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "u_p":
		m.Up, bit = r.float(), 1<<0
	case "lambda":
		m.LambdaProc, bit = r.float(), 1<<1
	case "lambda_net":
		m.LambdaNet, bit = r.float(), 1<<2
	case "s_obs":
		m.SObs, bit = r.float(), 1<<3
	case "l_obs":
		m.LObs, bit = r.float(), 1<<4
	case "cycle_time":
		m.CycleTime, bit = r.float(), 1<<5
	case "mem_utilization":
		m.MemUtilization, bit = r.float(), 1<<6
	case "out_utilization":
		m.OutUtilization, bit = r.float(), 1<<7
	case "in_utilization":
		m.InUtilization, bit = r.float(), 1<<8
	case "iterations":
		m.Iterations, bit = r.integer(), 1<<9
	}
	return bit
}

func (e *ErrorBody) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "status":
		e.Status, bit = r.integer(), 1<<0
	case "message":
		e.Message, bit = r.str(), 1<<1
	case "field":
		e.Field, bit = r.str(), 1<<2
	}
	return bit
}

func (s *SolveResponse) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "metrics":
		r.object(&s.Metrics)
		bit = 1 << 0
	case "error_bound":
		s.ErrorBound, bit = r.float(), 1<<1
	}
	return bit
}

func (t *ToleranceResponse) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "subsystem":
		t.Subsystem, bit = r.str(), 1<<0
	case "mode":
		t.Mode, bit = r.str(), 1<<1
	case "tol":
		t.Tol, bit = r.float(), 1<<2
	case "zone":
		t.Zone, bit = r.str(), 1<<3
	case "real":
		r.object(&t.Real)
		bit = 1 << 4
	case "ideal":
		r.object(&t.Ideal)
		bit = 1 << 5
	}
	return bit
}

func (it *BatchItemResponse) field(r *wireReader, key []byte) (bit uint64) {
	switch string(key) {
	case "error":
		it.Error, bit = new(ErrorBody), 1<<0
		r.object(it.Error)
	case "cache":
		it.Cache, bit = r.str(), 1<<1
	case "solve":
		it.Solve, bit = new(SolveResponse), 1<<2
		r.object(it.Solve)
	case "tolerance":
		it.Tolerance, bit = new(ToleranceResponse), 1<<3
		r.object(it.Tolerance)
	}
	return bit
}

func (b *BatchResponse) field(r *wireReader, key []byte) uint64 {
	if string(key) != "results" {
		return 0
	}
	b.Results = objects[BatchItemResponse](r)
	return 1
}
