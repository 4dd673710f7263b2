package lattolclient

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file encodes the response types of wire.go without reflection. Every
// AppendJSON method appends exactly the bytes json.MarshalIndent(v, "", "  ")
// produces for the same value — field order, omitempty, null versus [],
// float formatting and string escaping included — so clients, the golden
// error bodies and cluster relays cannot tell the two apart. The conformance package holds the oracle: a fuzz target and a
// reflection test that compare every response type against MarshalIndent.
//
// Adding a field to a response type in wire.go means adding one line to its
// wire method here, in the same position; the oracle test fails until then.

// wireWriter appends one indented JSON document. n counts the members
// already written into the innermost open object or array; open saves it
// and close restores it, so nesting needs no stack.
type wireWriter struct {
	buf   []byte
	depth int
	n     int
	err   error
}

func (w *wireWriter) newline() {
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// open starts an object or array and returns the enclosing member count.
func (w *wireWriter) open(c byte) int {
	w.buf = append(w.buf, c)
	saved := w.n
	w.n = 0
	w.depth++
	return saved
}

// close ends an object or array; an empty one stays on one line ({} or []).
func (w *wireWriter) close(c byte, saved int) {
	w.depth--
	if w.n > 0 {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.n = saved
}

// elem starts the next member of the innermost object or array.
func (w *wireWriter) elem() {
	if w.n > 0 {
		w.buf = append(w.buf, ',')
	}
	w.n++
	w.newline()
}

// key starts the next object member. Wire names are plain ASCII and need no
// escaping.
func (w *wireWriter) key(name string) {
	w.elem()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '"', ':', ' ')
}

// float appends f as encoding/json does: shortest 'f' form, 'e' form below
// 1e-6 or from 1e21 in magnitude with a one-digit negative exponent written
// e-9, not e-09. NaN and ±Inf are recorded as the error MarshalIndent
// returns; the first one in document order wins.
func (w *wireWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		n := len(w.buf)
		if n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string with encoding/json's escaping: HTML
// characters <, > and & as \u00XX, invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 escaped.
func (w *wireWriter) str(s string) {
	b := append(w.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	w.buf = append(b, '"')
}

func (w *wireWriter) floatField(name string, f float64) {
	w.key(name)
	w.float(f)
}

// floatOmit is an omitempty float field: 0 and -0 are omitted.
func (w *wireWriter) floatOmit(name string, f float64) {
	if f != 0 {
		w.floatField(name, f)
	}
}

func (w *wireWriter) intField(name string, v int) {
	w.key(name)
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

func (w *wireWriter) strField(name, s string) {
	w.key(name)
	w.str(s)
}

func (w *wireWriter) strOmit(name, s string) {
	if s != "" {
		w.strField(name, s)
	}
}

func (w *wireWriter) boolField(name string, v bool) {
	w.key(name)
	w.buf = strconv.AppendBool(w.buf, v)
}

// null appends the encoding of a nil slice.
func (w *wireWriter) null() { w.buf = append(w.buf, "null"...) }

// result returns the document, or dst unchanged and the first encoding error.
func (w *wireWriter) result(dst []byte) ([]byte, error) {
	if w.err != nil {
		return dst, w.err
	}
	return w.buf, nil
}

func (m *MetricsBody) wire(w *wireWriter) {
	saved := w.open('{')
	w.floatField("u_p", m.Up)
	w.floatField("lambda", m.LambdaProc)
	w.floatField("lambda_net", m.LambdaNet)
	w.floatField("s_obs", m.SObs)
	w.floatField("l_obs", m.LObs)
	w.floatField("cycle_time", m.CycleTime)
	w.floatField("mem_utilization", m.MemUtilization)
	w.floatField("out_utilization", m.OutUtilization)
	w.floatField("in_utilization", m.InUtilization)
	w.intField("iterations", m.Iterations)
	w.close('}', saved)
}

func (e *ErrorBody) wire(w *wireWriter) {
	saved := w.open('{')
	w.intField("status", e.Status)
	w.strField("message", e.Message)
	w.strOmit("field", e.Field)
	w.close('}', saved)
}

func (r *SolveResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.key("metrics")
	r.Metrics.wire(w)
	w.floatOmit("error_bound", r.ErrorBound)
	w.close('}', saved)
}

func (r *ToleranceResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.strField("subsystem", r.Subsystem)
	w.strField("mode", r.Mode)
	w.floatField("tol", r.Tol)
	w.strField("zone", r.Zone)
	w.key("real")
	r.Real.wire(w)
	w.key("ideal")
	r.Ideal.wire(w)
	w.close('}', saved)
}

func (p *SweepPoint) wire(w *wireWriter) {
	saved := w.open('{')
	w.floatField("value", p.Value)
	w.key("metrics")
	p.Metrics.wire(w)
	w.floatField("tol_network", p.TolNetwork)
	w.floatField("tol_memory", p.TolMemory)
	w.close('}', saved)
}

func (r *SweepResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.strField("param", r.Param)
	w.key("points")
	if r.Points == nil {
		w.null()
	} else {
		arr := w.open('[')
		for i := range r.Points {
			w.elem()
			r.Points[i].wire(w)
		}
		w.close(']', arr)
	}
	w.close('}', saved)
}

func (r *BatchItemResponse) wire(w *wireWriter) {
	saved := w.open('{')
	if r.Error != nil {
		w.key("error")
		r.Error.wire(w)
	}
	w.strOmit("cache", r.Cache)
	if r.Solve != nil {
		w.key("solve")
		r.Solve.wire(w)
	}
	if r.Tolerance != nil {
		w.key("tolerance")
		r.Tolerance.wire(w)
	}
	w.close('}', saved)
}

func (r *BatchResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.key("results")
	if r.Results == nil {
		w.null()
	} else {
		arr := w.open('[')
		for i := range r.Results {
			w.elem()
			r.Results[i].wire(w)
		}
		w.close(']', arr)
	}
	w.close('}', saved)
}

func (p *PlanProbe) wire(w *wireWriter) {
	saved := w.open('{')
	w.floatField("knob", p.Knob)
	w.floatField("value", p.Value)
	w.boolField("feasible", p.Feasible)
	w.intField("solves", p.Solves)
	w.close('}', saved)
}

func (r *PlanResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.strField("knob", r.Knob)
	w.strField("metric", r.Metric)
	w.strField("relation", r.Relation)
	w.floatField("target", r.Target)
	w.floatField("value", r.Value)
	w.floatField("achieved", r.Achieved)
	w.strField("objective", r.Objective)
	w.strField("binding", r.Binding)
	w.floatField("bracket_lo", r.BracketLo)
	w.floatField("bracket_hi", r.BracketHi)
	w.intField("probes", r.Probes)
	w.intField("solves", r.Solves)
	w.key("metrics")
	r.Metrics.wire(w)
	if r.TolNetwork != nil {
		w.floatField("tol_network", *r.TolNetwork)
	}
	if r.TolMemory != nil {
		w.floatField("tol_memory", *r.TolMemory)
	}
	if len(r.Trace) > 0 {
		w.key("trace")
		arr := w.open('[')
		for i := range r.Trace {
			w.elem()
			r.Trace[i].wire(w)
		}
		w.close(']', arr)
	}
	w.close('}', saved)
}

func (p *PlanFrontierPoint) wire(w *wireWriter) {
	saved := w.open('{')
	w.floatField("sweep", p.Sweep)
	if p.Error != nil {
		w.key("error")
		p.Error.wire(w)
	}
	if p.Plan != nil {
		w.key("plan")
		p.Plan.wire(w)
	}
	w.close('}', saved)
}

func (r *PlanFrontierResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.strField("param", r.Param)
	w.strField("knob", r.Knob)
	w.key("points")
	if r.Points == nil {
		w.null()
	} else {
		arr := w.open('[')
		for i := range r.Points {
			w.elem()
			r.Points[i].wire(w)
		}
		w.close(']', arr)
	}
	w.close('}', saved)
}

func (r *HealthResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.strField("status", r.Status)
	w.floatField("uptime_seconds", r.UptimeSeconds)
	w.close('}', saved)
}

func (r *ErrorResponse) wire(w *wireWriter) {
	saved := w.open('{')
	w.key("error")
	r.Error.wire(w)
	w.close('}', saved)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r SolveResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r ToleranceResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r SweepResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r BatchResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r PlanResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r PlanFrontierResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r HealthResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}

// AppendJSON appends the indented JSON encoding of r to dst.
func (r ErrorResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := wireWriter{buf: dst}
	r.wire(&w)
	return w.result(dst)
}
