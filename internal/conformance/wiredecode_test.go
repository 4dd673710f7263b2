package conformance

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	lattolclient "lattol/internal/client"
)

// wireParsedTypes returns a fresh zero value of every type with ParseWire.
func wireParsedTypes() []lattolclient.WireParser {
	return []lattolclient.WireParser{
		new(lattolclient.ModelRequest),
		new(lattolclient.ToleranceRequest),
		new(lattolclient.SweepRequest),
		new(lattolclient.BatchRequest),
		new(lattolclient.PlanRequest),
		new(lattolclient.BatchResponse),
	}
}

// referenceDecode is what each ParseWire caller falls back to: the server's
// strict request decode for requests, json.Unmarshal for a peer's batch
// answer.
func referenceDecode(body []byte, dst any) error {
	if _, ok := dst.(*lattolclient.BatchResponse); ok {
		return json.Unmarshal(body, dst)
	}
	return decodeWire(body, dst)
}

// checkWireDecode runs v.ParseWire on body and reports whether it accepted.
// An accepted body must also decode under the reference, to a deeply equal
// value; a declined one must leave v zero, so the fallback decodes into a
// clean value.
func checkWireDecode(t *testing.T, body []byte, v lattolclient.WireParser) bool {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	if !v.ParseWire(body) {
		if !rv.IsZero() {
			t.Fatalf("%T: ParseWire declined %q but left %+v", v, body, rv.Interface())
		}
		return false
	}
	ref := reflect.New(rv.Type())
	if err := referenceDecode(body, ref.Interface()); err != nil {
		t.Fatalf("%T: ParseWire accepted %q, encoding/json rejects it: %v", v, body, err)
	}
	if !reflect.DeepEqual(v, ref.Interface()) {
		t.Fatalf("%T: ParseWire and encoding/json disagree on %q\nParseWire: %+v\nreference: %+v",
			v, body, rv.Interface(), ref.Elem().Interface())
	}
	return true
}

// mustParseWire demands that body be accepted and decode like the reference.
func mustParseWire(t *testing.T, body []byte, v lattolclient.WireParser) {
	t.Helper()
	if !checkWireDecode(t, body, v) {
		t.Fatalf("%T: ParseWire declined a body lattold's peers and clients send:\n%s", v, body)
	}
}

// plainASCII maps s onto the strings ParseWire accepts and json.Marshal
// writes without escapes: printable ASCII without ", \, <, > and &.
func plainASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		c = ' ' + c%95
		if strings.IndexByte(`"\<>&`, c) >= 0 {
			c = '_'
		}
		b[i] = c
	}
	return string(b)
}

func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// wireRequests builds one value of every request type from fuzz inputs.
// shape's bits choose zero optional fields, an empty item list, a frontier
// and a trace.
func wireRequests(f [3]float64, n int, s string, shape uint8) []lattolclient.WireParser {
	bit := func(i uint) bool { return shape>>i&1 == 1 }
	g := func(i int) float64 { return f[i%len(f)] }
	m := lattolclient.ModelRequest{
		K: n, Threads: n + 1, Runlength: g(0), ContextSwitch: g(1), MemoryTime: g(2),
		SwitchTime: g(0), PRemote: g(1), Psw: g(2), Pattern: s, GeometricMode: s,
		MemoryPorts: -n, SwitchPorts: n / 2, Solver: s, MaxError: g(1),
	}
	if bit(0) {
		m.ContextSwitch, m.Psw, m.Pattern, m.GeometricMode = 0, 0, "", ""
		m.MemoryPorts, m.SwitchPorts, m.Solver, m.MaxError = 0, 0, "", 0
	}
	items := []lattolclient.BatchItemRequest{}
	if !bit(1) {
		items = append(items,
			lattolclient.BatchItemRequest{ModelRequest: m},
			lattolclient.BatchItemRequest{ModelRequest: m, Op: "tolerance", Subsystem: s, Mode: s},
			lattolclient.BatchItemRequest{},
		)
	}
	plan := lattolclient.PlanRequest{
		ModelRequest: m, Knob: s, Metric: s, Target: g(0), Relation: s,
		KnobMin: g(1), KnobMax: g(2), KnobTol: g(0), MaxProbes: n, Trace: bit(3),
	}
	if bit(2) {
		plan.Frontier = &lattolclient.PlanFrontierRequest{Param: s, From: g(1), To: g(2), Steps: -n}
	}
	return []lattolclient.WireParser{
		&m,
		&lattolclient.ToleranceRequest{ModelRequest: m, Subsystem: s, Mode: s},
		&lattolclient.SweepRequest{ModelRequest: m, Param: s, From: g(2), To: g(0), Steps: n},
		&lattolclient.BatchRequest{Items: items},
		&plan,
	}
}

// FuzzWireDecode is the oracle of the reflection-free request decoder:
//
//   - arbitrary bytes, decoded as each ParseWire type: an accepted body
//     decodes under encoding/json (strict for requests, json.Unmarshal for
//     the batch answer) to a deeply equal value, and a declined one leaves
//     the value zero;
//   - json.Marshal of request values built from the fuzz input (plain ASCII
//     strings, finite floats) and AppendJSON of batch answers are always
//     accepted and decode back to the value sent, so the traffic
//     lattolclient and cluster peers send never falls back.
func FuzzWireDecode(f *testing.F) {
	const model = `"k":4,"threads":8,"runlength":10,"memory_time":10,"switch_time":10,"p_remote":0.2,"psw":0.5`
	for i, body := range []string{
		`{` + model + `}`,
		"{\t\"k\" : 4 ,\r\n\"threads\":8}\n",
		`{` + model + `,"subsystem":"memory","mode":"zero-delay"}`,
		`{` + model + `,"param":"premote","from":0.05,"to":0.9,"steps":18}`,
		`{"items":[{` + model + `},{` + model + `,"op":"tolerance"}]}`,
		`{"items":[]}`,
		`{` + model + `,"knob":"nt","metric":"u_p","target":0.5,"trace":true,"frontier":{"param":"premote","from":0.1,"to":0.5,"steps":3}}`,
		`{"results":[{"error":{"status":400,"message":"bad","field":"k"}},{"cache":"hit","solve":{"metrics":{"u_p":0.5,"iterations":3},"error_bound":0.01}}]}`,
		`{"K":4}`,
		`{"items":[{"k":4}],"items":[{"threads":8}]}`,
		`{"k":null}`,
		`{"k":4.0}`,
		`{"runlength":1e400}`,
		`{"runlength":1e-400}`,
		`{"k":01}`,
		`{"k":+1}`,
		`{"runlength":.5}`,
		`{"k":0x10}`,
		`{"runlength":NaN}`,
		`{"k":-0,"runlength":-0.0,"psw":1E+2}`,
		`{"k":9223372036854775807,"threads":-9223372036854775808}`,
		`{"k":9223372036854775808}`,
		`{"items":[{"op":"tolerance"}]}`,
		"{\"pattern\":\"\xff\"}",
		`{"k":4,"threads":8,"runlength":10,"bogus":1}`,
		`{"k":4}]]]garbage`,
		`{"k":4} {"k":5}`,
		`{"k":4,}`,
		`{"trace":truex}`,
	} {
		f.Add([]byte(body), 0.2, 1e21, i, "nt", uint8(i))
	}
	f.Add([]byte(`{}`), math.Copysign(0, -1), 5e-324, -7, `<"\>&`, uint8(0xff))
	f.Add([]byte(``), math.MaxFloat64, 1e-7, math.MaxInt64, "\x00\xff", uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, f0, f1 float64, n int, s string, shape uint8) {
		for _, v := range wireParsedTypes() {
			checkWireDecode(t, data, v)
		}

		f0, f1, s = finite(f0), finite(f1), plainASCII(s)
		for _, want := range wireRequests([3]float64{f0, f1, finite(f0 * f1)}, n, s, shape) {
			body, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(want).Elem()).Interface().(lattolclient.WireParser)
			mustParseWire(t, body, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: %s decodes to %+v, want %+v", want, body, got, want)
			}
		}
		for _, v := range wireSamples([4]float64{f0, f1, finite(f0 + f1), finite(f0 / f1)}, s, s+s, n, shape&1 == 1, shape|0x02) {
			if br, ok := v.(lattolclient.BatchResponse); ok {
				body, err := br.AppendJSON(nil)
				if err != nil {
					t.Fatal(err)
				}
				mustParseWire(t, body, new(lattolclient.BatchResponse))
			}
		}
	})
}

// TestWireDecodeEveryField sets every field of every ParseWire type, nested
// ones included, to a distinct non-zero value and demands that its
// json.Marshal encoding (and, for the batch answer, its AppendJSON encoding)
// be accepted and decode to the value encoding/json decodes. A field added
// to the wire schema without its decode line is an unknown key to ParseWire,
// which then declines, and this test fails.
func TestWireDecodeEveryField(t *testing.T) {
	for _, v := range wireParsedTypes() {
		seq := 0
		fillWire(reflect.ValueOf(v).Elem(), &seq, func(seq int) string { return fmt.Sprintf("s%d", seq) })
		bodies := [][]byte{}
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		if br, ok := v.(*lattolclient.BatchResponse); ok {
			body, err := br.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
		for _, body := range bodies {
			got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(lattolclient.WireParser)
			mustParseWire(t, body, got)
			if _, answer := v.(*lattolclient.BatchResponse); !answer && !reflect.DeepEqual(got, v) {
				t.Fatalf("%T: %s decodes to %+v, want %+v", v, body, got, v)
			}
		}
	}
}
