package conformance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	lattolclient "lattol/internal/client"
)

// wireBody is what lattold's response writer accepts: a body that appends
// its own indented JSON encoding.
type wireBody interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// checkWireEncode demands that v.AppendJSON produce exactly the bytes of
// json.MarshalIndent(v, "", "  ") after a non-empty prefix, or the same error
// with the prefix left as it was.
func checkWireEncode(t *testing.T, v wireBody) {
	t.Helper()
	want, wantErr := json.MarshalIndent(v, "", "  ")
	prefix := []byte("prefix:")
	got, err := v.AppendJSON(prefix)
	if wantErr != nil {
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || err.Error() != wantErr.Error() {
			t.Fatalf("%T: AppendJSON error %v, MarshalIndent error %v", v, err, wantErr)
		}
		if string(got) != string(prefix) {
			t.Fatalf("%T: AppendJSON changed dst on error: %q", v, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("%T: AppendJSON error %v, MarshalIndent encodes", v, err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%T: AppendJSON differs from MarshalIndent\n got: %s\nwant: %s", v, got, want)
	}
}

// wireSamples builds one value of every response type from the fuzz inputs.
// shape's bits choose between nil, empty and populated slices, nil and set
// pointers, and which outcome a batch item or frontier point carries.
func wireSamples(f [4]float64, s1, s2 string, n int, feasible bool, shape uint8) []wireBody {
	bit := func(i uint) bool { return shape>>i&1 == 1 }
	metrics := func(o int) lattolclient.MetricsBody {
		g := func(i int) float64 { return f[(o+i)%len(f)] }
		return lattolclient.MetricsBody{
			Up: g(0), LambdaProc: g(1), LambdaNet: g(2), SObs: g(3), LObs: g(0),
			CycleTime: g(1), MemUtilization: g(2), OutUtilization: g(3), InUtilization: g(0),
			Iterations: n,
		}
	}
	errBody := lattolclient.ErrorBody{Status: n, Message: s1, Field: s2}
	solve := lattolclient.SolveResponse{Metrics: metrics(0), ErrorBound: f[1]}
	if bit(0) {
		solve.ErrorBound = 0
	}
	tol := lattolclient.ToleranceResponse{
		Subsystem: s1, Mode: s2, Tol: f[2], Zone: s1 + s2,
		Real: metrics(1), Ideal: metrics(2),
	}

	var points []lattolclient.SweepPoint
	var results []lattolclient.BatchItemResponse
	var frontier []lattolclient.PlanFrontierPoint
	var trace []lattolclient.PlanProbe
	if bit(1) {
		points = []lattolclient.SweepPoint{}
		results = []lattolclient.BatchItemResponse{}
		frontier = []lattolclient.PlanFrontierPoint{}
		trace = []lattolclient.PlanProbe{}
	}
	if bit(2) {
		for i := range f {
			points = append(points, lattolclient.SweepPoint{Value: f[i], Metrics: metrics(i), TolNetwork: f[(i+1)%4], TolMemory: f[(i+2)%4]})
			trace = append(trace, lattolclient.PlanProbe{Knob: f[i], Value: f[(i+3)%4], Feasible: feasible != (i%2 == 0), Solves: n + i})
		}
		results = append(results,
			lattolclient.BatchItemResponse{},
			lattolclient.BatchItemResponse{Error: &errBody},
			lattolclient.BatchItemResponse{Cache: s1, Solve: &solve},
			lattolclient.BatchItemResponse{Cache: s2, Tolerance: &tol},
		)
		if bit(3) {
			results = append(results, lattolclient.BatchItemResponse{Error: &errBody, Cache: s1, Solve: &solve, Tolerance: &tol})
		}
	}

	plan := lattolclient.PlanResponse{
		Knob: s1, Metric: s2, Relation: s1, Target: f[0], Value: f[1], Achieved: f[2],
		Objective: s2, Binding: s1, BracketLo: f[3], BracketHi: f[0],
		Probes: n, Solves: -n, Metrics: metrics(3), Trace: trace,
	}
	if bit(4) {
		plan.TolNetwork = &f[1]
	}
	if bit(5) {
		plan.TolMemory = &f[2]
	}
	if bit(2) {
		frontier = append(frontier,
			lattolclient.PlanFrontierPoint{Sweep: f[0]},
			lattolclient.PlanFrontierPoint{Sweep: f[1], Error: &errBody},
			lattolclient.PlanFrontierPoint{Sweep: f[2], Plan: &plan},
		)
		if bit(6) {
			frontier = append(frontier, lattolclient.PlanFrontierPoint{Sweep: f[3], Error: &errBody, Plan: &plan})
		}
	}
	return []wireBody{
		solve,
		tol,
		lattolclient.SweepResponse{Param: s1, Points: points},
		lattolclient.BatchResponse{Results: results},
		plan,
		&plan, // the plan handler writes a *PlanResponse
		lattolclient.PlanFrontierResponse{Param: s1, Knob: s2, Points: frontier},
		lattolclient.HealthResponse{Status: s1, UptimeSeconds: f[3]},
		lattolclient.ErrorResponse{Error: errBody},
	}
}

// FuzzWireEncode fills every lattold response type from fuzz input and
// demands that its reflection-free AppendJSON encoding equal
// json.MarshalIndent(v, "", "  ") byte for byte, and that non-finite floats
// fail with the same *json.UnsupportedValueError.
func FuzzWireEncode(f *testing.F) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-9, 1.5e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e300,
		5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 123456789012345678,
	}
	strs := []string{
		"", "ok", "<script>&amp;</script>", "\x00\x01\x1f\b\f\n\r\t\"\\/\x7f",
		"bad \xff\xfe utf8 \xc3", "line\u2028para\u2029end", "h\u00e9llo \u221e \U0001d11e",
	}
	for i, e := range edges {
		f.Add(e, edges[(i+1)%len(edges)], edges[(i+5)%len(edges)], edges[(i+11)%len(edges)],
			strs[i%len(strs)], strs[(i+3)%len(strs)], i-3, i%2 == 0, uint8(i*37))
	}
	f.Add(math.NaN(), 1.0, 2.0, 3.0, "nan", "", 1, false, uint8(0xff))
	f.Add(1.0, math.Inf(1), 2.0, 3.0, "inf", "", 1, true, uint8(0xff))
	f.Add(1.0, 2.0, math.Inf(-1), 3.0, "-inf", "", 1, true, uint8(0x04))
	f.Add(1.0, 2.0, 3.0, math.NaN(), "", "", 0, false, uint8(0x00))
	f.Add(0.0, 0.0, 0.0, 0.0, "", "", 0, false, uint8(0x02)) // empty, not nil, slices
	f.Fuzz(func(t *testing.T, f0, f1, f2, f3 float64, s1, s2 string, n int, feasible bool, shape uint8) {
		for _, v := range wireSamples([4]float64{f0, f1, f2, f3}, s1, s2, n, feasible, shape) {
			checkWireEncode(t, v)
		}
	})
}

// fillWire sets every field reachable from v to a distinct non-zero value:
// pointers allocated, slices given two elements, strings from str.
func fillWire(v reflect.Value, seq *int, str func(seq int) string) {
	*seq++
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(float64(*seq) + 0.25)
	case reflect.Int:
		v.SetInt(int64(*seq))
	case reflect.String:
		v.SetString(str(*seq))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillWire(v.Elem(), seq, str)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillWire(v.Index(i), seq, str)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillWire(v.Field(i), seq, str)
		}
	default:
		panic(fmt.Sprintf("fillWire: no filler for %s", v.Type()))
	}
}

// TestWireEncodeEveryField sets every field of every response type to a
// non-zero value and compares AppendJSON against MarshalIndent. A field added
// to the wire schema without a matching line in its encoder fails here.
func TestWireEncodeEveryField(t *testing.T) {
	for _, v := range []wireBody{
		&lattolclient.SolveResponse{},
		&lattolclient.ToleranceResponse{},
		&lattolclient.SweepResponse{},
		&lattolclient.BatchResponse{},
		&lattolclient.PlanResponse{},
		&lattolclient.PlanFrontierResponse{},
		&lattolclient.HealthResponse{},
		&lattolclient.ErrorResponse{},
	} {
		seq := 0
		fillWire(reflect.ValueOf(v).Elem(), &seq, func(seq int) string {
			return fmt.Sprintf("s%d<&>", seq) // needs escaping
		})
		checkWireEncode(t, v)
		// And the zero value: every omitempty field dropped, nil slices null.
		reflect.ValueOf(v).Elem().SetZero()
		checkWireEncode(t, v)
	}
}
