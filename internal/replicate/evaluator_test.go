package replicate

import (
	"context"
	"reflect"
	"testing"

	"lattol/internal/eval"
	"lattol/internal/simmms"
)

func testEvalOpts() Options {
	return Options{Sim: testSimOpts(simmms.Direct), MinReps: 4, Workers: 2}
}

// TestEvaluatorPure: a fresh Evaluator reproduces another's answers bit for
// bit — the property CheckPlanOn's fresh-forward-solve certification rests
// on.
func TestEvaluatorPure(t *testing.T) {
	ctx := context.Background()
	cfg := eval.Config{Model: testConfig()}
	opts := eval.Options{TolNetwork: true, TolMemory: true}
	a, err := eval.One(ctx, NewEvaluator(testEvalOpts()), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eval.One(ctx, NewEvaluator(testEvalOpts()), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fresh evaluator disagrees:\n got %+v\nwant %+v", b, a)
	}
	if a.TolNetwork <= 0 || a.TolNetwork > 1.2 {
		t.Errorf("TolNetwork %v outside plausible range", a.TolNetwork)
	}
	if a.TolMemory <= 0 || a.TolMemory > 1.2 {
		t.Errorf("TolMemory %v outside plausible range", a.TolMemory)
	}
	if a.Solves <= 0 {
		t.Errorf("Solves %d, want > 0 (replication accounting)", a.Solves)
	}
}

// TestEvaluatorSeparatesConfigs: different operating points get different
// seed coordinates, hence (almost surely) different noise.
func TestEvaluatorSeparatesConfigs(t *testing.T) {
	ctx := context.Background()
	ev := NewEvaluator(testEvalOpts())
	a, err := eval.One(ctx, ev, eval.Config{Model: testConfig()}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.Threads = 3
	b, err := eval.One(ctx, ev, eval.Config{Model: cfg2}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Up == b.Up {
		t.Errorf("distinct configs produced identical Up %v", a.Up)
	}
	if b.Up <= a.Up {
		t.Errorf("more threads lowered utilization: nt=2 %v, nt=3 %v", a.Up, b.Up)
	}
}

// TestEvaluatorMemoizesIdeal: two configurations differing only in PRemote
// share the ZeroRemote ideal system; it must be simulated once.
func TestEvaluatorMemoizesIdeal(t *testing.T) {
	ctx := context.Background()
	ev := NewEvaluator(testEvalOpts())
	cfgA := testConfig()
	cfgB := testConfig()
	cfgB.PRemote = 0.4
	for _, c := range []eval.Config{{Model: cfgA}, {Model: cfgB}} {
		if _, err := eval.One(ctx, ev, c, eval.Options{TolNetwork: true}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ev.ideal); got != 1 {
		t.Errorf("ideal memo holds %d entries, want 1 (shared ZeroRemote ideal)", got)
	}
}

// TestEvaluatorMaxErrorTightens: Options.MaxError below the configured
// precision must tighten the replication target.
func TestEvaluatorMaxErrorTightens(t *testing.T) {
	ctx := context.Background()
	o := testEvalOpts()
	o.MinReps = 2
	o.MaxReps = 32
	o.Precision = 0.5 // loose: 2 reps suffice
	loose, err := eval.One(ctx, NewEvaluator(o), eval.Config{Model: testConfig()}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := eval.One(ctx, NewEvaluator(o), eval.Config{Model: testConfig()}, eval.Options{MaxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Solves <= loose.Solves {
		t.Errorf("MaxError 0.05 ran %d reps, loose target ran %d — want more", tight.Solves, loose.Solves)
	}
	if tight.Bound > 0.05 && tight.Solves < 32 {
		t.Errorf("Bound %v > MaxError without exhausting MaxReps", tight.Bound)
	}
}
