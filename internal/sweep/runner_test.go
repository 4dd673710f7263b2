package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testTimeout returns a timeout compatible with the test binary's deadline,
// so a regression that reintroduces a sweep hang fails the test instead of
// wedging the whole run.
func testTimeout(t *testing.T) time.Duration {
	timeout := 30 * time.Second
	if d, ok := t.Deadline(); ok {
		if r := time.Until(d) / 2; r < timeout {
			timeout = r
		}
	}
	return timeout
}

// finishWithin runs fn in a goroutine and fails the test if it does not
// return within the deadline-aware timeout.
func finishWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(testTimeout(t)):
		t.Fatalf("%s did not finish: sweep hung", what)
	}
}

func TestMapWorkerPanicBecomesError(t *testing.T) {
	// Regression: the first parallel map had no recovery, so a panicking f took
	// down the sweep (an unrecovered worker panic) instead of reporting
	// which input failed. Guarded by a timeout so a reintroduced hang is a
	// test failure, not a stuck test binary.
	for _, workers := range []int{1, 4, 32} {
		var out []int
		var err error
		finishWithin(t, "Run with panicking worker", func() {
			out, err = Run(context.Background(), []int{0, 1, 2, 3, 4, 5}, Options{Workers: workers}, func(x int) (int, error) {
				if x == 3 {
					panic("boom at three")
				}
				return x * 10, nil
			})
		})
		if err == nil {
			t.Fatalf("workers=%d: panic did not surface as error", workers)
		}
		var pe *PointError
		if !errors.As(err, &pe) || pe.Index != 3 {
			t.Fatalf("workers=%d: error does not name input 3: %v", workers, err)
		}
		var pan *PanicError
		if !errors.As(err, &pan) || pan.Value != "boom at three" {
			t.Fatalf("workers=%d: missing PanicError: %v", workers, err)
		}
		if len(pan.Stack) == 0 {
			t.Errorf("workers=%d: panic error lost the stack", workers)
		}
		// Partial results: every non-panicking point still computed.
		for _, i := range []int{0, 1, 2, 4, 5} {
			if out[i] != i*10 {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i*10)
			}
		}
	}
}

func TestRunCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	in := make([]int, 200)
	var err error
	finishWithin(t, "cancelled Run", func() {
		_, err = Run(ctx, in, Options{Workers: 2}, func(int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return 0, nil
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A few in-flight points may still finish after cancel, but scheduling
	// must stop far short of the full input set.
	if n := ran.Load(); n < 3 || n > 50 {
		t.Errorf("ran %d of 200 points after cancellation", n)
	}
	if !strings.Contains(err.Error(), "of 200 points") {
		t.Errorf("cancellation error does not report progress: %v", err)
	}
}

func TestRunFailFastStopsEarly(t *testing.T) {
	var ran atomic.Int64
	bad := errors.New("bad point")
	in := make([]int, 200)
	for i := range in {
		in[i] = i
	}
	var err error
	finishWithin(t, "fail-fast Run", func() {
		_, err = Run(context.Background(), in, Options{Workers: 2, FailFast: true}, func(x int) (int, error) {
			ran.Add(1)
			if x == 0 {
				return 0, bad
			}
			return x, nil
		})
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want wrapped bad point", err)
	}
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("error does not name input 0: %v", err)
	}
	// The caller's context was never cancelled, so no context error leaks
	// into the aggregate.
	if errors.Is(err, context.Canceled) {
		t.Errorf("fail-fast reported the internal cancel: %v", err)
	}
	if n := ran.Load(); n > 50 {
		t.Errorf("fail-fast still ran %d of 200 points", n)
	}
}

func TestRunCollectsAllErrorsWithoutFailFast(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var ran atomic.Int64
	out, err := Run(context.Background(), []int{0, 1, 2, 3}, Options{Workers: 2}, func(x int) (int, error) {
		ran.Add(1)
		switch x {
		case 1:
			return 0, errA
		case 3:
			return 0, errB
		}
		return x * 2, nil
	})
	if ran.Load() != 4 {
		t.Fatalf("ran %d of 4 points", ran.Load())
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("aggregate %v missing a per-point error", err)
	}
	if out[0] != 0 || out[2] != 4 {
		t.Errorf("partial results wrong: %v", out)
	}
	msg := err.Error()
	if !strings.Contains(msg, "input 1") || !strings.Contains(msg, "input 3") {
		t.Errorf("aggregate does not name both inputs: %v", msg)
	}
}

func TestRunPartialResultsSemantics(t *testing.T) {
	// Under workers=1 (serial path) fail-fast stops at the failing input:
	// earlier points are computed, later ones keep the zero value.
	bad := errors.New("bad")
	out, err := Run(context.Background(), []int{0, 1, 2, 3, 4}, Options{Workers: 1, FailFast: true}, func(x int) (int, error) {
		if x == 2 {
			return -1, bad
		}
		return x + 100, nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v", err)
	}
	if out[0] != 100 || out[1] != 101 {
		t.Errorf("points before the failure lost: %v", out)
	}
	if out[3] != 0 || out[4] != 0 {
		t.Errorf("points after a serial fail-fast failure should be zero: %v", out)
	}

	// workers > len(inputs) is clamped and still preserves order.
	sq, err := Run(context.Background(), []int{1, 2, 3}, Options{Workers: 64}, func(x int) (int, error) {
		return x * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 4, 9} {
		if sq[i] != want {
			t.Errorf("sq[%d] = %d, want %d", i, sq[i], want)
		}
	}
}

func TestRunProgressAndCounters(t *testing.T) {
	var calls []int
	bad := errors.New("bad")
	_, err := Run(context.Background(), []int{0, 1, 2, 3, 4, 5, 6}, Options{
		Workers: 3,
		OnPoint: func(done, total int) {
			if total != 7 {
				t.Errorf("OnPoint total = %d", total)
			}
			calls = append(calls, done) // serialized by the runner
		},
	}, func(x int) (int, error) {
		if x == 2 || x == 5 {
			return 0, bad
		}
		return x, nil
	})
	if !errors.Is(err, bad) {
		t.Fatal(err)
	}
	if len(calls) != 7 {
		t.Fatalf("OnPoint called %d times", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("OnPoint done sequence %v not monotone", calls)
		}
	}
	var pe *PointError
	failed := 0
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		if !errors.As(e, &pe) || (pe.Index != 2 && pe.Index != 5) {
			t.Errorf("unexpected failure %v", e)
		}
		failed++
	}
	if failed != 2 {
		t.Errorf("%d failures reported, want 2", failed)
	}
}

func TestRunNilContext(t *testing.T) {
	out, err := Run(nil, []int{1, 2}, Options{}, func(x int) (int, error) { return x, nil }) //nolint:staticcheck // nil ctx tolerated by design
	if err != nil || out[1] != 2 {
		t.Errorf("nil ctx: %v, %v", out, err)
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	a := DeriveSeed(1, 2, 3)
	if a != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[int64]bool{a: true}
	for _, s := range []int64{
		DeriveSeed(1, 3, 2), // order matters
		DeriveSeed(2, 2, 3), // base matters
		DeriveSeed(1, 2),    // arity matters
		DeriveSeed(1),
		DeriveSeed(1, 2, 4),
	} {
		if seen[s] {
			t.Fatalf("seed collision at %d", s)
		}
		seen[s] = true
	}
	// Additive schemes collide where DeriveSeed must not: (k=1, j=10) vs
	// (k=2, j=0) under base + 10k + j.
	if DeriveSeed(0, 1, 10) == DeriveSeed(0, 2, 0) {
		t.Error("DeriveSeed collides like an additive scheme")
	}
	// Pinned values: the simulation exhibits' seed streams, and with them
	// every simulated number in docs/sample-output.txt, depend on these.
	for _, c := range []struct {
		got, want int64
	}{
		{DeriveSeed(1, 2, 3), 105800997263431414},
		{DeriveSeed(0), -2152535657050944081},
		{DeriveSeed(-7, 91, 17), 2772632652362549155},
	} {
		if c.got != c.want {
			t.Errorf("DeriveSeed drifted: got %d, want %d", c.got, c.want)
		}
	}
}

func TestRunStressRace(t *testing.T) {
	// Exercised under -race in CI: many workers, a progress callback,
	// panics and errors mixed.
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	finished := 0
	finishWithin(t, "stress Run", func() {
		_, err := Run(context.Background(), in, Options{Workers: 16, OnPoint: func(done, total int) { finished = done }},
			func(x int) (int, error) {
				switch x % 97 {
				case 13:
					panic(x)
				case 29:
					return 0, errors.New("unlucky")
				}
				return x, nil
			})
		if err == nil {
			t.Error("expected aggregate error")
		}
	})
	if finished != 500 {
		t.Errorf("done %d of 500", finished)
	}
}
