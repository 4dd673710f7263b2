// Package sweep runs parameter sweeps in parallel: the experiment drivers
// evaluate the analytical model (or a simulator) over grids of workload and
// architecture parameters, and the points are independent, so they fan out
// over a bounded worker pool.
//
// The runner is crash-safe and cancellable: a panicking point function is
// recovered into a per-point error (it can never wedge or kill the sweep),
// a context cancels scheduling promptly, and per-point failures are
// aggregated with their input indices so a single bad point in a
// multi-hundred-point campaign is locatable. Live progress is available
// through Options.OnPoint.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Options configures a Run.
type Options struct {
	// Workers bounds the number of points evaluated concurrently. <= 0
	// selects GOMAXPROCS; values above len(inputs) are clamped.
	Workers int

	// FailFast cancels the sweep as soon as any point fails: no further
	// points are scheduled, in-flight points finish, and the returned error
	// aggregates the failures observed before the drain completed. Without
	// FailFast every point runs and all failures are collected.
	FailFast bool

	// OnPoint, when non-nil, is called after every finished point
	// (successful or failed) with the number of finished points so far and
	// the total. Calls are serialized, so the callback may update shared
	// state (e.g. a progress line) without its own locking; it must not
	// block and must not call back into the same sweep.
	OnPoint func(done, total int)
}

// PointError records the failure of one sweep point: its input index, a
// rendering of the input value, and the underlying error.
type PointError struct {
	Index int
	Input string
	Err   error
}

func (e *PointError) Error() string {
	if e.Input != "" {
		return fmt.Sprintf("sweep: input %d (%s): %v", e.Index, e.Input, e.Err)
	}
	return fmt.Sprintf("sweep: input %d: %v", e.Index, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// PanicError wraps a panic recovered from a point function, with the stack
// of the panicking worker.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// maxInputChars bounds the rendered input stored in a PointError so huge
// inputs do not bloat error messages.
const maxInputChars = 96

func renderInput(v any) string {
	s := fmt.Sprint(v)
	if len(s) > maxInputChars {
		s = s[:maxInputChars] + "..."
	}
	return s
}

// Run evaluates f over every input on a bounded worker pool, preserving
// input order in the result slice.
//
// Failure semantics: a panic inside f is recovered into a *PanicError for
// that point — it never crashes or deadlocks the sweep. Per-point failures
// are wrapped in *PointError (carrying the input index) and aggregated with
// errors.Join, so errors.Is/As reach every underlying error. The result
// slice always has len(inputs) entries; entries for failed or unscheduled
// points hold the zero value (partial results).
//
// Cancellation: when ctx is done, no further points are scheduled,
// in-flight points finish, and the aggregate error additionally reports the
// context error. With Options.FailFast the first failing point cancels
// scheduling the same way (without reporting a context error).
func Run[In, Out any](ctx context.Context, inputs []In, opts Options, f func(In) (Out, error)) ([]Out, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) {
		workers = len(inputs)
	}
	total := len(inputs)
	out := make([]Out, total)
	errs := make([]error, total)

	runCtx := ctx
	var cancel context.CancelFunc
	if opts.FailFast {
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	var mu sync.Mutex // serializes finished-count updates and OnPoint calls
	finished := 0
	runPoint := func(i int) {
		out[i], errs[i] = safeCall(f, inputs[i])
		if errs[i] != nil && cancel != nil {
			cancel()
		}
		mu.Lock()
		finished++
		if opts.OnPoint != nil {
			opts.OnPoint(finished, total)
		}
		mu.Unlock()
	}

	if workers <= 1 {
		for i := range inputs {
			if runCtx.Err() != nil {
				break
			}
			runPoint(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if runCtx.Err() != nil {
						continue // drain promptly after cancellation
					}
					runPoint(i)
				}
			}()
		}
	producer:
		for i := 0; i < total; i++ {
			select {
			case next <- i:
			case <-runCtx.Done():
				break producer
			}
		}
		close(next)
		wg.Wait()
	}

	var all []error
	for i, err := range errs {
		if err != nil {
			all = append(all, &PointError{Index: i, Input: renderInput(inputs[i]), Err: err})
		}
	}
	// Report cancellation of the caller's context, not the internal
	// fail-fast cancel.
	if err := ctx.Err(); err != nil {
		mu.Lock()
		done := finished
		mu.Unlock()
		all = append(all, fmt.Errorf("sweep: canceled after %d of %d points: %w", done, total, err))
	}
	if len(all) > 0 {
		return out, errors.Join(all...)
	}
	return out, nil
}

// safeCall invokes f and converts a panic into a *PanicError.
func safeCall[In, Out any](f func(In) (Out, error), in In) (out Out, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f(in)
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// IntRange returns lo, lo+step, ..., up to and including hi when it is on
// the grid.
func IntRange(lo, hi, step int) []int {
	if step <= 0 {
		step = 1
	}
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}
