package sweep

// The TestMap* tests check Run as a parallel, order-preserving map.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	in := []int{5, 3, 8, 1, 9, 2}
	out, err := Run(context.Background(), in, Options{Workers: 4}, func(x int) (int, error) { return x * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != in[i]*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapSerialAndParallelAgree(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	f := func(x int) (int, error) { return x * x, nil }
	serial, err := Run(context.Background(), in, Options{Workers: 1}, f)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), in, Options{Workers: 8}, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestMapReportsFirstErrorByOrder(t *testing.T) {
	in := []int{0, 1, 2, 3}
	bad := errors.New("bad")
	_, err := Run(context.Background(), in, Options{Workers: 2}, func(x int) (int, error) {
		if x >= 2 {
			return 0, bad
		}
		return x, nil
	})
	if err == nil || !errors.Is(err, bad) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapRunsAll(t *testing.T) {
	var count atomic.Int64
	in := make([]struct{}, 57)
	_, err := Run(context.Background(), in, Options{Workers: 5}, func(struct{}) (int, error) {
		count.Add(1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 57 {
		t.Errorf("ran %d times", count.Load())
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Run(context.Background(), nil, Options{Workers: 4}, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty map: %v, %v", out, err)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != 5 {
		t.Fatalf("len %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %v", i, got[i])
		}
	}
	if one := Linspace(3, 9, 1); len(one) != 1 || one[0] != 3 {
		t.Errorf("n=1: %v", one)
	}
}

func TestIntRange(t *testing.T) {
	got := IntRange(2, 10, 2)
	want := []int{2, 4, 6, 8, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v", got)
		}
	}
	if bad := IntRange(1, 3, 0); len(bad) != 3 {
		t.Errorf("step<=0 should default to 1: %v", bad)
	}
}
