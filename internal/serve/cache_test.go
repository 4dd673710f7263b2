package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lattol/internal/mms"
)

// testKey builds a distinct valid-looking key for cache unit tests.
func testKey(i int) Key {
	return Key{op: opSolve, cfg: mms.Config{K: 4, Threads: i + 1, MemoryPorts: 1, SwitchPorts: 1, Runlength: 10}}
}

func TestCacheHitMissEviction(t *testing.T) {
	c := newCache(2, 1)
	if len(c.shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(c.shards))
	}

	complete := func(k Key, tol float64) {
		e, st := c.getOrStart(k)
		if st != stateLead {
			t.Fatalf("getOrStart(%v) = %v, want lead", k, st)
		}
		c.complete(e, result{tol: tol}, nil)
	}

	complete(testKey(1), 1)
	complete(testKey(2), 2)

	// Touch key 1 so key 2 becomes the LRU victim.
	if e, st := c.getOrStart(testKey(1)); st != stateHit || e.res.tol != 1 {
		t.Fatalf("key 1: state %v tol %v, want hit 1", st, e.res.tol)
	}
	complete(testKey(3), 3)

	if _, st := c.getOrStart(testKey(2)); st != stateLead {
		t.Errorf("key 2 should have been evicted; state = %v", st)
	}
	if e, st := c.getOrStart(testKey(1)); st != stateHit || e.res.tol != 1 {
		t.Errorf("key 1: state %v tol %v, want hit 1", st, e.res.tol)
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := newCache(4, 1)
	k := testKey(1)
	e, st := c.getOrStart(k)
	if st != stateLead {
		t.Fatalf("state = %v, want lead", st)
	}
	boom := errors.New("boom")
	c.complete(e, result{}, boom)
	select {
	case <-e.done:
	default:
		t.Fatal("complete did not close done")
	}
	if e.err != boom {
		t.Fatalf("err = %v, want boom", e.err)
	}
	if _, st := c.getOrStart(k); st != stateLead {
		t.Errorf("after a failure, state = %v, want lead (retry)", st)
	}
	if got := c.len(); got != 0 {
		t.Errorf("cache len = %d, want 0", got)
	}
}

// TestCacheCoalescing drives many goroutines at one key: exactly one may
// lead, everyone else waits and reads the leader's result. Run with -race.
func TestCacheCoalescing(t *testing.T) {
	c := newCache(16, 4)
	k := testKey(7)
	const n = 64

	var leaders atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e, st := c.getOrStart(k)
			if st == stateLead {
				leaders.Add(1)
				c.complete(e, result{tol: 0.75}, nil)
				return
			}
			<-e.done
			if e.err != nil || e.res.tol != 0.75 {
				t.Errorf("waiter got tol %v err %v", e.res.tol, e.err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := leaders.Load(); got != 1 {
		t.Errorf("leaders = %d, want 1", got)
	}
	if e, st := c.getOrStart(k); st != stateHit || e.res.tol != 0.75 {
		t.Errorf("after coalesced run: state %v tol %v, want hit 0.75", st, e.res.tol)
	}
}

func TestCacheShardingSpread(t *testing.T) {
	c := newCache(1024, 16)
	for i := 0; i < 256; i++ {
		e, st := c.getOrStart(testKey(i))
		if st != stateLead {
			t.Fatalf("key %d: state %v", i, st)
		}
		c.complete(e, result{}, nil)
	}
	populated := 0
	for i := range c.shards {
		if c.shards[i].linked > 0 {
			populated++
		}
	}
	if populated < 8 {
		t.Errorf("only %d of 16 shards populated by 256 distinct keys", populated)
	}
	if got := c.len(); got != 256 {
		t.Errorf("len = %d, want 256", got)
	}
}
