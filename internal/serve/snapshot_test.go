package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/surrogate"
)

func newSnapStore(t *testing.T) *surrogate.Store {
	t.Helper()
	s, err := surrogate.NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

// primeEvaluator runs a few distinct exact evaluations so the cache has
// content worth snapshotting.
func primeEvaluator(t *testing.T, e *Evaluator) int {
	t.Helper()
	n := 0
	for _, threads := range []int{2, 4, 8} {
		req := baseRequest()
		req.Threads = threads
		if _, _, err := e.Solve(context.Background(), req); err != nil {
			t.Fatalf("prime solve (threads=%d): %v", threads, err)
		}
		n++
	}
	tr := ToleranceRequest{ModelRequest: baseRequest()}
	if _, _, err := e.Tolerance(context.Background(), tr); err != nil {
		t.Fatalf("prime tolerance: %v", err)
	}
	return n + 1
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	store := newSnapStore(t)

	a := NewEvaluator(Config{Workers: 2})
	want := primeEvaluator(t, a)
	n, err := a.SnapshotCache(store)
	a.Close()
	if err != nil {
		t.Fatalf("SnapshotCache: %v", err)
	}
	if n != want {
		t.Fatalf("snapshot wrote %d entries, want %d", n, want)
	}

	b := NewEvaluator(Config{Workers: 2})
	defer b.Close()
	var solves atomic.Int64
	b.solveHook = func(Key) { solves.Add(1) }
	var logs []string
	if got := b.RestoreCache(store, func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }); got != n {
		t.Fatalf("restored %d entries, want %d (logs: %q)", got, n, logs)
	}
	if len(logs) != 0 {
		t.Errorf("clean restore warned: %q", logs)
	}

	// Every primed request is now a cache hit on the restarted evaluator —
	// no solver runs.
	for _, threads := range []int{2, 4, 8} {
		req := baseRequest()
		req.Threads = threads
		met, st, err := b.Solve(context.Background(), req)
		if err != nil || st != stateHit {
			t.Fatalf("restored solve (threads=%d): st=%v err=%v", threads, st, err)
		}
		if met.Up <= 0 {
			t.Errorf("restored Up = %v", met.Up)
		}
	}
	if out, st, err := b.Tolerance(context.Background(), ToleranceRequest{ModelRequest: baseRequest()}); err != nil || st != stateHit || out.Tol <= 0 {
		t.Fatalf("restored tolerance: st=%v tol=%v err=%v", st, out.Tol, err)
	}
	if solves.Load() != 0 {
		t.Errorf("%d solver runs after restore, want 0", solves.Load())
	}
	if got := b.Metrics().snapshotRestored.Load(); got != uint64(n) {
		t.Errorf("snapshotRestored metric = %d, want %d", got, n)
	}
}

func TestRestoreMissingSnapshotIsSilentColdStart(t *testing.T) {
	e := NewEvaluator(Config{Workers: 1})
	defer e.Close()
	var logs []string
	if n := e.RestoreCache(newSnapStore(t), func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }); n != 0 {
		t.Errorf("restored %d from an empty store, want 0", n)
	}
	if len(logs) != 0 {
		t.Errorf("cold start warned: %q", logs)
	}
}

// relinkMutated rewrites the current snapshot blob through mutate and points
// the snapshot ref at the mutated copy (keeping the store self-consistent,
// since blobs are content-addressed).
func relinkMutated(t *testing.T, store *surrogate.Store, mutate func([]byte) []byte) {
	t.Helper()
	h, err := store.Resolve(SnapshotRefName)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	data, err := store.Get(h)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	h2, err := store.Put(mutate(append([]byte(nil), data...)))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := store.Link(SnapshotRefName, h2); err != nil {
		t.Fatalf("Link: %v", err)
	}
}

// snapshotThen returns a store holding a snapshot of a primed evaluator,
// mutated by mutate, plus a fresh evaluator to restore into.
func snapshotThen(t *testing.T, mutate func(*surrogate.Store)) (*Evaluator, *surrogate.Store, *[]string) {
	t.Helper()
	store := newSnapStore(t)
	a := NewEvaluator(Config{Workers: 2})
	primeEvaluator(t, a)
	if _, err := a.SnapshotCache(store); err != nil {
		t.Fatalf("SnapshotCache: %v", err)
	}
	a.Close()
	mutate(store)
	b := NewEvaluator(Config{Workers: 1})
	t.Cleanup(b.Close)
	logs := new([]string)
	n := b.RestoreCache(store, func(f string, a ...any) { *logs = append(*logs, fmt.Sprintf(f, a...)) })
	if n != 0 {
		t.Fatalf("restored %d entries from a damaged snapshot, want 0", n)
	}
	return b, store, logs
}

// assertWarnedAndServes checks the damaged-snapshot contract: a warning was
// logged, and the evaluator still answers exact requests correctly.
func assertWarnedAndServes(t *testing.T, e *Evaluator, logs *[]string, wantSubstr string) {
	t.Helper()
	found := false
	for _, l := range *logs {
		if strings.Contains(l, wantSubstr) {
			found = true
		}
	}
	if !found {
		t.Errorf("no warning containing %q, got %q", wantSubstr, *logs)
	}
	met, st, err := e.Solve(context.Background(), baseRequest())
	if err != nil || st != stateLead || met.Up <= 0 {
		t.Errorf("post-recovery solve: st=%v up=%v err=%v, want clean miss", st, met.Up, err)
	}
}

func TestRestoreCorruptSnapshotWarnsAndStartsCold(t *testing.T) {
	e, _, logs := snapshotThen(t, func(store *surrogate.Store) {
		// Corrupt the blob in place: Get's checksum catches it.
		h, err := store.Resolve(SnapshotRefName)
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		path := filepath.Join(store.Dir(), "blobs", h)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	})
	assertWarnedAndServes(t, e, logs, "starting cold")
}

func TestRestoreTruncatedSnapshotWarnsAndStartsCold(t *testing.T) {
	e, _, logs := snapshotThen(t, func(store *surrogate.Store) {
		relinkMutated(t, store, func(b []byte) []byte { return b[:len(b)/2] })
	})
	assertWarnedAndServes(t, e, logs, "starting cold")
}

func TestRestoreFormatVersionMismatchWarnsAndStartsCold(t *testing.T) {
	e, _, logs := snapshotThen(t, func(store *surrogate.Store) {
		relinkMutated(t, store, func(b []byte) []byte {
			b[len(snapMagic)] = 99 // the u32 layout version follows the magic
			return b
		})
	})
	assertWarnedAndServes(t, e, logs, "starting cold")
}

func TestRestoreSolverVersionMismatchWarnsAndStartsCold(t *testing.T) {
	e, _, logs := snapshotThen(t, func(store *surrogate.Store) {
		relinkMutated(t, store, func(b []byte) []byte {
			// The solver tag string follows magic + version + length; flip
			// its first character. Same length, so the layout stays intact.
			b[len(snapMagic)+8] ^= 0x20
			return b
		})
	})
	assertWarnedAndServes(t, e, logs, "solver version")
}

func TestRestartAgainstPersistedGridServesFirstRequestFromSurrogate(t *testing.T) {
	// The acceptance scenario: one process builds and persists the grid;
	// a restarted process loads it from disk and answers its very first
	// max_error request from the surrogate tier, no solver warm-up.
	store := newSnapStore(t)
	if _, err := surrogate.SaveGrid(store, buildTestGrid(t)); err != nil {
		t.Fatalf("SaveGrid: %v", err)
	}

	// "Restart": a fresh evaluator whose grid comes purely from disk.
	g, err := surrogate.LoadGrid(store, testGridSpec())
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	e := NewEvaluator(Config{Workers: 1})
	defer e.Close()
	var solves atomic.Int64
	e.solveHook = func(Key) { solves.Add(1) }
	e.SetSurrogate(g)

	req := midCellRequest()
	req.MaxError = 0.9
	met, bound, st, err := e.SolveBounded(context.Background(), req)
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	if st != stateSurrogate {
		t.Fatalf("first request state = %v, want surrogate", st)
	}
	if solves.Load() != 0 {
		t.Errorf("first request ran %d solves, want 0", solves.Load())
	}
	if !(bound > 0) || met.Up <= 0 {
		t.Errorf("first request (bound %v, Up %v)", bound, met.Up)
	}
}

func TestRestoreDropsNonFiniteRecords(t *testing.T) {
	// A snapshot written before non-finite results were rejected can hold a
	// NaN entry. Restoring it would make every hit on that key a 500 (JSON
	// cannot carry NaN), so restore drops it and the key solves afresh.
	store := newSnapStore(t)
	nanReq, finiteReq := baseRequest(), baseRequest()
	nanReq.Threads, finiteReq.Threads = 2, 4
	nanKey, err := SolveKey(nanReq)
	if err != nil {
		t.Fatal(err)
	}
	finiteKey, err := SolveKey(finiteReq)
	if err != nil {
		t.Fatal(err)
	}
	a := NewEvaluator(Config{Workers: 1})
	a.cache.insert(nanKey, result{real: mms.Metrics{Up: math.NaN(), CycleTime: math.NaN()}})
	a.cache.insert(finiteKey, result{real: mms.Metrics{Up: 0.5, CycleTime: 20}})
	if n, err := a.SnapshotCache(store); err != nil || n != 2 {
		t.Fatalf("SnapshotCache = %d, %v; want 2 entries", n, err)
	}
	a.Close()

	srv, ts := newTestServer(t, Config{Workers: 1})
	var logs []string
	if n := srv.Evaluator().RestoreCache(store, func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }); n != 1 {
		t.Fatalf("restored %d entries, want 1 (logs: %q)", n, logs)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "dropped 1 records") {
		t.Errorf("logs = %q, want one dropped-records line", logs)
	}
	body, err := json.Marshal(nanReq)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/solve", string(body))
	var out SolveResponse
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Lattold-Cache") != "miss" {
		t.Fatalf("solve of the dropped key: status %d, cache %q; want 200 miss",
			resp.StatusCode, resp.Header.Get("X-Lattold-Cache"))
	}
	if !(out.Metrics.Up > 0 && out.Metrics.Up <= 1) {
		t.Errorf("solve of the dropped key: u_p = %v", out.Metrics.Up)
	}
}

// TestKeyHashAndRecordPinned pins Key.Hash, which places keys on the
// cluster ring, and the snapshot record bytes, which a restarted daemon
// reads back: nodes of different builds must agree on owners, and a
// snapshot written by an older build must restore. The digest covers the
// whole record under one fixed result.
func TestKeyHashAndRecordPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name          string
		op, sub, mode string
		mutate        func(*ModelRequest)
		hash          uint64
		record        string // first 8 bytes of the record's SHA-256
	}{
		{"geometric solve", "", "", "", func(*ModelRequest) {},
			0xfd61a2d7c9c226e4, "e7a7f328f2502b95"},
		{"uniform solve", "", "", "", func(r *ModelRequest) { r.Pattern = "uniform" },
			0x859ccc61c57c6c95, "9b1e5e6d8c38a273"},
		{"uniform ignores psw", "", "", "", func(r *ModelRequest) { r.Pattern, r.Psw = "uniform", 0.9 },
			0x859ccc61c57c6c95, "9b1e5e6d8c38a273"},
		{"per-node solve", "", "", "", func(r *ModelRequest) { r.GeometricMode, r.Psw = "per-node", 0.7 },
			0x27f72a9aa4423b50, "8cc4a273bb5c4a3d"},
		{"tolerance network", "tolerance", "", "", func(*ModelRequest) {},
			0x8f29e9327ce1e943, "5cafa1ec2392ec19"},
		{"tolerance memory", "tolerance", "memory", "", func(*ModelRequest) {},
			0x312ffa830ffd3c0f, "e0f5cac74d50dd8c"},
		{"tolerance network zero-delay uniform", "tolerance", "network", "zero-delay", func(r *ModelRequest) { r.Pattern = "uniform" },
			0x576f7c9a6f0ef821, "c6b462778d0bb675"},
		{"tolerance memory per-node full", "tolerance", "memory", "zero-delay", func(r *ModelRequest) { r.GeometricMode, r.Solver = "per-node", "full" },
			0xa0e663b877b6bbc6, "b2e32723f95d07e1"},
		{"ports 0 and 2", "", "", "", func(r *ModelRequest) { r.MemoryPorts, r.SwitchPorts = 0, 2 },
			0x902329acba3f51c4, "4f9894e575abe42f"},
		{"ports 2 and 1", "", "", "", func(r *ModelRequest) { r.MemoryPorts, r.SwitchPorts = 2, 1 },
			0x0f2a86c983fb45d8, "6c708ef87d1a009a"},
		{"negative zeros", "", "", "", func(r *ModelRequest) { r.ContextSwitch, r.SwitchTime = negZero, negZero },
			0x0417b2b1437319b5, "969d94a6072743b2"},
		{"p_remote -0 uniform per-node", "", "", "", func(r *ModelRequest) {
			r.PRemote, r.Pattern, r.GeometricMode, r.Psw = negZero, "uniform", "per-node", 0.9
		}, 0x1f6af68c51f77d21, "61a29505fda02ef2"},
		{"p_remote 0 tolerance memory", "tolerance", "memory", "", func(r *ModelRequest) { r.PRemote = 0 },
			0xffee2e5dbe919349, "9c3c6844393c108e"},
		{"k 1 exact", "", "", "", func(r *ModelRequest) { r.K, r.PRemote, r.Solver, r.Threads = 1, 0, "exact", 3 },
			0x5007afdb3f4e3d26, "f0666e7f80e4707c"},
		{"k 16 wire caps", "", "", "", func(r *ModelRequest) { r.K, r.Threads, r.Runlength, r.ContextSwitch = 16, 16384, 2.5, 0.25 },
			0x4f913eafcbae5183, "f2920cad84c7ece6"},
	}
	res := result{real: mms.Metrics{Up: 0.5, CycleTime: 20, Iterations: 7}, ideal: mms.Metrics{Up: 0.75}, tol: 2.0 / 3}
	for _, c := range cases {
		r := baseRequest()
		c.mutate(&r)
		k, err := modelKey(&r, c.op, c.sub, c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := k.Hash(); got != c.hash {
			t.Errorf("%s: Hash = %#016x, want %#016x", c.name, got, c.hash)
		}
		sum := sha256.Sum256(snapRecord(nil, k, res))
		if got := hex.EncodeToString(sum[:8]); got != c.record {
			t.Errorf("%s: record digest %s, want %s", c.name, got, c.record)
		}
	}
}

// TestRestoreDropsRecordsNoRequestProduces: a record whose enum bytes are
// out of range, or whose configuration fails the validation a request
// passes, is dropped and counted; the valid record beside them restores.
func TestRestoreDropsRecordsNoRequestProduces(t *testing.T) {
	good, err := ToleranceKey(ToleranceRequest{ModelRequest: baseRequest(), Subsystem: "memory"})
	if err != nil {
		t.Fatal(err)
	}
	res := result{real: mms.Metrics{Up: 0.5, CycleTime: 20}, ideal: mms.Metrics{Up: 0.6, CycleTime: 16}, tol: 0.5 / 0.6}
	rec := snapRecord(nil, good, res)
	// Record layout: op, subsystem, mode, solver, pattern and geometric-mode
	// bytes, then K and Threads as little-endian int64s.
	bad := []func(b []byte){
		func(b []byte) { b[3] = 9 },                 // no such solver
		func(b []byte) { b[4] = 7 },                 // no such pattern
		func(b []byte) { b[5] = 2 },                 // no such geometric mode
		func(b []byte) { b[2] = 1 },                 // zero-remote on the memory subsystem
		func(b []byte) { snapI64(b[6:6], -3) },      // K = -3
		func(b []byte) { snapI64(b[14:14], 16385) }, // above the thread cap
	}
	blob := []byte(snapMagic)
	blob = snapU32(blob, snapVersion)
	blob = snapU32(blob, uint32(len(mva.SolverVersion)))
	blob = append(blob, mva.SolverVersion...)
	blob = snapI64(blob, 1+len(bad))
	blob = append(blob, rec...)
	for _, mutate := range bad {
		b := append([]byte(nil), rec...)
		mutate(b)
		blob = append(blob, b...)
	}
	store := newSnapStore(t)
	h, err := store.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Link(SnapshotRefName, h); err != nil {
		t.Fatal(err)
	}

	e := NewEvaluator(Config{Workers: 1})
	defer e.Close()
	var logs []string
	if n := e.RestoreCache(store, func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }); n != 1 {
		t.Errorf("restored %d records, want 1 (logs: %q)", n, logs)
	}
	if want := fmt.Sprintf("dropped %d records", len(bad)); len(logs) != 1 || !strings.Contains(logs[0], want) {
		t.Errorf("logs = %q, want one line with %q", logs, want)
	}
	if got, ok := e.cache.peek(&good); !ok || got != res {
		t.Errorf("valid record: cached %+v (present %v), want %+v", got, ok, res)
	}
}
