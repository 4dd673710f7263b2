package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"

	"lattol/internal/access"
	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/surrogate"
	"lattol/internal/tolerance"
)

// LRU snapshot: the result cache persisted through the surrogate package's
// content-addressed store, so a restarted daemon reopens warm. Format (all
// little-endian, floats as IEEE bits):
//
//	magic "LSNP" | u32 version | str solver version (mva.SolverVersion)
//	u64 record count | records
//	record: key (6×u8 enums, 4×i64 ints, 6×f64) |
//	        real metrics (9×f64, i64 iterations) | ideal | f64 tol
//
// Records are dumped least recently used first per shard, so replaying them
// through cache.insert reproduces the recency order. A snapshot written by a
// different solver version is discarded at restore — cached numbers must
// always match what a fresh solve would produce today.

const (
	snapMagic = "LSNP"
	// snapVersion is the snapshot layout version; bump on any change.
	snapVersion = 1
	// SnapshotRefName is the store ref the latest LRU snapshot hangs off.
	SnapshotRefName = "lru-snapshot"
)

func snapU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func snapI64(b []byte, v int) []byte    { return binary.LittleEndian.AppendUint64(b, uint64(int64(v))) }
func snapF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func snapMetrics(b []byte, m mms.Metrics) []byte {
	for _, v := range [...]float64{m.Up, m.LambdaProc, m.LambdaNet, m.SObs, m.LObs,
		m.CycleTime, m.MemUtilization, m.OutUtilization, m.InUtilization} {
		b = snapF64(b, v)
	}
	return snapI64(b, m.Iterations)
}

func snapRecord(b []byte, k Key, res result) []byte {
	c := &k.cfg
	var pattern byte
	if c.Uniform {
		pattern = 1
	}
	b = append(b, byte(k.op), byte(k.sub), byte(k.mode), byte(k.solver), pattern, byte(c.GeometricMode))
	for _, v := range [...]int{c.K, c.Threads, c.MemoryPorts, c.SwitchPorts} {
		b = snapI64(b, v)
	}
	for _, v := range [...]float64{c.Runlength, c.ContextSwitch, c.MemoryTime, c.SwitchTime, c.PRemote, c.Psw} {
		b = snapF64(b, v)
	}
	b = snapMetrics(b, res.real)
	b = snapMetrics(b, res.ideal)
	return snapF64(b, res.tol)
}

// SnapshotCache persists the current result cache into the store under
// SnapshotRefName and returns the number of entries written. Meant to run
// after Close has drained the pool (the daemon's shutdown path), but safe —
// merely racy about very fresh entries — at any time.
func (e *Evaluator) SnapshotCache(s *surrogate.Store) (int, error) {
	b := []byte(snapMagic)
	b = snapU32(b, snapVersion)
	b = snapU32(b, uint32(len(mva.SolverVersion)))
	b = append(b, mva.SolverVersion...)
	countAt := len(b)
	b = snapI64(b, 0) // patched below
	n := 0
	e.cache.dump(func(k Key, res result) {
		b = snapRecord(b, k, res)
		n++
	})
	binary.LittleEndian.PutUint64(b[countAt:], uint64(n))
	h, err := s.Put(b)
	if err != nil {
		return 0, err
	}
	if err := s.Link(SnapshotRefName, h); err != nil {
		return 0, err
	}
	return n, nil
}

// setEnums decodes a record's enum bytes (op, subsystem, mode, solver,
// pattern, geometric mode) into k, reporting whether they form a
// combination a request can produce.
func (k *Key) setEnums(b [6]byte) bool {
	k.op = opKind(b[0])
	k.sub = tolerance.Subsystem(b[1])
	k.mode = tolerance.IdealMode(b[2])
	k.solver = mms.Solver(b[3])
	k.cfg.Uniform = b[4] == 1
	k.cfg.GeometricMode = access.GeometricMode(b[5])
	return (k.op == opSolve || k.op == opTolerance) &&
		k.sub <= tolerance.Memory && k.mode <= tolerance.ZeroRemote &&
		!(k.sub == tolerance.Memory && k.mode == tolerance.ZeroRemote) &&
		k.solver <= mms.ExactMVA && b[4] <= 1 && k.cfg.GeometricMode <= access.PerNode
}

// snapReader mirrors the surrogate codec's latched-error cursor.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("%w: truncated at offset %d", surrogate.ErrCorrupt, r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *snapReader) u8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *snapReader) i64() int {
	if s := r.take(8); s != nil {
		return int(int64(binary.LittleEndian.Uint64(s)))
	}
	return 0
}

func (r *snapReader) f64() float64 {
	if s := r.take(8); s != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(s))
	}
	return 0
}

func (r *snapReader) metrics() mms.Metrics {
	return mms.Metrics{
		Up: r.f64(), LambdaProc: r.f64(), LambdaNet: r.f64(), SObs: r.f64(), LObs: r.f64(),
		CycleTime: r.f64(), MemUtilization: r.f64(), OutUtilization: r.f64(), InUtilization: r.f64(),
		Iterations: r.i64(),
	}
}

// RestoreCache loads the persisted LRU snapshot into the cache, returning how
// many entries it restored. Restore is strictly best-effort: a missing
// snapshot is a silent cold start, and a corrupt, truncated or
// version-mismatched one is reported through logf (nil discards) and
// discarded — the daemon always comes up, at worst cold. Every restored key
// must survive re-canonicalization bit-for-bit; records that don't are
// dropped, because a key the current code would canonicalize differently
// could serve a wrong cache line. Records holding a non-finite result are
// dropped too: a fresh evaluation never caches one (it fails with 422), and
// JSON cannot carry it, so a restored one would answer 500 on every hit.
func (e *Evaluator) RestoreCache(s *surrogate.Store, logf func(format string, args ...any)) int {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	h, err := s.Resolve(SnapshotRefName)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			logf("serve: cache snapshot unusable, starting cold: %v", err)
		}
		return 0
	}
	data, err := s.Get(h)
	if err != nil {
		logf("serve: cache snapshot unusable, starting cold: %v", err)
		return 0
	}
	r := &snapReader{b: data}
	if string(r.take(len(snapMagic))) != snapMagic {
		logf("serve: cache snapshot unusable, starting cold: %v: bad magic", surrogate.ErrCorrupt)
		return 0
	}
	if v := r.u32(); r.err == nil && v != snapVersion {
		logf("serve: cache snapshot unusable, starting cold: %v: snapshot v%d, this build reads v%d",
			surrogate.ErrVersion, v, snapVersion)
		return 0
	}
	nameLen := r.u32()
	if r.err == nil && nameLen > 1<<10 {
		logf("serve: cache snapshot unusable, starting cold: %v: solver tag length %d", surrogate.ErrCorrupt, nameLen)
		return 0
	}
	if sv := string(r.take(int(nameLen))); r.err == nil && sv != mva.SolverVersion {
		logf("serve: cache snapshot from solver version %q, this build is %q; starting cold", sv, mva.SolverVersion)
		return 0
	}
	count := r.i64()
	if r.err == nil && (count < 0 || count > 1<<24) {
		logf("serve: cache snapshot unusable, starting cold: %v: record count %d", surrogate.ErrCorrupt, count)
		return 0
	}
	// Parse the whole snapshot before touching the cache, so a malformed
	// tail never leaves a half-restored state behind.
	type record struct {
		k   Key
		res result
	}
	records := make([]record, 0, count)
	dropped := 0
	for i := 0; i < count && r.err == nil; i++ {
		var k Key
		var enums [6]byte
		copy(enums[:], r.take(len(enums)))
		c := &k.cfg
		c.K, c.Threads, c.MemoryPorts, c.SwitchPorts = r.i64(), r.i64(), r.i64(), r.i64()
		c.Runlength, c.ContextSwitch = r.f64(), r.f64()
		c.MemoryTime, c.SwitchTime = r.f64(), r.f64()
		c.PRemote, c.Psw = r.f64(), r.f64()
		res := result{real: r.metrics(), ideal: r.metrics(), tol: r.f64()}
		if r.err != nil {
			break
		}
		if !k.setEnums(enums) || validateConfig(k.cfg) != nil || k.Recanonicalized() != k || finiteErr(res) != nil {
			dropped++
			continue
		}
		records = append(records, record{k, res})
	}
	if r.err != nil {
		logf("serve: cache snapshot unusable, starting cold: %v", r.err)
		return 0
	}
	if r.off != len(data) {
		logf("serve: cache snapshot unusable, starting cold: %v: %d trailing bytes", surrogate.ErrCorrupt, len(data)-r.off)
		return 0
	}
	if dropped > 0 {
		logf("serve: cache snapshot: dropped %d records that no request produces or that hold non-finite results", dropped)
	}
	restored := 0
	for _, rec := range records {
		if e.cache.insert(rec.k, rec.res) {
			restored++
		}
	}
	e.met.snapshotRestored.Add(uint64(restored))
	return restored
}
