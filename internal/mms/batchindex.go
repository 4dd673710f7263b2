package mms

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// itemIndex finds the first earlier item of a batch that equals a given
// one, in expected O(1): an open-addressing table of item positions with
// linear probing. The equality is the caller's; the hash only has to agree
// with it. reset sizes the table to the batch and clears only that much, so
// a large earlier batch costs a later small one nothing (clearing a reused
// Go map costs the size of the largest batch it ever held), and a reused
// index allocates nothing once it has grown to the largest batch.
type itemIndex struct {
	slots []int32 // item position + 1; 0 marks an empty slot
}

// reset empties the index for a batch of n items, at least twice as many
// slots as items and a power of two.
func (x *itemIndex) reset(n int) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if cap(x.slots) < size {
		x.slots = make([]int32, size)
		return
	}
	x.slots = x.slots[:size]
	clear(x.slots)
}

// lookup probes from hash h for a recorded item j with eq(j). It returns j,
// or -1 and the empty slot where an item of this hash is to be recorded.
func (x *itemIndex) lookup(h uint64, eq func(j int) bool) (j, slot int) {
	mask := uint64(len(x.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		j := int(x.slots[s]) - 1
		if j < 0 || eq(j) {
			return j, int(s)
		}
	}
}

// record stores item i in the empty slot a failed lookup returned.
func (x *itemIndex) record(slot, i int) { x.slots[slot] = int32(i + 1) }

var indexSeed = maphash.MakeSeed()

// hashWords hashes up to 16 words with the runtime's hash function.
func hashWords(w []uint64) uint64 {
	var b [16 * 8]byte
	for i, v := range w {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return maphash.Bytes(indexSeed, b[:8*len(w)])
}

// floatWord is a float's hash input: -0 and +0 compare equal, so they
// must hash equal.
func floatWord(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

func (g geometry) appendWords(w []uint64) []uint64 {
	pattern := uint64(g.mode) << 1
	if g.uniform {
		pattern |= 1
	}
	return append(w, uint64(g.k), floatWord(g.pRemote), floatWord(g.psw), pattern)
}

// hash agrees with geometry equality.
func (g geometry) hash() uint64 {
	var w [4]uint64
	return hashWords(g.appendWords(w[:0]))
}

// systemHash agrees with BatchItem equality for items with a nil Model, the
// only ones SolveBatch compares.
func systemHash(it *BatchItem) uint64 {
	c := &it.Config
	var w [12]uint64
	return hashWords(append(c.geometry().appendWords(w[:0]),
		uint64(c.Threads), floatWord(c.Runlength), floatWord(c.ContextSwitch),
		floatWord(c.MemoryTime), floatWord(c.SwitchTime),
		uint64(c.MemoryPorts), uint64(c.SwitchPorts), uint64(it.Solver)))
}
