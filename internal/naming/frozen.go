package naming

import (
	"encoding/binary"
	"math/bits"

	"pardict/internal/pram"
)

// fib64 is the Fibonacci multiplier 2^64/φ whose product's high bits pick a
// key's home slot in Frozen (the same constant flathash uses; Frozen never
// double-hashes with it the way the sharded Table must avoid — see shardMul).
const fib64 = 0x9E3779B97F4A7C15

// fpMul derives the fingerprint from a second product. The home slot comes
// from the top bits of k*fib64, so tag bits taken from that same product
// would repeat across the keys that share a home slot in a large table; the
// top byte of an independent product does not.
const fpMul = 0xD6E8FEB86659FD93

// spareSlots caps the extra slots a small table gets. A table holds three
// slots per two entries plus as many again, up to spareSlots (2 KiB of
// fingerprints and 24 KiB of keys and values): tables of up to 1,365
// entries, cache-resident and probed at nearly every text position (up[1]
// of a byte dictionary holds at most 676 pairs), stay at load 1/3, where
// most hits and misses resolve on the home slot, while large tables, where
// memory matters and a probe is a cache miss anyway, approach load 2/3.
const spareSlots = 2048

// minSlots keeps even an empty table one probe window wide.
const minSlots = 8

// Byte-lane constants of the eight-slot probe window.
const (
	lsb8 = 0x0101010101010101
	msb8 = 0x8080808080808080
)

// Frozen is an immutable open-addressing table, built once during
// preprocessing and read on the matching hot path: a linear-probed layout of
// three flat arrays — an 8-bit fingerprint array probed first, then parallel
// key and value arrays, sized from the distinct count with no rounding to
// a power of two (see spareSlots for the load). A lookup reads the
// eight fingerprints from its home slot on as one word: any empty slot
// among them ends a miss, and only slots whose tag matches, before the
// first empty one, cost a key compare. So a miss is still one fingerprint
// probe, as it was in the power-of-two tables at half the load, and the
// cascade's per-level lookups stay cache-resident (EXPERIMENTS.md E15
// measures the difference against the map-backed Table). Any value except
// None may be stored (None is what Lookup returns for absent keys).
type Frozen struct {
	fps  []uint8 // 0 = empty slot; otherwise a nonzero fingerprint
	keys []uint64
	vals []int32
	n    int
}

// fingerprint derives the nonzero tag stored in the fps array.
func fingerprint(k uint64) uint8 {
	fp := uint8((k * fpMul) >> 56)
	if fp == 0 {
		fp = 1
	}
	return fp
}

// home maps k to its home slot in a table of size slots: the high word of
// (k*fib64)·size, a multiply-shift range reduction that needs no
// power-of-two size.
func home(k uint64, size int) int {
	hi, _ := bits.Mul64(k*fib64, uint64(size))
	return int(hi)
}

// newFrozen returns an empty table with room for distinct entries.
func newFrozen(distinct int) *Frozen {
	size := distinct + distinct/2
	size += min(size, spareSlots)
	if size < minSlots {
		size = minSlots
	}
	return &Frozen{
		fps:  make([]uint8, size),
		keys: make([]uint64, size),
		vals: make([]int32, size),
	}
}

// FreezeBatch builds the frozen table mapping keys[i] -> vals[i] straight
// from a naming batch, with no intermediate Table. When a key repeats, the
// entry with the smallest index wins, as in BuildTable. distinct sizes the
// table: pass the count BatchName or BatchNameRep returned for keys, or any
// other upper bound on the number of distinct keys (it panics when exceeded).
// No stored value may equal None.
//
// The result and the charged Work and Depth equal Freeze(c,
// BuildTable(c, keys, vals)): the batch write phase (len(keys) work, one
// phase, skipped for an empty batch) and the freeze (one unit per entry, one
// phase). As in BuildTable's phase, a canceled c stores nothing.
func FreezeBatch(c *pram.Ctx, keys []uint64, vals []int32, distinct int) *Frozen {
	if c != nil && len(keys) > 0 {
		c.AddWork(int64(len(keys)))
		c.AddDepth(1)
		if c.Canceled() {
			keys, distinct = nil, 0
		}
	}
	f := newFrozen(distinct)
	for i, k := range keys {
		f.insert(k, vals[i], distinct)
	}
	if c != nil {
		c.AddWork(int64(f.n))
		c.AddDepth(1)
	}
	return f
}

// Freeze builds the frozen view of a Table. No value in t may equal None.
func Freeze(c *pram.Ctx, t *Table) *Frozen {
	n := t.Len()
	f := newFrozen(n)
	t.Range(func(k uint64, v int32) bool {
		f.insert(k, v, n)
		return true
	})
	if c != nil {
		c.AddWork(int64(n))
		c.AddDepth(1)
	}
	return f
}

// insert stores k -> v unless k is already present, in which case the
// earlier value stays. At most limit entries may be stored.
func (f *Frozen) insert(k uint64, v int32, limit int) {
	fp := fingerprint(k)
	i := home(k, len(f.fps))
	for {
		b := f.fps[i]
		if b == 0 {
			break
		}
		if b == fp && f.keys[i] == k {
			return
		}
		if i++; i == len(f.fps) {
			i = 0
		}
	}
	if v == None {
		panic("naming: Freeze cannot store None values")
	}
	if f.n == limit {
		panic("naming: FreezeBatch given fewer distinct keys than the batch holds")
	}
	f.fps[i] = fp
	f.keys[i] = k
	f.vals[i] = v
	f.n++
}

// Len reports the number of entries.
func (f *Frozen) Len() int { return f.n }

// Get returns the stamp for k.
func (f *Frozen) Get(k uint64) (int32, bool) {
	fps := f.fps
	size := len(fps)
	fp := fingerprint(k)
	i := home(k, size)
	for {
		if i+8 > size {
			// The window would run off the end: step one slot, wrapping.
			b := fps[i]
			if b == 0 {
				return None, false
			}
			if b == fp && f.keys[i] == k {
				return f.vals[i], true
			}
			if i++; i == size {
				i = 0
			}
			continue
		}
		// One byte lane per slot. The lowest flagged lane of each mask is
		// exact; lanes above a flagged one may be false alarms, which cost
		// a key compare at most and are cut off at the first empty slot.
		w := binary.LittleEndian.Uint64(fps[i:])
		empty := (w - lsb8) &^ w & msb8
		x := w ^ lsb8*uint64(fp)
		match := (x - lsb8) &^ x & msb8
		if empty != 0 {
			match &= empty&-empty - 1
		}
		for ; match != 0; match &= match - 1 {
			j := i + bits.TrailingZeros64(match)>>3
			if f.keys[j] == k {
				return f.vals[j], true
			}
		}
		if empty != 0 {
			return None, false
		}
		if i += 8; i >= size {
			i -= size
		}
	}
}

// Lookup returns the stamp for k, or None.
func (f *Frozen) Lookup(k uint64) int32 {
	v, _ := f.Get(k)
	return v
}

// Range calls fn for every entry until it returns false.
func (f *Frozen) Range(fn func(k uint64, v int32) bool) {
	for i, b := range f.fps {
		if b == 0 {
			continue
		}
		if !fn(f.keys[i], f.vals[i]) {
			return
		}
	}
}

// ToTable rebuilds a map-backed Table with the same entries — the inverse of
// Freeze, used by the E15 ablation to run the identical cascade through the
// mutable representation.
func (f *Frozen) ToTable(c *pram.Ctx) *Table {
	t := NewTable(c)
	f.Range(func(k uint64, v int32) bool {
		t.Put(k, v)
		return true
	})
	return t
}
