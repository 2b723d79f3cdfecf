package shard

import (
	"sync/atomic"

	"pardict/internal/pram"
	"pardict/internal/prefilter"
)

// The write overlay of a snapshot generation: pending inserts screened by a
// Karp–Rabin fingerprint index (cf. Clifford et al., "Dictionary matching in
// a stream"), and tombstones for deleted base patterns and pending inserts.
// Both are published with every snapshot and shared between the snapshots of
// one generation (one compiled base):
//
//   - adds is append-only. A write appends one entry, and the index grows
//     beside it; a snapshot reads only the entries below its own len(adds).
//   - Tombstones are copy-on-write paged bitsets: a delete copies one page
//     and the page table, never the whole set.
//
// A scan then pays O(1) per text position for each length class holding a
// live pending insert, plus the candidates whose fingerprint it verifies,
// however many inserts are pending.

// Pending inserts fall into the prefilter's length classes (1, 2–3, 4–7 and
// ≥ 8 symbols) and share its Karp–Rabin fingerprint: class k fingerprints
// the first prefilter.KeyLen[k] symbols of a pattern and, at scan time, the
// same number of text symbols at a position. Collisions only cost a
// verification. ovMixer spreads a fingerprint over the bucket and filter
// bits, and ovSalt separates the classes.
const (
	ovMixer = 0xBF58476D1CE4E5B9
	ovSalt  = 0x632BE59BD9B4E019

	ovFilterShift = 4  // filter bits per bucket: 1 << ovFilterShift
	ovMinCap      = 64 // smallest index capacity (entries and buckets)
)

// ovIndex fingerprints the pending inserts of one generation. Entries are
// indexed by their position in adds and linked, in arrival order, into
// hash-bucket chains; a bit filter in front of the buckets rejects most text
// positions with one load.
//
// Concurrency: one writer (under the shard lock) appends; readers scan
// without locks. The arrays are allocated at full capacity up front and never
// moved — a full index is replaced by a fresh one of twice the capacity —
// so keyh[e], written before the snapshot covering e is published, is
// immutable for every reader that may read it. head, next and filter are the
// only words written after publication, hence atomic; a reader stops a chain at the first entry at or past its snapshot's
// len(adds) (chains run in arrival order).
type ovIndex struct {
	kr     prefilter.KR    // fingerprint (a Set's radix, so tests can force collisions)
	mix    uint64          // mixer (a Set's, for the same reason)
	bits   uint            // log2 of the bucket count
	head   []atomic.Int32  // bucket → first entry, -1 when empty
	next   []atomic.Int32  // entry → next entry of its bucket, -1 at the end
	keyh   []uint64        // entry → fingerprint of its key
	filter []atomic.Uint64 // 1 << ovFilterShift bits per bucket
	tail   []int32         // bucket → last entry (writer only)
}

func newOvIndex(capacity int, radix, mix uint64) *ovIndex {
	bits := uint(6)
	for 1<<bits < capacity {
		bits++
	}
	n := 1 << bits
	ix := &ovIndex{
		kr: prefilter.NewKR(radix), mix: mix, bits: bits,
		head:   make([]atomic.Int32, n),
		next:   make([]atomic.Int32, n),
		keyh:   make([]uint64, n),
		filter: make([]atomic.Uint64, n<<ovFilterShift>>6),
		tail:   make([]int32, n),
	}
	for i := range ix.head {
		ix.head[i].Store(-1)
		ix.tail[i] = -1
	}
	return ix
}

// slot maps a class-k fingerprint to its filter bit; the bucket is the slot's
// top bits.
func (ix *ovIndex) slot(h uint64, k int) uint64 {
	return ((h + uint64(k)*ovSalt) * ix.mix) >> (64 - ix.bits - ovFilterShift)
}

// add indexes entry e (the pattern p, not yet visible to any reader).
// Writer only.
func (ix *ovIndex) add(e int32, p []int32) {
	k := prefilter.ClassOf(len(p))
	h := ix.kr.Hash(p[:prefilter.KeyLen[k]])
	f := ix.slot(h, k)
	b := f >> ovFilterShift
	ix.keyh[e] = h
	ix.next[e].Store(-1)
	if t := ix.tail[b]; t >= 0 {
		ix.next[t].Store(e)
	} else {
		ix.head[b].Store(e)
	}
	ix.tail[b] = e
	w := &ix.filter[f>>6] // one writer: load-or-store needs no CAS
	w.Store(w.Load() | 1<<(f&63))
}

// first returns the first entry of slot f's bucket, or -1 when the filter
// rejects the slot. Chains run in arrival order, so a reader stops at the
// first entry at or past its snapshot's len(adds).
func (ix *ovIndex) first(f uint64) int32 {
	if ix.filter[f>>6].Load()&(1<<(f&63)) == 0 {
		return -1
	}
	return ix.head[f>>ovFilterShift].Load()
}

// after returns the entry following e in its bucket chain (-1 at the end).
func (ix *ovIndex) after(e int32) int32 { return ix.next[e].Load() }

// tombs is a copy-on-write bitset over entry indices (base patterns or
// pending inserts deleted since the base was compiled). Published pages are
// never written again: with copies the page table and the one page it sets.
type tombs struct {
	pages []*tombPage // nil page: no bit set in it
	n     int         // bits set
}

const tombPageBits = 4096

type tombPage [tombPageBits / 64]uint64

func (b tombs) has(i int32) bool {
	pi := int(i) / tombPageBits
	if pi >= len(b.pages) {
		return false
	}
	pg := b.pages[pi]
	return pg != nil && pg[int(i)%tombPageBits>>6]&(1<<(uint(i)&63)) != 0
}

// with returns b plus bit i (which must not be set yet).
func (b tombs) with(i int32) tombs {
	pi := int(i) / tombPageBits
	pages := make([]*tombPage, max(len(b.pages), pi+1))
	copy(pages, b.pages)
	pg := new(tombPage)
	if old := pages[pi]; old != nil {
		*pg = *old
	}
	pg[int(i)%tombPageBits>>6] |= 1 << (uint(i) & 63)
	pages[pi] = pg
	return tombs{pages: pages, n: b.n + 1}
}

// liveAdds reports the pending inserts not deleted since.
func (sn *snapshot) liveAdds() int {
	n := 0
	for _, c := range sn.ovLive {
		n += int(c)
	}
	return n
}

// stageInsert appends e to the overlay of ns, a snapshot under construction:
// O(1) amortized (a full index is rebuilt at twice the size). Caller holds
// the shard lock.
func (s *Shard) stageInsert(ns *snapshot, e Entry) {
	i := int32(len(ns.adds))
	ns.adds = append(ns.adds, e)
	if ns.ov == nil || int(i) >= len(ns.ov.keyh) {
		ix := newOvIndex(max(ovMinCap, 2*len(ns.adds)), s.set.ovRadix, s.set.ovMixer)
		for j, a := range ns.adds[:i] {
			if !ns.delAdds.has(int32(j)) {
				ix.add(int32(j), a.Enc)
			}
		}
		ns.ov = ix
	}
	ns.ov.add(i, e.Enc)
	ns.ovLive[prefilter.ClassOf(len(e.Enc))]++
	s.addIdx[string(e.Raw)] = i
	ns.pendOps++
	ns.pendBytes += len(e.Enc)
}

// stageDelete tombstones the live instance of key in ns — a pending insert
// or a base pattern — in O(1) plus one page copy. Caller holds the shard
// lock and has checked that key is live.
func (s *Shard) stageDelete(ns *snapshot, key string, size int) {
	if ai, ok := s.addIdx[key]; ok {
		delete(s.addIdx, key)
		ns.delAdds = ns.delAdds.with(ai)
		ns.ovLive[prefilter.ClassOf(size)]--
	} else if bi, ok := s.baseIdx[key]; ok && !ns.delBase.has(bi) {
		ns.delBase = ns.delBase.with(bi)
	}
	ns.pendOps++
	ns.pendBytes += size
}

// overlayPass raises h.lens/h.refs to the longest live pending insert at each
// position where one beats the base. Per position it rolls one fingerprint
// per class holding a live insert, probes the filter, and verifies the
// bucket's candidates symbol by symbol. It charges what it runs: one unit per
// (position, probed class) plus one per verified candidate, in one phase.
func overlayPass(c *pram.Ctx, sn *snapshot, enc []int32, h *shardHit) {
	ix, n, limit := sn.ov, len(enc), int32(len(sn.adds))
	var act [prefilter.Classes]int // classes holding a live insert
	na := 0
	for k := prefilter.Classes - 1; k >= 0; k-- {
		if sn.ovLive[k] > 0 {
			act[na] = k
			na++
		}
	}
	c.ForChunk(n, func(lo, hi int) {
		var np, ns, nv int64
		for _, k := range act[:na] {
			L := prefilter.KeyLen[k]
			end := min(hi, n-L+1) // positions where a class-k key fits
			if lo >= end {
				continue
			}
			np += int64(end - lo)
			hk := ix.kr.Hash(enc[lo : lo+L])
			for j := lo; j < end; j++ {
				if e := ix.first(ix.slot(hk, k)); e >= 0 {
					ns++
					for ; e >= 0 && e < limit; e = ix.after(e) {
						nv++
						if ix.keyh[e] != hk || sn.delAdds.has(e) {
							continue
						}
						p := sn.adds[e].Enc
						if int32(len(p)) > h.lens[j] && j+len(p) <= n && symEqual(enc[j:j+len(p)], p) {
							h.lens[j] = int32(len(p))
							h.refs[j] = -(e + 2)
						}
					}
				}
				if j+L < n {
					hk = ix.kr.Roll(hk, k, enc[j], enc[j+L])
				}
			}
		}
		c.AddWork(np + nv)
		h.ovScreened.Add(ns)
		h.ovVerified.Add(nv)
	})
	// ForChunk charged one unit per position; the chunks charged the probes
	// and candidates they ran instead.
	c.AddWork(-int64(n))
}

// overlayAllAt appends every live pending insert of sn matching enc at j.
func overlayAllAt(sn *snapshot, enc []int32, j int, dst []Hit) []Hit {
	n, limit := len(enc), int32(len(sn.adds))
	for k := prefilter.Classes - 1; k >= 0; k-- {
		L := prefilter.KeyLen[k]
		if sn.ovLive[k] == 0 || j+L > n {
			continue
		}
		hk := sn.ov.kr.Hash(enc[j : j+L])
		for e := sn.ov.first(sn.ov.slot(hk, k)); e >= 0 && e < limit; e = sn.ov.after(e) {
			a := sn.adds[e]
			if sn.ov.keyh[e] == hk && prefilter.ClassOf(len(a.Enc)) == k && j+len(a.Enc) <= n &&
				!sn.delAdds.has(e) && symEqual(enc[j:j+len(a.Enc)], a.Enc) {
				dst = append(dst, Hit{ID: a.ID, Raw: a.Raw, Len: int32(len(a.Enc))})
			}
		}
	}
	return dst
}
