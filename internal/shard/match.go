package shard

import (
	"math/bits"
	"sync"

	"pardict/internal/core"
	"pardict/internal/pram"
	"pardict/internal/trace"
)

// shardHit is one shard's per-position output, expressed against its pinned
// snapshot: lens[j] is the longest live pattern length matching at j (0 if
// none), refs[j] locates it — ≥0 is an index into snapshot.baseEnt, ≤-2
// encodes the overlay add index -(ref+2), -1 is no match.
//
// A clean hit (overlay empty: no pending adds, no pending deletes) skips the
// refs/lens translation entirely — the base engine's Pat array IS the answer,
// read through snapshot.baseLen. That is the steady state after reconcile, so
// fully-reconciled shards pay zero overlay cost per scan.
//
// Every array is slab-pooled. refs, lens and hit live until the merge has
// read them; base lives with the Result, whose AllAt walks its Pat chains.
type shardHit struct {
	active  bool        // the shard had patterns and was scanned
	hasBase bool        // base was matched into base
	clean   bool        // base-only snapshot: read base.Pat/sn.baseLen directly
	base    core.Result // base engine output
	refs    []int32     // nil when clean
	lens    []int32     // nil when clean
	hit     []uint64    // bit j set ⇔ a live pattern of this shard starts at j
}

// lenRefAt returns the per-position longest live length and ref for either
// representation.
func (h *shardHit) lenRefAt(sn *snapshot, j int) (int32, int32) {
	if h.clean {
		if p := h.base.Pat[j]; p >= 0 {
			return sn.baseLen[p], p
		}
		return 0, -1
	}
	return h.lens[j], h.refs[j]
}

// Result is the merged scatter-gather output for one text: per position the
// longest live pattern across every shard, plus enough retained state to
// expand all matches on demand. Its arrays come from the slab pools, and
// Release recycles them with the Result itself.
type Result struct {
	// Len[j] is the length of the longest live pattern matching at j (0 none).
	Len []int32
	// ID[j] is that pattern's stable id, or -1.
	ID []int32

	snaps []*snapshot // pinned snapshot per shard
	hits  []shardHit  // per-shard output; base kept for AllAt
	enc   []int32     // kept for AllAt's overlay rescan

	// Scan scratch, live only inside MatchTraced.
	ctxs    []*pram.Ctx
	wg      sync.WaitGroup
	mergeFn func(lo, hi int)

	Work  int64
	Depth int64
}

var resultPool = sync.Pool{New: func() any { return newResult() }}

// newResult builds a Result with its merge phase body bound once, so a
// recycled Result runs its merge without allocating a closure.
func newResult() *Result {
	r := &Result{}
	r.mergeFn = r.merge
	return r
}

// acquireResult returns a recycled Result sized for S shards.
func acquireResult(S int) *Result {
	r := resultPool.Get().(*Result)
	if cap(r.snaps) < S {
		r.snaps = make([]*snapshot, S)
		r.hits = make([]shardHit, S)
		r.ctxs = make([]*pram.Ctx, S)
	}
	r.snaps, r.hits, r.ctxs = r.snaps[:S], r.hits[:S], r.ctxs[:S]
	return r
}

// dropScratch releases what the merge alone needed: the per-shard refs,
// lens and hit bitmaps, and the shard contexts.
func (r *Result) dropScratch() {
	for i := range r.hits {
		h := &r.hits[i]
		pram.ReleaseInt32(h.refs)
		pram.ReleaseInt32(h.lens)
		pram.ReleaseUint64(h.hit)
		h.refs, h.lens, h.hit = nil, nil, nil
		r.ctxs[i] = nil
	}
}

// Release returns the Result's buffers, and the Result itself, to the pools.
// The caller must not use r (or any slice read from it) afterwards.
// Optional: an unreleased Result is ordinary garbage.
func (r *Result) Release() {
	for i := range r.hits {
		r.hits[i].base.Release()
		r.hits[i] = shardHit{}
	}
	pram.ReleaseInt32(r.Len)
	pram.ReleaseInt32(r.ID)
	pram.ReleaseInt32(r.enc)
	r.Len, r.ID, r.enc = nil, nil, nil
	clear(r.snaps)
	r.Work, r.Depth = 0, 0
	resultPool.Put(r)
}

// Match scatter-gathers the text across every shard: each shard's snapshot is
// pinned up front (one tight window, so the scan observes a consistent cut of
// completed writes), matched concurrently on its own execution context from
// mk, and the per-position longest matches are merged. The returned context
// is non-nil only when matching was canceled mid-flight (its Err/Cause carry
// the cancellation); the Result is nil in that case.
//
// Match takes ownership of enc, which must come from pram.AcquireInt32 or be
// garbage to the caller: it goes back to the slab pools with the Result.
func (t *Set) Match(mk func() *pram.Ctx, enc []int32) (*Result, *pram.Ctx) {
	return t.MatchTraced(mk, enc, nil)
}

// MatchTraced is Match recording per-shard, overlay, and merge spans into tr
// (nil tr records nothing — it is exactly Match). The contexts from mk carry
// their own trace wiring for phase spans; tr names the coarser structure a
// trace viewer groups them under.
func (t *Set) MatchTraced(mk func() *pram.Ctx, enc []int32, tr *trace.T) (*Result, *pram.Ctx) {
	shards := *t.shards.Load()
	r := acquireResult(len(shards))
	r.enc = enc

	// Pin phase: grab every shard's snapshot on the caller's goroutine before
	// any matching starts. This is the linearization point of the scan.
	for i, s := range shards {
		r.snaps[i] = s.pin()
	}
	canceled := r.scatterGather(mk, tr)
	unpinAll(shards, r.snaps)
	r.dropScratch()
	if canceled != nil {
		r.Release()
		return nil, canceled
	}
	return r, nil
}

// scatterGather runs the pinned scan and the merge, returning the context
// that observed a cancellation (nil when the scan completed).
func (r *Result) scatterGather(mk func() *pram.Ctx, tr *trace.T) *pram.Ctx {
	// Scatter: one task per non-empty shard, each on its own Ctx so Work and
	// Depth compose as Σ work / max depth, matching the paper's model for
	// independent parallel subcomputations. The last task runs on the
	// caller's goroutine, which would otherwise only wait.
	last := -1
	for i, sn := range r.snaps {
		if (sn.base == nil || sn.base.PatternCount() == 0) && len(sn.adds) == 0 {
			continue
		}
		if last >= 0 {
			r.wg.Add(1)
			go r.scanShardAsync(last, mk, tr)
		}
		last = i
	}
	if last >= 0 {
		r.scanShard(last, mk, tr)
	}
	r.wg.Wait()

	var work, depth int64
	for _, c := range r.ctxs {
		if c == nil {
			continue
		}
		if c.Canceled() {
			return c
		}
		work += c.Work()
		if d := c.Depth(); d > depth {
			depth = d
		}
	}

	// Gather: per-position S-way longest-match merge on its own context,
	// one chunk element per 64-position word (see merge).
	n := len(r.enc)
	msp := tr.StartSpan("merge", int64(n))
	defer msp.End()
	mc := mk()
	r.Len = pram.AcquireInt32(n)
	r.ID = pram.AcquireInt32(n)
	words := (n + 63) >> 6
	mc.ForChunk(words, r.mergeFn)
	// The counted charge stays that of the dense merge — S candidates
	// inspected at each of the n positions in one phase — of which ForChunk
	// charged words. Like the prefilter's uncounted screen, skipping
	// positions no shard matched changes wall clock, never Work or Depth.
	if words > 0 {
		mc.AddWork(int64(n)*int64(len(r.hits)) - int64(words))
	}
	if mc.Canceled() {
		return mc
	}
	r.Work = work + mc.Work()
	r.Depth = depth + mc.Depth()
	return nil
}

func unpinAll(shards []*Shard, snaps []*snapshot) {
	for i, s := range shards {
		s.unpin(snaps[i])
	}
}

func (r *Result) scanShardAsync(i int, mk func() *pram.Ctx, tr *trace.T) {
	defer r.wg.Done()
	r.scanShard(i, mk, tr)
}

func (r *Result) scanShard(i int, mk func() *pram.Ctx, tr *trace.T) {
	sp := tr.StartSpan("shard", int64(i))
	c := mk()
	r.ctxs[i] = c
	h := &r.hits[i]
	matchSnapshot(c, r.snaps[i], r.enc, tr, i, h)
	// Marking runs on the shard's own task, while its arrays are still in
	// that core's cache.
	if !c.Canceled() {
		h.markHits(len(r.enc))
	}
	sp.End()
}

// markHits builds h.hit from the shard's live lengths: base.Pat[j] ≥ 0 on a
// clean hit, lens[j] > 0 otherwise.
func (h *shardHit) markHits(n int) {
	h.hit = pram.AcquireUint64((n + 63) >> 6)
	for w := range h.hit {
		j0 := w << 6
		j1 := min(j0+64, n)
		var m uint64
		if h.clean {
			for j, p := range h.base.Pat[j0:j1] {
				if p >= 0 {
					m |= 1 << (uint(j) & 63)
				}
			}
		} else {
			for j, l := range h.lens[j0:j1] {
				if l > 0 {
					m |= 1 << (uint(j) & 63)
				}
			}
		}
		h.hit[w] = m
	}
}

// merge writes Len and ID for the 64-position words lo..hi: it ORs the
// shards' hit bitmaps, clears the word's positions, and takes the S-way
// longest live match only at the positions some shard marked. On low-hit
// text that is a few words per 64 positions instead of S candidates at each.
func (r *Result) merge(lo, hi int) {
	n := len(r.enc)
	for w := lo; w < hi; w++ {
		j0 := w << 6
		j1 := min(j0+64, n)
		var m uint64
		for si := range r.hits {
			if h := &r.hits[si]; h.active {
				m |= h.hit[w]
			}
		}
		clear(r.Len[j0:j1])
		for j := j0; j < j1; j++ {
			r.ID[j] = -1
		}
		for ; m != 0; m &= m - 1 {
			j := j0 + bits.TrailingZeros64(m)
			bestLen, bestRef, bestShard := int32(0), int32(-1), -1
			for si := range r.hits {
				h := &r.hits[si]
				if !h.active {
					continue
				}
				if l, ref := h.lenRefAt(r.snaps[si], j); l > bestLen {
					bestLen, bestRef, bestShard = l, ref, si
				}
			}
			r.Len[j] = bestLen
			r.ID[j] = entryAt(r.snaps[bestShard], bestRef).ID
		}
	}
}

// entryAt resolves a ref (base index or encoded add index) to its Entry.
func entryAt(sn *snapshot, ref int32) Entry {
	if ref >= 0 {
		return sn.baseEnt[ref]
	}
	return sn.adds[-(ref + 2)]
}

// matchSnapshot matches the text against one immutable snapshot into h: the
// compiled base engine (Θ(n·log m_shard) work, Theorem 1/3, screened by the
// base's prefilter when one is installed), a per-position longest-live filter
// over the base result (deleted patterns skipped via the NextShorter chain),
// and a brute overlay pass for pending inserts — bounded by the
// reconciliation trigger, so the surcharge never exceeds a constant fraction
// of the base cost in steady state.
func matchSnapshot(c *pram.Ctx, sn *snapshot, enc []int32, tr *trace.T, si int, h *shardHit) {
	n := len(enc)
	h.active = true
	h.hasBase = sn.base != nil && sn.base.PatternCount() > 0
	// A clean snapshot (no pending adds or deletes — the steady state after
	// reconcile) needs no translation pass and no refs/lens arrays; the base
	// result is served as-is at frozen-engine speed.
	h.clean = h.hasBase && len(sn.adds) == 0 && len(sn.delBase) == 0

	if h.hasBase {
		bsp := tr.StartSpan("shard.base", int64(si))
		sn.base.MatchInto(c, enc, &h.base)
		bsp.End()
		if h.clean || c.Canceled() {
			return
		}
	}

	h.refs = pram.AcquireInt32(n)
	h.lens = pram.AcquireInt32(n)
	for j := range h.refs {
		h.refs[j] = -1
		h.lens[j] = 0
	}

	if h.hasBase {
		if len(sn.delBase) == 0 {
			c.ForChunk(n, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					if p := h.base.Pat[j]; p >= 0 {
						h.refs[j] = p
						h.lens[j] = sn.baseLen[p]
					}
				}
			})
		} else {
			// Walk each position's longest-first chain to the first pattern
			// not pending deletion.
			c.ForChunk(n, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					for p := h.base.Pat[j]; p >= 0; p = sn.base.NextShorter(p) {
						if !sn.delBase[p] {
							h.refs[j] = p
							h.lens[j] = sn.baseLen[p]
							break
						}
					}
				}
			})
		}
		if c.Canceled() {
			return
		}
	}

	if len(sn.adds) > 0 {
		osp := tr.StartSpan("shard.overlay", int64(si))
		adds, order := sn.adds, sn.addsDesc
		c.ForChunk(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				for _, ai := range order {
					p := adds[ai].Enc
					L := int32(len(p))
					if L <= h.lens[j] {
						break // only shorter candidates remain
					}
					if j+int(L) > n {
						continue
					}
					if symEqual(enc[j:j+int(L)], p) {
						h.refs[j] = -(ai + 2)
						h.lens[j] = L
						break
					}
				}
			}
		})
		// Charge the extra candidates beyond the one unit/position ForChunk
		// already counted, keeping the overlay surcharge visible in Work.
		if len(adds) > 1 {
			c.AddWork(int64(n) * int64(len(adds)-1))
		}
		osp.EndArg(int64(len(adds)))
	}
}

func symEqual(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Hit is one pattern occurrence reported by AllAt.
type Hit struct {
	ID  int32
	Raw []byte
	Len int32
}

// AllAt appends to dst every live pattern matching at position j, longest
// first (live patterns are distinct, so lengths strictly decrease), and
// returns the extended slice. It walks each shard's retained base chain
// (skipping pending deletions) plus the overlay adds.
func (r *Result) AllAt(j int, dst []Hit) []Hit {
	if r.Len[j] == 0 {
		return dst // no live pattern starts at j
	}
	start := len(dst)
	for si := range r.hits {
		h := &r.hits[si]
		if !h.active {
			continue
		}
		sn := r.snaps[si]
		if h.hasBase {
			for p := h.base.Pat[j]; p >= 0; p = sn.base.NextShorter(p) {
				if !sn.delBase[p] {
					e := sn.baseEnt[p]
					dst = append(dst, Hit{ID: e.ID, Raw: e.Raw, Len: int32(len(e.Enc))})
				}
			}
		}
		for _, ai := range sn.addsDesc {
			p := sn.adds[ai].Enc
			if j+len(p) <= len(r.enc) && symEqual(r.enc[j:j+len(p)], p) {
				e := sn.adds[ai]
				dst = append(dst, Hit{ID: e.ID, Raw: e.Raw, Len: int32(len(e.Enc))})
			}
		}
	}
	out := dst[start:]
	// Cross-shard merge: lengths are unique across live patterns, so a simple
	// insertion sort by descending length yields the longest-first order.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Len > out[k-1].Len; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return dst
}
