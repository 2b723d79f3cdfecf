package core

import (
	"math/bits"
	"sync"

	"pardict/internal/naming"
	"pardict/internal/obs"
	"pardict/internal/pram"
)

// Result holds the per-position output of static dictionary matching on one
// text (§4: Step 1 prefix-matching plus Step 2 longest-pattern resolution).
type Result struct {
	// Len[j] is the length of the longest dictionary prefix matching at j.
	Len []int32
	// Name[j] is that prefix's name (naming.Empty when Len[j] == 0).
	Name []int32
	// Pat[j] is the index of the longest pattern matching at j, or -1.
	Pat []int32
}

// Release returns the result's arrays to the slab pools. The caller must not
// use r (or any slice read from it) afterwards. Optional: unreleased results
// are ordinary garbage.
func (r *Result) Release() {
	pram.ReleaseInt32(r.Len)
	pram.ReleaseInt32(r.Name)
	pram.ReleaseInt32(r.Pat)
	r.Len, r.Name, r.Pat = nil, nil, nil
}

// sizedI32 resizes s to length n, reusing its storage when the capacity
// suffices and trading it back to the slab pools otherwise.
func sizedI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	pram.ReleaseInt32(s)
	return pram.AcquireInt32(n)
}

// matchState is the pooled per-match scratch of the hot scan path. Its phase
// bodies are closures created ONCE (in newMatchState, bound to the state
// pointer) and reused for every match the state serves, so a warmed match
// performs no per-phase closure allocations; the per-phase parameters travel
// through the state's fields, which is safe because phases of one match are
// sequential.
type matchState struct {
	d    *Dict
	r    *Result
	n    int
	syms [][]int32

	// Per-phase parameters (set immediately before the phase that reads them).
	half      int            // spawn: 2^(k-1)
	step      int            // unwind: 2^k
	up        *naming.Frozen // spawn: shrink table of the current level
	down      *naming.Frozen // unwind: Extend-Right table of the current level
	prev, cur []int32        // spawn: source and destination symbol arrays
	level     []int32        // unwind: symbol array of the current level
	needed    []uint64       // spawn: dilated candidate words (nil = all)
	cand      []uint64       // unwind: candidate bits (nil = all)

	initFn, patFn, spawnFn, unwindFn, finalFn, scanFn func(lo, hi int)
}

func newMatchState() *matchState {
	ms := &matchState{syms: make([][]int32, 0, 32)}
	ms.initFn = func(lo, hi int) {
		r := ms.r
		for j := lo; j < hi; j++ {
			r.Name[j] = naming.Empty
			r.Len[j] = 0
		}
	}
	ms.patFn = func(lo, hi int) {
		pat := ms.r.Pat
		for j := lo; j < hi; j++ {
			pat[j] = -1
		}
	}
	ms.spawnFn = func(lo, hi int) {
		n, half := ms.n, ms.half
		prev, cur, up, needed := ms.prev, ms.cur, ms.up, ms.needed
		for j := lo; j < hi; {
			end := (j | 63) + 1
			if end > hi {
				end = hi
			}
			if needed != nil && needed[j>>6] == 0 {
				// Dead block: leave cur untouched. The dilation invariant (see
				// matchFiltered) guarantees no candidate's cascade ever reads a
				// position outside the dilated region, so whatever the pooled
				// array holds here is unobservable.
				j = end
				continue
			}
			for ; j < end; j++ {
				if j+2*half > n {
					cur[j] = naming.None
					continue
				}
				a, b := prev[j], prev[j+half]
				if a == naming.None || b == naming.None {
					cur[j] = naming.None
					continue
				}
				cur[j] = up.Lookup(naming.EncodePair(a, b))
			}
		}
	}
	ms.unwindFn = func(lo, hi int) {
		n, step := ms.n, ms.step
		r, level, down, cand := ms.r, ms.level, ms.down, ms.cand
		for j := lo; j < hi; {
			end := (j | 63) + 1
			if end > hi {
				end = hi
			}
			var w uint64 = ^uint64(0)
			if cand != nil {
				w = cand[j>>6]
				if w == 0 {
					j = end
					continue
				}
			}
			for ; j < end; j++ {
				if cand != nil && w&(1<<uint(j&63)) == 0 {
					continue
				}
				l := int(r.Len[j])
				pos := j + l
				if pos+step > n {
					continue
				}
				b := level[pos]
				if b == naming.None {
					continue
				}
				if v, ok := down.Get(naming.EncodePair(r.Name[j], b)); ok {
					r.Len[j] = int32(l + step)
					r.Name[j] = v
				}
			}
		}
	}
	ms.finalFn = func(lo, hi int) {
		r, lp := ms.r, ms.d.lp
		for j := lo; j < hi; j++ {
			if name := r.Name[j]; name != naming.Empty {
				r.Pat[j] = lp[name]
			}
		}
	}
	ms.scanFn = func(wlo, whi int) {
		f, text := ms.d.filter, ms.syms[0]
		if ms.d.filterWide {
			// Two-stage screen: the q-gram prefix screen refines the wide
			// kernel's survivors; both are one-sided, so their intersection
			// is too.
			f.ScanWordsWide(text, ms.cand, wlo, whi)
			f.RefineWords(text, ms.cand, wlo, whi)
		} else {
			f.ScanWords(text, ms.cand, wlo, whi)
		}
	}
	return ms
}

var msPool = sync.Pool{New: func() any { return newMatchState() }}

func acquireState(d *Dict, r *Result, text []int32) *matchState {
	ms := msPool.Get().(*matchState)
	ms.d, ms.r, ms.n = d, r, len(text)
	if cap(ms.syms) < d.levels {
		ms.syms = make([][]int32, d.levels)
	}
	ms.syms = ms.syms[:d.levels]
	for k := range ms.syms {
		ms.syms[k] = nil
	}
	if d.levels > 0 {
		ms.syms[0] = text
	}
	return ms
}

// release returns the level arrays (except level 0, which aliases the
// caller's text) to the slab pools and the state to its pool.
func (ms *matchState) release() {
	for k := 1; k < len(ms.syms); k++ {
		pram.ReleaseInt32(ms.syms[k])
		ms.syms[k] = nil
	}
	if len(ms.syms) > 0 {
		ms.syms[0] = nil
	}
	ms.d, ms.r = nil, nil
	ms.up, ms.down = nil, nil
	ms.prev, ms.cur, ms.level = nil, nil, nil
	ms.needed, ms.cand = nil, nil
	msPool.Put(ms)
}

// spawn computes the level-k symbol arrays (the spawn half of
// shrink-and-spawn): syms[k][j] names T[j .. j+2^k−1], or naming.None when
// that substring does not occur block-aligned in any pattern. When needed is
// non-nil, only positions in 64-blocks with a nonzero needed word are
// computed and the rest are left untouched; the caller dilates the region so
// every position a needed position's lookups read (directly at this level or
// transitively at finer ones) is itself needed — values inside the region
// are exact, values outside it are never read. Charges are those of the
// unfiltered spawn.
func (ms *matchState) spawn(c *pram.Ctx, needed []uint64) {
	d, n := ms.d, ms.n
	ms.needed = needed
	for k := 1; k < d.levels; k++ {
		if c.Canceled() {
			break
		}
		c.LabelLevel(k) // attribute this level's phase in CPU profiles
		ms.prev = ms.syms[k-1]
		ms.cur = sizedI32(ms.syms[k], n)
		ms.syms[k] = ms.cur
		ms.half = 1 << uint(k-1)
		ms.up = d.up[k]
		c.ForChunk(n, ms.spawnFn)
	}
}

// unwind performs the Extend-Right cascade (§4.1 Step 3): descending the
// levels, each position's match grows by 2^k or stays, via one down[k]
// lookup. The §4.1 guarantee — if no shrunk prefix of length t+1 matches, no
// original prefix of length 2t+2 matches — makes the single probe per level
// sufficient. A non-nil cand restricts the cascade to candidate positions
// (bit j of cand[j/64]); each position's state is independent, so skipping a
// position only suppresses its own outputs. Charges are those of the
// unfiltered unwind.
func (ms *matchState) unwind(c *pram.Ctx, cand []uint64) {
	d, n := ms.d, ms.n
	ms.cand = cand
	for k := d.levels - 1; k >= 0; k-- {
		if c.Canceled() {
			break
		}
		c.LabelLevel(k) // attribute this level's phase in CPU profiles
		ms.step = 1 << uint(k)
		ms.down = d.down[k]
		ms.level = ms.syms[k]
		c.ForChunk(n, ms.unwindFn)
	}
}

// Match finds, for every text position, the longest dictionary prefix and
// the longest pattern beginning there (Theorem 1/3 text processing:
// O(n·log m) work, O(log m) depth on the instrumented counters). When the
// dictionary has a prefilter enabled (see EnablePrefilter) the scan skips
// positions the filter screens out; outputs at skipped positions report "no
// match" (sound for Pat — the filter never screens a true match — but Len
// and Name are then lower bounds only, which is why the public API withholds
// prefix lengths on filtered matchers).
func (d *Dict) Match(c *pram.Ctx, text []int32) *Result {
	r := &Result{}
	d.MatchInto(c, text, r)
	return r
}

// MatchInto is Match writing into r, reusing r's arrays when their capacity
// suffices — together with the pooled internal scratch, the allocation-free
// steady-state entry point.
func (d *Dict) MatchInto(c *pram.Ctx, text []int32, r *Result) {
	n := len(text)
	r.Len = sizedI32(r.Len, n)
	r.Name = sizedI32(r.Name, n)
	r.Pat = sizedI32(r.Pat, n)
	ms := acquireState(d, r, text)
	defer ms.release()
	// Two n/1-charged phases initialize the outputs — the same Fill(Name) and
	// Fill(Pat) charges the engine always made; Len's zeroing rides in the
	// first (it historically relied on make zeroing, which pooled buffers do
	// not provide).
	c.ForChunk(n, ms.initFn)
	c.ForChunk(n, ms.patFn)
	if n == 0 || d.maxLen == 0 {
		return
	}

	if d.filter != nil {
		d.matchFiltered(c, ms)
	} else {
		ms.spawn(c, nil)
		ms.unwind(c, nil)
	}

	c.ForChunk(n, ms.finalFn)
}

// matchFiltered runs the prefilter screen and then the cascade restricted to
// surviving positions. The screen and its bookkeeping execute as uncounted
// phases (pram.ForChunkUncounted): the counted Work/Depth of a filtered
// match is byte-identical to the unfiltered one, and filter effectiveness is
// reported through the scheduler statistics instead (Ctx.NotePrefilter).
func (d *Dict) matchFiltered(c *pram.Ctx, ms *matchState) {
	n := ms.n
	words := (n + 63) >> 6
	cand := pram.AcquireUint64(words)
	ms.cand = cand
	c.ForChunkUncounted(words, ms.scanFn)

	// Dilate the candidate words rightward so the spawn levels compute every
	// position a candidate's cascade can read: position j reads syms values
	// up to j + maxLen (cascade extension) plus the transitive right-spread
	// of the spawn recursion (at most 2^levels). Working at 64-position
	// block granularity, dw blocks cover that reach.
	dil := pram.AcquireUint64(words)
	dw := (d.maxLen+(1<<uint(d.levels)))>>6 + 1
	last := -(dw + 1)
	for w := 0; w < words; w++ {
		if cand[w] != 0 {
			last = w
		}
		if w-last <= dw {
			dil[w] = 1
		} else {
			dil[w] = 0
		}
	}

	if obs.Enabled() {
		alive := 0
		for _, w := range cand {
			alive += bits.OnesCount64(w)
		}
		c.NotePrefilter(int64(n), int64(n-alive))
	}

	ms.spawn(c, dil)
	ms.unwind(c, cand)
	pram.ReleaseUint64(cand)
	pram.ReleaseUint64(dil)
}

// SpawnText computes the level-k symbol arrays for the text: syms[k][j]
// names T[j .. j+2^k−1] under the dictionary's naming function, or
// naming.None when that substring does not occur block-aligned in any
// pattern. This is the spawn half of shrink-and-spawn: the level-k spawned
// copies of §3.1 are the stride-2^k subsequences of syms[k]. The returned
// arrays are the caller's to keep (they are not pooled).
func (d *Dict) SpawnText(c *pram.Ctx, text []int32) [][]int32 {
	ms := acquireState(d, nil, text)
	ms.spawn(c, nil)
	syms := make([][]int32, len(ms.syms))
	copy(syms, ms.syms)
	// Detach the level arrays from the pool: the caller owns them now.
	for k := range ms.syms {
		ms.syms[k] = nil
	}
	ms.syms = ms.syms[:0]
	ms.d, ms.r = nil, nil
	ms.up, ms.prev, ms.cur, ms.needed = nil, nil, nil, nil
	msPool.Put(ms)
	return syms
}

// MatchLongestPrefix runs only Step 1 (static prefix-matching, Theorem 1):
// the longest dictionary prefix per position, without pattern resolution.
// It never consults the prefilter: prefix-matching output is exact at every
// position regardless of configuration.
func (d *Dict) MatchLongestPrefix(c *pram.Ctx, text []int32) *Result {
	n := len(text)
	r := &Result{Len: pram.AcquireInt32(n), Name: pram.AcquireInt32(n)}
	ms := acquireState(d, r, text)
	defer ms.release()
	c.ForChunk(n, ms.initFn)
	if n == 0 || d.maxLen == 0 {
		return r
	}
	ms.spawn(c, nil)
	ms.unwind(c, nil)
	return r
}

// AllMatches appends to dst the indices of every pattern matching at
// position j of a Result, longest first, and returns the extended slice
// (output-sensitive all-matches expansion; see DESIGN.md §2 on interval
// allocation).
func (d *Dict) AllMatches(r *Result, j int, dst []int32) []int32 {
	for p := r.Pat[j]; p >= 0; p = d.nextShort[p] {
		dst = append(dst, p)
	}
	return dst
}
