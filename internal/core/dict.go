// Package core implements the paper's primary contribution: static
// dictionary matching (and its prefix-matching heart) via the recursive
// shrink-and-spawn technique with shrink parameter L = 2 (§4.1–§4.3,
// Theorems 1–3 of Muthukrishnan & Palem, SPAA 1993).
//
// # How the recursion is laid out
//
// The recursion of §4.1 is materialized as two table families indexed by
// level k (block length 2^k):
//
//   - up[k] is the shrink table: it names the non-overlapping length-2 pairs
//     of level-(k−1) symbols that occur block-aligned in some pattern
//     (pairName = the level-k "symbol"). Applying up[1..k] to the text at
//     every offset is the spawn side: the level-k symbol at text position j
//     names T[j .. j+2^k−1], and the k-th spawned copies of §3.1 are exactly
//     the stride-2^k subsequences of that array.
//
//   - down[k] is the incremental Extend-Right table of §4.1: for every
//     pattern prefix whose length l has ctz(l) = k, it maps
//     ⟨prefixName(l−2^k), blockName⟩ → prefixName(l). Unwinding the recursion
//     performs exactly one down[k] lookup per text position per level: the
//     recursion guarantees the longest match grows by either 0 or 2^k at
//     level k.
//
// Prefix names are the paper's prefix-naming (§3.3): allocated densely in
// [0, NameCount), globally unique per (content, length), with naming.Empty
// for the empty prefix. Step 2 of §4 (longest pattern from longest prefix)
// becomes the lp array: name → index of the longest pattern that is a prefix
// of the named prefix.
//
// Preprocessing performs O(M) work in O(log m) depth; matching a text of
// size n performs O(n·log m) work in O(log m) depth — the Theorem 1/3
// bounds, which the instrumented pram.Ctx counters verify empirically.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pardict/internal/naming"
	"pardict/internal/pram"
	"pardict/internal/prefilter"
)

// ErrEmptyPattern reports a zero-length pattern in the dictionary.
var ErrEmptyPattern = errors.New("core: empty pattern")

// DuplicateError reports two identical patterns in the dictionary; the paper
// requires the dictionary to be a set of distinct strings.
type DuplicateError struct {
	First, Second int // pattern indices
}

func (e *DuplicateError) Error() string {
	return fmt.Sprintf("core: patterns %d and %d are identical", e.First, e.Second)
}

// Dict is a preprocessed static dictionary. It is immutable after
// Preprocess and safe for concurrent Match calls.
type Dict struct {
	patterns [][]int32 // encoded patterns (level-0 symbols)
	maxLen   int       // m: length of the longest pattern
	levels   int       // number of block levels: smallest K with maxLen < 2^K

	up   []*naming.Frozen // up[k], k in [1, levels): (childA, childB) -> level-k block name
	down []*naming.Frozen // down[k], k in [0, levels): (prefName(l-2^k), block) -> prefName(l)

	pn        [][]int32 // pn[i][l-1] = prefix name of P_i(1..l)
	nameCount int       // total prefix names allocated

	lenOfName []int32 // name -> prefix length
	repPat    []int32 // name -> representative pattern index
	patOfName []int32 // name -> pattern index if the prefix is a full pattern, else -1
	lp        []int32 // name -> longest pattern that is a prefix of this prefix, or -1
	nextShort []int32 // pattern -> next shorter pattern that is a proper prefix, or -1
	patNames  []int32 // pattern -> its full-prefix name

	// filter, when non-nil, screens text positions before the cascade (see
	// EnablePrefilter). Execution-layer only: never part of Work/Depth.
	filter *prefilter.Filter
	// filterWide selects the wide-lane (8 positions/step, folded 8-bit
	// bucket) kernel over the scalar SWAR screen. The wide kernel admits a
	// superset of the scalar survivors (folding merges buckets mod 8), so
	// it is interchangeable at the output level: both are one-sided, and
	// the cascade verifies every survivor.
	filterWide bool

	// Lazily built map-table baseline for the E15 hot-path experiment.
	mapOnce sync.Once
	mapBase *mapDict
}

// EnablePrefilter builds and installs the bit-parallel rare-byte prefilter
// for subsequent Match/MatchInto calls. Filtered matches report no-match at
// screened positions, which is exact for Pat (the filter admits every true
// pattern start) but makes Len/Name lower bounds; MatchLongestPrefix is
// never filtered. Call before sharing the Dict across goroutines.
func (d *Dict) EnablePrefilter() {
	d.filter = prefilter.Build(d.patterns)
	d.filterWide = false
}

// EnablePrefilterWide is EnablePrefilter selecting the wide-lane kernel:
// eight text positions screened per step against folded 8-bit bucket masks
// (prefilter.ScanWordsWide). Output and Work/Depth are identical to the
// scalar filter — the wide screen passes a superset of the scalar survivors
// and the cascade rejects every false positive — only wall clock changes.
func (d *Dict) EnablePrefilterWide() {
	d.filter = prefilter.Build(d.patterns)
	d.filterWide = d.filter != nil
}

// DisablePrefilter removes an installed prefilter.
func (d *Dict) DisablePrefilter() {
	d.filter = nil
	d.filterWide = false
}

// Filtered reports whether a prefilter is installed, and if so its estimated
// pass rate on random byte text (a planning figure for the Auto mode). For a
// wide filter the estimate is that of the folded tables the wide kernel
// actually consults.
func (d *Dict) Filtered() (bool, float64) {
	if d.filter == nil {
		return false, 1
	}
	if d.filterWide {
		return true, d.filter.EstimatedPassRateWide()
	}
	return true, d.filter.EstimatedPassRate()
}

// FilterWide reports whether the installed prefilter uses the wide-lane
// kernel.
func (d *Dict) FilterWide() bool { return d.filter != nil && d.filterWide }

// PatternCount reports the number of patterns.
func (d *Dict) PatternCount() int { return len(d.patterns) }

// MaxLen reports m, the length of the longest pattern (0 for an empty
// dictionary).
func (d *Dict) MaxLen() int { return d.maxLen }

// NameCount reports the number of distinct dictionary prefixes (= allocated
// prefix names).
func (d *Dict) NameCount() int { return d.nameCount }

// Levels reports the recursion depth ⌈log2(m+1)⌉ used by the engine.
func (d *Dict) Levels() int { return d.levels }

// Pattern returns the encoded pattern at index i.
func (d *Dict) Pattern(i int) []int32 { return d.patterns[i] }

// PrefixName returns the name of P_i(1..l); l must be in [1, len(P_i)].
func (d *Dict) PrefixName(i, l int) int32 { return d.pn[i][l-1] }

// NameLen returns the prefix length encoded by name.
func (d *Dict) NameLen(name int32) int32 {
	if name == naming.Empty {
		return 0
	}
	return d.lenOfName[name]
}

// Preprocess builds the dictionary structure from encoded patterns
// (Theorem 3 dictionary processing: O(M) work, O(log m) depth).
func Preprocess(c *pram.Ctx, patterns [][]int32) (*Dict, error) {
	d := &Dict{patterns: patterns}
	for _, p := range patterns {
		if len(p) == 0 {
			return nil, ErrEmptyPattern
		}
		if len(p) > d.maxLen {
			d.maxLen = len(p)
		}
	}
	if d.maxLen == 0 {
		return d, nil // empty dictionary: matches nothing
	}
	d.levels = bits.Len(uint(d.maxLen)) // smallest K with maxLen < 2^K

	blocks := d.upsweep(c, patterns)
	d.downsweep(c, patterns, blocks)
	if err := d.indexPatterns(c); err != nil {
		return nil, err
	}
	return d, nil
}

// upsweep builds the shrink tables up[k] and returns the per-level aligned
// block names: blocks[k][i][t] names P_i[t·2^k .. (t+1)·2^k − 1].
func (d *Dict) upsweep(c *pram.Ctx, patterns [][]int32) [][][]int32 {
	np := len(patterns)
	blocks := make([][][]int32, d.levels)
	blocks[0] = patterns
	d.up = make([]*naming.Frozen, d.levels)

	for k := 1; k < d.levels; k++ {
		prev := blocks[k-1]
		// Offsets of each pattern's pairs in the flattened key array.
		counts := make([]int, np+1)
		c.For(np, func(i int) { counts[i] = len(prev[i]) / 2 })
		total := c.ExclusiveScanInt(counts[:np])
		counts[np] = total

		keys := make([]uint64, total)
		c.For(np, func(i int) {
			base := counts[i]
			row := prev[i]
			for t := 0; t+1 < len(row); t += 2 {
				keys[base+t/2] = naming.EncodePair(row[t], row[t+1])
			}
		})
		names, _ := naming.BatchName(c, keys)
		d.up[k] = naming.Freeze(c, naming.BuildTable(c, keys, names))

		cur := make([][]int32, np)
		c.For(np, func(i int) {
			cur[i] = names[counts[i]:counts[i+1]:counts[i+1]]
		})
		blocks[k] = cur
	}
	return blocks
}

// downsweep allocates prefix names and builds the Extend-Right tables
// down[k], processing levels from coarse to fine so that every key's
// left component is already named.
func (d *Dict) downsweep(c *pram.Ctx, patterns [][]int32, blocks [][][]int32) {
	np := len(patterns)
	d.pn = make([][]int32, np)
	c.For(np, func(i int) { d.pn[i] = make([]int32, len(patterns[i])) })
	d.down = make([]*naming.Frozen, d.levels)

	var lenOf []int32
	var repP []int32

	for k := d.levels - 1; k >= 0; k-- {
		step := 1 << uint(k)
		// Lengths handled at this level: l = (2j+1)·2^k ≤ len_i.
		counts := make([]int, np+1)
		c.For(np, func(i int) {
			li := len(patterns[i])
			if li < step {
				counts[i] = 0
				return
			}
			counts[i] = (li/step + 1) / 2
		})
		total := c.ExclusiveScanInt(counts[:np])
		counts[np] = total
		if total == 0 {
			d.down[k] = naming.Freeze(c, naming.NewTable(c))
			continue
		}

		keys := make([]uint64, total)
		entryPat := make([]int32, total)
		entryLen := make([]int32, total)
		c.For(np, func(i int) {
			base := counts[i]
			li := len(patterns[i])
			e := 0
			for l := step; l <= li; l += 2 * step {
				var prev int32 = naming.Empty
				if l-step > 0 {
					prev = d.pn[i][l-step-1]
				}
				blk := blocks[k][i][(l-step)/step]
				keys[base+e] = naming.EncodePair(prev, blk)
				entryPat[base+e] = int32(i)
				entryLen[base+e] = int32(l)
				e++
			}
		})

		names, reps, distinct := naming.BatchNameRep(c, keys)
		base := int32(len(lenOf))
		c.For(total, func(e int) {
			i := entryPat[e]
			l := entryLen[e]
			d.pn[i][l-1] = base + names[e]
		})
		vals := make([]int32, total)
		c.For(total, func(e int) { vals[e] = base + names[e] })
		d.down[k] = naming.Freeze(c, naming.BuildTable(c, keys, vals))

		newLen := make([]int32, distinct)
		newRep := make([]int32, distinct)
		c.For(distinct, func(id int) {
			r := reps[id]
			newLen[id] = entryLen[r]
			newRep[id] = entryPat[r]
		})
		lenOf = append(lenOf, newLen...)
		repP = append(repP, newRep...)
	}
	d.lenOfName = lenOf
	d.repPat = repP
	d.nameCount = len(lenOf)
}

// indexPatterns implements §4.2: mark which prefixes are full patterns, then
// resolve for every prefix name the longest pattern that is its prefix, plus
// the proper-prefix chain used for all-matches output. Work O(M); the
// nearest-mark scan is the paper's "nearest 1 to the left" (depth O(log m)
// on a PRAM; we charge that depth explicitly for the per-pattern scans).
func (d *Dict) indexPatterns(c *pram.Ctx) error {
	np := len(d.patterns)
	d.patOfName = make([]int32, d.nameCount)
	d.lp = make([]int32, d.nameCount)
	pram.Fill(c, d.patOfName, -1)
	pram.Fill(c, d.lp, -1)

	d.patNames = make([]int32, np)
	var dup *DuplicateError
	// Sequential: duplicate detection must pick a deterministic witness.
	for i := 0; i < np; i++ {
		full := d.pn[i][len(d.patterns[i])-1]
		if prev := d.patOfName[full]; prev >= 0 {
			if dup == nil {
				dup = &DuplicateError{First: int(prev), Second: i}
			}
			continue
		}
		d.patOfName[full] = int32(i)
		d.patNames[i] = full
	}
	c.AddWork(int64(np))
	c.AddDepth(1)
	if dup != nil {
		return dup
	}

	// Longest-pattern-prefix per name via per-pattern left-to-right scans.
	// Writers racing on a shared prefix write identical values (equal
	// content ⇒ equal chain), the benign concurrent write of the CRCW model;
	// the stores are atomic so that Go's memory model agrees.
	c.For(np, func(i int) {
		carry := int32(-1)
		row := d.pn[i]
		for l := 1; l <= len(row); l++ {
			name := row[l-1]
			if p := d.patOfName[name]; p >= 0 {
				carry = p
			}
			atomic.StoreInt32(&d.lp[name], carry)
		}
	})
	c.AddWork(int64(d.totalSize()) - int64(np))
	// The PRAM performs this as a segmented max-scan of depth O(log m).
	c.AddDepth(int64(bits.Len(uint(d.maxLen))))

	// nextShort: for each pattern, the longest pattern that is a proper
	// prefix of it (the §4.2 chain, used for all-matches expansion).
	d.nextShort = make([]int32, np)
	c.For(np, func(i int) {
		if len(d.patterns[i]) == 1 {
			d.nextShort[i] = -1
			return
		}
		d.nextShort[i] = d.lp[d.pn[i][len(d.patterns[i])-2]]
	})
	return nil
}

func (d *Dict) totalSize() int {
	t := 0
	for _, p := range d.patterns {
		t += len(p)
	}
	return t
}

// TotalSize reports M, the sum of pattern lengths.
func (d *Dict) TotalSize() int { return d.totalSize() }

// LongestPatternOf returns the index of the longest pattern that is a prefix
// of the prefix identified by name, or -1.
func (d *Dict) LongestPatternOf(name int32) int32 {
	if name == naming.Empty || name < 0 {
		return -1
	}
	return d.lp[name]
}

// NextShorter returns the longest pattern that is a proper prefix of pattern
// pat, or -1. Iterating NextShorter from a match yields, in decreasing
// length order, every pattern matching at that position (the all-matches
// output format of §2, produced output-sensitively).
func (d *Dict) NextShorter(pat int32) int32 { return d.nextShort[pat] }
