package prefilter

import "math/bits"

// Exact q-gram prefix screen: the second stage behind the wide kernel.
//
// Patterns fall into Classes length classes, 1, 2–3, 4–7 and ≥ 8 symbols;
// class k fingerprints the first KeyLen[k] symbols of each of its patterns
// (its minimum length) with a Karp–Rabin hash and sets the fingerprint's bit
// in the class's power-of-two bitset. RefineWords keeps a candidate position
// j only when, for some class k, the fingerprint of text[j : j+KeyLen[k]]
// hits a set bit. Fingerprints are of exact symbols, not folded bytes, so on
// large alphabets and many-pattern dictionaries, where the wide screen's
// eight buckets accept nearly every byte, this stage still separates (cf.
// Fischer, Gagie, Gawrychowski and Kociumaka, arXiv 1504.06647, who screen
// multiple patterns by Karp–Rabin fingerprints of their prefixes).
//
// # Soundness
//
// If pattern p of class k matches at j, then j+len(p) ≤ n, so
// text[j : j+KeyLen[k]] is inside the text and equals p's prefix; the two
// fingerprints are equal and the bit p set is read back. The stage therefore
// never drops a true match start: it is one-sided, like the wide screen, and
// the intersection of two one-sided screens is one-sided (a true start is in
// both survivor sets, hence in their intersection). Collisions, in the
// fingerprint or in the bitset, only keep false positives, which the cascade
// rejects.

// Classes is the number of pattern length classes.
const Classes = 4

// KeyLen[k] is class k's minimum pattern length: the number of leading
// symbols the class fingerprints.
var KeyLen = [Classes]int{1, 2, 4, 8}

// maxQGram is the longest key, KeyLen[Classes-1].
const maxQGram = 8

// ClassOf returns the length class of a pattern of n ≥ 1 symbols.
func ClassOf(n int) int {
	switch {
	case n >= 8:
		return 3
	case n >= 4:
		return 2
	case n >= 2:
		return 1
	}
	return 0
}

// KRRadix is the Karp–Rabin radix of the prefix screen (arithmetic is mod
// 2^64; a collision only keeps a false positive).
const KRRadix = 0x9E3779B97F4A7C15

// qgramMixer spreads a fingerprint over the bits of a class bitset.
const qgramMixer = 0xBF58476D1CE4E5B9

// KR is a Karp–Rabin fingerprint over int32 symbols for the length classes:
// Hash(s) = Σ s[i]·radix^(len(s)-1-i) mod 2^64.
type KR struct {
	radix uint64
	pow   [Classes]uint64 // radix^KeyLen[k]: the weight Roll takes out
}

// NewKR returns the fingerprint with the given radix.
func NewKR(radix uint64) KR {
	kr := KR{radix: radix}
	for k, L := range KeyLen {
		kr.pow[k] = 1
		for i := 0; i < L; i++ {
			kr.pow[k] *= radix
		}
	}
	return kr
}

// Hash returns the fingerprint of s.
func (kr *KR) Hash(s []int32) uint64 {
	var h uint64
	for _, x := range s {
		h = h*kr.radix + uint64(x)
	}
	return h
}

// Roll slides a class-k fingerprint one symbol right: out leaves, in enters.
func (kr *KR) Roll(h uint64, k int, out, in int32) uint64 {
	return h*kr.radix + uint64(in) - uint64(out)*kr.pow[k]
}

// qgramClass is one length class's prefix bitset.
type qgramClass struct {
	set   []uint64 // nil when the class holds no pattern
	shift uint     // 64 - log2(bits in set)
	keys  int      // patterns in the class
}

func (c *qgramClass) slot(h uint64) uint64 { return (h * qgramMixer) >> c.shift }

func (c *qgramClass) has(h uint64) bool {
	i := c.slot(h)
	return c.set[i>>6]&(1<<(i&63)) != 0
}

// qgram is the prefix screen of a pattern set.
type qgram struct {
	kr  KR
	cls [Classes]qgramClass
	// maxQ is the longest key among classes holding a pattern: a position
	// reads at most maxQ symbols.
	maxQ int
}

// buildQGram fills the class bitsets. Each class's bitset has the largest
// power-of-two bit count not above 64 per pattern (8 B per pattern), so more
// than 32 bits per pattern: its occupancy stays below 1/32 whatever the
// dictionary size.
func (f *Filter) buildQGram(patterns [][]int32) {
	q := &f.qg
	q.kr = NewKR(KRRadix)
	for _, p := range patterns {
		q.cls[ClassOf(len(p))].keys++
	}
	for k := range q.cls {
		c := &q.cls[k]
		if c.keys == 0 {
			continue
		}
		lg := uint(bits.Len(uint(64*c.keys)) - 1)
		c.set = make([]uint64, 1<<lg>>6)
		c.shift = 64 - lg
		q.maxQ = KeyLen[k]
	}
	for _, p := range patterns {
		k := ClassOf(len(p))
		c := &q.cls[k]
		i := c.slot(q.kr.Hash(p[:KeyLen[k]]))
		c.set[i>>6] |= 1 << (i & 63)
	}
}

// hits reports whether some class's fingerprint of a prefix of s (the text
// from a position on, cut to at most maxQ symbols) hits its bitset. The
// class fingerprints are successive Horner prefixes of one pass over s.
func (q *qgram) hits(s []int32) bool {
	var h uint64
	i := 0
	for k := range q.cls {
		L := KeyLen[k]
		if L > len(s) {
			return false
		}
		for ; i < L; i++ {
			h = h*q.kr.radix + uint64(s[i])
		}
		if c := &q.cls[k]; c.set != nil && c.has(h) {
			return true
		}
	}
	return false
}

// denseWord is the survivor count from which RefineWords screens a word's
// 64 positions branch-free from one prefix-fingerprint array instead of
// fingerprinting each survivor on its own.
const denseWord = 16

// RefineWords intersects the candidate words out[wlo:whi] with the q-gram
// prefix screen: a set bit stays set only when its position passes the
// screen. Zero words are not touched, and each word is rewritten whole, so
// disjoint word ranges may be refined concurrently. It is meant to run on
// the output of ScanWordsWide; the result is a subset of its input and keeps
// every true match start.
func (f *Filter) RefineWords(text []int32, out []uint64, wlo, whi int) {
	q := &f.qg
	n := len(text)
	for w := wlo; w < whi; w++ {
		word := out[w]
		if word == 0 {
			continue
		}
		base := w << 6
		if bits.OnesCount64(word) >= denseWord {
			out[w] = word & q.wordHits(text, base)
			continue
		}
		keep := word
		for m := word; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			j := base + b
			if !q.hits(text[j:min(j+q.maxQ, n)]) {
				keep &^= 1 << uint(b)
			}
		}
		out[w] = keep
	}
}

// wordHits returns the positions of the word starting at base that pass the
// screen, one bit each. With H[i] the fingerprint of text[base : base+i],
// the fingerprint of text[j : j+L] is H[j-base+L] - H[j-base]·radix^L, so
// one Horner pass over the word serves every class, and each class probe is
// independent of the others.
func (q *qgram) wordHits(text []int32, base int) uint64 {
	var H [64 + maxQGram]uint64
	end := min(len(text)-base, 64+q.maxQ-1)
	for i := 0; i < end; i++ {
		H[i+1] = H[i]*q.kr.radix + uint64(text[base+i])
	}
	var hit uint64
	for k := range q.cls {
		c := &q.cls[k]
		if c.set == nil {
			continue
		}
		L, pw := KeyLen[k], q.kr.pow[k]
		lim := min(64, end-L+1) // positions whose class-k key fits
		for b := 0; b < lim; b++ {
			i := c.slot(H[b+L] - H[b]*pw)
			hit |= (c.set[i>>6] >> (i & 63) & 1) << uint(b)
		}
	}
	return hit
}

// EstimatedPassRateQGram estimates the fraction of random byte positions
// the q-gram stage passes: by union bound over the classes, the chance a
// random q-gram is one of the class's keys (keys/256^q) plus the class
// bitset's occupancy (the chance a non-key collides with a set bit).
func (f *Filter) EstimatedPassRateQGram() float64 {
	total := 0.0
	for k := range f.qg.cls {
		c := &f.qg.cls[k]
		if c.set == nil {
			continue
		}
		grams := 1.0
		for i := 0; i < KeyLen[k]; i++ {
			grams *= 256
		}
		ones := 0
		for _, w := range c.set {
			ones += bits.OnesCount64(w)
		}
		total += float64(c.keys)/grams + float64(ones)/float64(64*len(c.set))
	}
	return min(total, 1)
}
