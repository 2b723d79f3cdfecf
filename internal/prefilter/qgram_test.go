package prefilter

import (
	"math/rand"
	"testing"
)

// TestRefineWordsExact checks RefineWords bit for bit against the screen's
// definition, on dense words (the prefix-array path) and sparse ones (the
// per-survivor path): a bit stays set iff some class holding a pattern has
// its key inside the text at that position and the key's fingerprint hits
// the class bitset.
func TestRefineWordsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		sigma := []int32{2, 4, 26, 256, 4096}[trial%5]
		var pats [][]int32
		for i := 1 + rng.Intn(300); i > 0; i-- {
			p := make([]int32, 1+rng.Intn(12))
			for k := range p {
				p[k] = rng.Int31n(sigma)
			}
			pats = append(pats, p)
		}
		text := make([]int32, 1+rng.Intn(700))
		for i := range text {
			text[i] = rng.Int31n(sigma)
		}
		for k := rng.Intn(20); k > 0; k-- {
			p := pats[rng.Intn(len(pats))]
			if len(p) <= len(text) {
				copy(text[rng.Intn(len(text)-len(p)+1):], p)
			}
		}
		f := Build(pats)
		nw := (len(text) + 63) / 64
		in := make([]uint64, nw)
		for w := range in {
			switch rng.Intn(3) {
			case 0:
				in[w] = ^uint64(0) // dense
			case 1:
				in[w] = rng.Uint64() & rng.Uint64() & rng.Uint64() // sparse
			}
		}
		if tail := len(text) % 64; tail != 0 {
			in[nw-1] &= 1<<uint(tail) - 1
		}
		got := append([]uint64(nil), in...)
		f.RefineWords(text, got, 0, nw)
		for j := range text {
			want := false
			if in[j/64]&(1<<uint(j%64)) != 0 {
				for k, c := range f.qg.cls {
					L := KeyLen[k]
					if c.set != nil && j+L <= len(text) && c.has(f.qg.kr.Hash(text[j:j+L])) {
						want = true
					}
				}
			}
			if have := got[j/64]&(1<<uint(j%64)) != 0; have != want {
				t.Fatalf("trial %d (σ=%d) pos %d: refined bit %v, want %v", trial, sigma, j, have, want)
			}
		}
	}
}

// TestKRRoll checks that rolling a class fingerprint one symbol right gives
// the fingerprint of the shifted window, for a mixing radix and for radix 0
// (where a fingerprint is the window's last symbol alone).
func TestKRRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := make([]int32, 100)
	for i := range s {
		s[i] = rng.Int31n(1 << 20)
	}
	for _, radix := range []uint64{KRRadix, 0, 31} {
		kr := NewKR(radix)
		for k, L := range KeyLen {
			h := kr.Hash(s[:L])
			for j := 0; j+L < len(s); j++ {
				h = kr.Roll(h, k, s[j], s[j+L])
				if want := kr.Hash(s[j+1 : j+1+L]); h != want {
					t.Fatalf("radix %#x class %d at %d: rolled %#x, want %#x", radix, k, j+1, h, want)
				}
			}
		}
	}
}

// TestQGramEstimate checks the Auto-mode planning figure: every one-byte
// pattern makes a class-0 key of every byte, so the estimate is 1; a few
// long patterns leave it near their bitset occupancy.
func TestQGramEstimate(t *testing.T) {
	var every [][]int32
	for b := int32(0); b < 256; b++ {
		every = append(every, []int32{b})
	}
	if got := Build(every).EstimatedPassRateQGram(); got != 1 {
		t.Fatalf("every one-byte pattern: estimate %v, want 1", got)
	}
	long := [][]int32{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 9, 9, 9, 9, 9, 9, 9, 9}}
	if got := Build(long).EstimatedPassRateQGram(); got <= 0 || got > 2.0/128+1e-9 {
		t.Fatalf("two 8-symbol keys in 128 bits: estimate %v, want (0, 2/128]", got)
	}
}
