package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"pardict/internal/pram"
)

// highHitInput draws np distinct a–z patterns of 4–16 symbols and bodies
// 4 KiB a–z texts in which about one position in twenty starts a planted
// pattern: the served high-hit shape, where the wide screen's eight buckets
// accept nearly every letter at every offset.
func highHitInput(np, bodies int) (pats [][]int32, texts [][]int32) {
	rng := rand.New(rand.NewSource(1))
	letters := func(n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = 'a' + rng.Int31n(26)
		}
		return s
	}
	seen := map[string]bool{}
	for len(pats) < np {
		p := letters(4 + rng.Intn(13))
		if k := string(p); !seen[k] {
			seen[k] = true
			pats = append(pats, p)
		}
	}
	for b := 0; b < bodies; b++ {
		t := letters(4 << 10)
		for i := 0; i < len(t); {
			if rng.Intn(20) != 0 {
				i++
				continue
			}
			p := pats[rng.Intn(len(pats))]
			i += copy(t[i:], p)
		}
		texts = append(texts, t)
	}
	return pats, texts
}

// BenchmarkMatchScreenedHighHit times the wide-screened cascade (the wide
// kernel refined by the q-gram prefix screen) on high-hit bodies, and
// reports its CPU cost per text symbol and the fraction of positions the
// two-stage screen passes.
func BenchmarkMatchScreenedHighHit(b *testing.B) {
	pats, texts := highHitInput(16384, 16)
	c := pram.New(1)
	d, err := Preprocess(c, pats)
	if err != nil {
		b.Fatal(err)
	}
	d.EnablePrefilterWide()

	var pass, total int
	for _, t := range texts {
		words := (len(t) + 63) >> 6
		cand := make([]uint64, words)
		d.filter.ScanWordsWide(t, cand, 0, words)
		d.filter.RefineWords(t, cand, 0, words)
		for _, w := range cand {
			pass += bits.OnesCount64(w)
		}
		total += len(t)
	}

	r := &Result{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MatchInto(c, texts[i%len(texts)], r)
	}
	b.StopTimer()
	r.Release()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts[0])), "ns/B")
	b.ReportMetric(float64(pass)/float64(total), "survivors")
}
