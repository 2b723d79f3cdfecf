package pardict

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkShardedDirtyScan measures what a dirty write overlay adds to a
// served scan: 16,384 distinct a–z patterns of 4–16 bytes on S=2 shards,
// scanned over 4 KiB a–z texts that plant dictionary patterns and the first
// 128 pending inserts. Rebuilds are held off, so each arm scans the overlay
// it staged:
//
//   - clean: reconciled, no overlay;
//   - adds128: 128 pending inserts;
//   - adds128-dels128: plus 128 deleted dictionary patterns;
//   - adds1024-dels1024: 1,024 of each.
//
// It reports ns/B (the figure the ROADMAP and EXPERIMENTS E14 note quote).
func BenchmarkShardedDirtyScan(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	seen := map[string]bool{}
	gen := func(n int) [][]byte {
		var out [][]byte
		for len(out) < n {
			p := make([]byte, 4+rng.Intn(13))
			for i := range p {
				p[i] = byte('a' + rng.Intn(26))
			}
			if !seen[string(p)] {
				seen[string(p)] = true
				out = append(out, p)
			}
		}
		return out
	}
	dict, extra := gen(16384), gen(1024)
	const textLen = 4 << 10
	texts := make([][]byte, 8)
	for i := range texts {
		t := make([]byte, textLen)
		for j := range t {
			t[j] = byte('a' + rng.Intn(26))
		}
		for k := 0; k < 24; k++ { // ~5% of the bytes from each source
			for _, src := range [][][]byte{dict, extra[:128]} {
				p := src[rng.Intn(len(src))]
				copy(t[rng.Intn(textLen-len(p)+1):], p)
			}
		}
		texts[i] = t
	}

	for _, arm := range []struct {
		name       string
		adds, dels int
	}{
		{"clean", 0, 0},
		{"adds128", 128, 0},
		{"adds128-dels128", 128, 128},
		{"adds1024-dels1024", 1024, 1024},
	} {
		b.Run(arm.name, func(b *testing.B) {
			m, err := NewShardedMatcher(WithShards(2))
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			m.set.SetRebuildThresholds(1<<30, 1<<30) // rebuild only on Reconcile
			if err := m.Reload(dict); err != nil {
				b.Fatal(err)
			}
			m.Reconcile()
			for _, p := range extra[:arm.adds] {
				if _, err := m.Insert(p); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range dict[:arm.dels] {
				if err := m.Delete(p); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			runtime.GC() // earlier arms' dictionaries are garbage: collect them untimed
			b.SetBytes(textLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := m.MatchContext(ctx, texts[i%len(texts)])
				if err != nil {
					b.Fatal(err)
				}
				r.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*textLen), "ns/B")
		})
	}
}
