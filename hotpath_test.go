package pardict

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"testing"

	"pardict/internal/core"
	"pardict/internal/obs"
)

// randTextWithPlants builds a random byte text and copies random patterns
// into it so both dense and sparse hit regions are exercised.
func randTextWithPlants(rng *rand.Rand, patterns [][]byte, n, plants int) []byte {
	text := make([]byte, n)
	rng.Read(text)
	for k := 0; k < plants; k++ {
		p := patterns[rng.Intn(len(patterns))]
		if len(p) > n {
			continue
		}
		copy(text[rng.Intn(n-len(p)+1):], p)
	}
	return text
}

// TestPrefilterOutputEquivalence: the prefilter is an execution-layer
// optimization — pattern output AND the counted Work/Depth stats must be
// byte-identical with it off, with the scalar screen, and with the wide-lane
// screen. Not parallel: obs.SetEnabled is process-global elsewhere in the
// suite.
func TestPrefilterOutputEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var patterns [][]byte
	for i := 0; i < 24; i++ {
		p := make([]byte, 3+rng.Intn(14))
		rng.Read(p)
		patterns = append(patterns, p)
	}
	patterns = append(patterns, []byte("q")) // a length-1 pattern in the mix

	plain, err := NewMatcher(patterns, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	filtered := map[string]*Matcher{}
	for name, mode := range map[string]PrefilterMode{"wide": PrefilterOn, "scalar": PrefilterScalar} {
		filtered[name], err = NewMatcher(patterns, WithEngine(EngineGeneral), WithPrefilter(mode))
		if err != nil {
			t.Fatal(err)
		}
	}

	for trial := 0; trial < 8; trial++ {
		text := randTextWithPlants(rng, patterns, 500+rng.Intn(3000), 12)
		a := plain.Match(text)
		if _, ok := a.PrefixLen(0); !ok {
			t.Fatal("unfiltered general matcher must report PrefixLen")
		}
		for name, m := range filtered {
			b := m.Match(text)
			if a.Len() != b.Len() {
				t.Fatalf("%s: length mismatch: %d vs %d", name, a.Len(), b.Len())
			}
			for i := 0; i < a.Len(); i++ {
				pa, oka := a.Longest(i)
				pb, okb := b.Longest(i)
				if pa != pb || oka != okb {
					t.Fatalf("trial %d pos %d: longest %d,%v (plain) vs %d,%v (%s)",
						trial, i, pa, oka, pb, okb, name)
				}
				if oka {
					la := a.All(i, nil)
					lb := b.All(i, nil)
					if len(la) != len(lb) {
						t.Fatalf("%s pos %d: all-matches %v vs %v", name, i, la, lb)
					}
				}
			}
			if as, bs := a.Stats(), b.Stats(); as.Work != bs.Work || as.Depth != bs.Depth {
				t.Fatalf("trial %d: %s prefilter changed counted cost: %+v vs %+v", trial, name, as, bs)
			}
			if _, ok := b.PrefixLen(0); ok {
				t.Fatalf("%s-filtered matcher must withhold PrefixLen", name)
			}
		}
	}
}

// TestPrefilterAutoMode: Auto keeps the filter for selective dictionaries and
// drops it for unselective ones (where PrefixLen must stay available).
func TestPrefilterAutoMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var selective [][]byte
	for i := 0; i < 10; i++ {
		p := make([]byte, 12)
		rng.Read(p)
		selective = append(selective, p)
	}
	m, err := NewMatcher(selective, WithEngine(EngineGeneral), WithPrefilter(PrefilterAuto))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Match([]byte("hello world")).PrefixLen(0); ok {
		t.Fatal("auto mode should filter a selective dictionary (PrefixLen withheld)")
	}

	// Single-symbol patterns covering most byte values: nearly every position
	// passes any filter, so Auto must turn it off.
	var dense [][]byte
	for b := 0; b < 200; b++ {
		dense = append(dense, []byte{byte(b)})
	}
	m2, err := NewMatcher(dense, WithEngine(EngineGeneral), WithPrefilter(PrefilterAuto))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Match([]byte("hello world")).PrefixLen(0); !ok {
		t.Fatal("auto mode should not filter an unselective dictionary")
	}
}

// TestMatchIntoReuse: one Matches reused across texts of different sizes must
// agree with fresh Match calls.
func TestMatchIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	patterns := [][]byte{[]byte("abra"), []byte("cadabra"), []byte("ab"), []byte("zzz")}
	m, err := NewMatcher(patterns, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var dst *Matches
	for trial := 0; trial < 20; trial++ {
		text := randTextWithPlants(rng, patterns, 10+rng.Intn(2000), 6)
		dst = m.MatchInto(dst, text)
		want := m.Match(text)
		if dst.Len() != want.Len() {
			t.Fatalf("trial %d: len %d vs %d", trial, dst.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			pa, oka := dst.Longest(i)
			pb, okb := want.Longest(i)
			if pa != pb || oka != okb {
				t.Fatalf("trial %d pos %d: %d,%v vs %d,%v", trial, i, pa, oka, pb, okb)
			}
			la, _ := dst.PrefixLen(i)
			lb, _ := want.PrefixLen(i)
			if la != lb {
				t.Fatalf("trial %d pos %d: prefix len %d vs %d", trial, i, la, lb)
			}
		}
		want.Release()
	}
	dst.Release()
}

// TestMatchZeroAllocs: the warmed MatchInto hot path must not allocate — the
// tentpole's zero-allocation steady-state claim, checked for both the plain
// and the prefiltered general engine.
func TestMatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime defeats sync.Pool caching and allocates on its own; alloc counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(29))
	var patterns [][]byte
	for i := 0; i < 16; i++ {
		p := make([]byte, 4+rng.Intn(10))
		rng.Read(p)
		patterns = append(patterns, p)
	}
	text := randTextWithPlants(rng, patterns, 4096, 10)

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithEngine(EngineGeneral), WithParallelism(1)}},
		{"prefilter-wide", []Option{WithEngine(EngineGeneral), WithParallelism(1), WithPrefilter(PrefilterOn)}},
		{"prefilter-scalar", []Option{WithEngine(EngineGeneral), WithParallelism(1), WithPrefilter(PrefilterScalar)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMatcher(patterns, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var dst *Matches
			for i := 0; i < 5; i++ { // warm the slab, state, and ctx pools
				dst = m.MatchInto(dst, text)
			}
			if avg := testing.AllocsPerRun(100, func() {
				dst = m.MatchInto(dst, text)
			}); avg != 0 {
				t.Fatalf("warmed MatchInto allocates %.1f times per op; want 0", avg)
			}
			dst.Release()
		})
	}
}

// BenchmarkHotPathMatch measures the steady-state MatchInto path (the E15
// experiment in cmd/benchtab sweeps this space more finely).
func BenchmarkHotPathMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	var patterns [][]byte
	for i := 0; i < 64; i++ {
		p := make([]byte, 6+rng.Intn(10))
		rng.Read(p)
		patterns = append(patterns, p)
	}
	text := randTextWithPlants(rng, patterns, 1<<16, 16)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithEngine(EngineGeneral)}},
		{"prefilter-wide", []Option{WithEngine(EngineGeneral), WithPrefilter(PrefilterOn)}},
		{"prefilter-scalar", []Option{WithEngine(EngineGeneral), WithPrefilter(PrefilterScalar)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := NewMatcher(patterns, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			var dst *Matches
			dst = m.MatchInto(dst, text)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = m.MatchInto(dst, text)
			}
		})
	}
}

// TestPrefilterSchedulerStats: with the obs layer on, the pool counters
// report positions scanned and screened by the prefilter.
func TestPrefilterSchedulerStats(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	pool := NewPool(1)
	defer pool.Close()
	patterns := [][]byte{[]byte("needle-in"), []byte("haystackxyz")}
	m, err := NewMatcher(patterns, WithEngine(EngineGeneral), WithPrefilter(PrefilterOn), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	text := make([]byte, 10000)
	for i := range text {
		text[i] = byte('a' + i%3) // unrelated text: nearly everything screened
	}
	m.Match(text)
	st := pool.Stats()
	if st.PrefilterScanned != int64(len(text)) {
		t.Fatalf("PrefilterScanned = %d, want %d", st.PrefilterScanned, len(text))
	}
	if st.PrefilterSkipped <= int64(len(text))/2 {
		t.Fatalf("PrefilterSkipped = %d; expected the filter to screen most of %d positions",
			st.PrefilterSkipped, len(text))
	}
	if st.PrefilterSkipped > st.PrefilterScanned {
		t.Fatalf("skipped %d exceeds scanned %d", st.PrefilterSkipped, st.PrefilterScanned)
	}
}

// TestRejectDuplicatesWitness: the sort-based duplicate detector must report
// the same witness the historic insertion-order map scan did — the earliest
// second occurrence, paired with that pattern's first index.
func TestRejectDuplicatesWitness(t *testing.T) {
	cases := []struct {
		encoded       [][]int32
		first, second int
	}{
		{[][]int32{{2}, {1}, {1}, {2}}, 1, 2},      // b a a b -> (1,2), not (0,3)
		{[][]int32{{1}, {2}, {1}, {2}, {2}}, 0, 2}, // a b a b b -> (0,2)
		{[][]int32{{5, 6}, {5}, {5, 6}}, 0, 2},     // prefix is not a duplicate
		{[][]int32{{7}, {8}, {9}, {7}, {8}}, 0, 3}, // earliest second occurrence wins
	}
	for i, tc := range cases {
		err := rejectDuplicates(tc.encoded)
		de, ok := err.(*core.DuplicateError)
		if !ok {
			t.Fatalf("case %d: got %v, want DuplicateError", i, err)
		}
		if de.First != tc.first || de.Second != tc.second {
			t.Fatalf("case %d: witness (%d,%d), want (%d,%d)", i, de.First, de.Second, tc.first, tc.second)
		}
	}
	if err := rejectDuplicates([][]int32{{1}, {2}, {1, 2}}); err != nil {
		t.Fatalf("distinct patterns rejected: %v", err)
	}
}

// shardedPinSet draws 256 distinct patterns of 4–13 letters.
func shardedPinSet(rng *rand.Rand) [][]byte {
	seen := map[string]bool{}
	var patterns [][]byte
	for len(patterns) < 256 {
		p := make([]byte, 4+rng.Intn(10))
		for i := range p {
			p[i] = byte('a' + rng.Intn(26))
		}
		if !seen[string(p)] {
			seen[string(p)] = true
			patterns = append(patterns, p)
		}
	}
	return patterns
}

// TestShardedMatchAllocs extends the Matcher zero-alloc pin to the sharded
// path: a warmed, reconciled S=4 ShardedMatcher scan that is Released
// allocates the same small number of times for a 4 KiB and a 64 KiB text —
// per-shard and merge buffers all come from the slab pools, so nothing
// allocated is proportional to n. What remains is per scan, not per byte:
// one execution context per shard and one for the merge (S+1), one
// goroutine per shard but the caller's (S-1), and the result header, the
// context-builder closure and the profiler-label frame of MatchContext.
func TestShardedMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime defeats sync.Pool caching and allocates on its own; alloc counts are meaningless under -race")
	}
	const S = 4
	const maxAllocs = 2*S + 8
	rng := rand.New(rand.NewSource(41))
	patterns := shardedPinSet(rng)
	m, err := NewShardedMatcher(WithShards(S))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Reload(patterns); err != nil {
		t.Fatal(err)
	}
	m.Reconcile()

	var counts []float64
	for _, n := range []int{4 << 10, 64 << 10} {
		text := randTextWithPlants(rng, patterns, n, n/256)
		scan := func() {
			r, err := m.MatchContext(context.Background(), text)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
		for i := 0; i < 5; i++ { // warm the slab, result and ctx pools
			scan()
		}
		avg := testing.AllocsPerRun(100, scan)
		if avg > maxAllocs {
			t.Fatalf("n=%d: warmed sharded scan allocates %.1f times; want ≤ %d", n, avg, maxAllocs)
		}
		counts = append(counts, avg)
	}
	if counts[0] != counts[1] {
		t.Fatalf("allocations grow with the text: %.1f at 4 KiB, %.1f at 64 KiB", counts[0], counts[1])
	}
}

// TestShardedScanKeepsCallerLabels: the execution contexts of a sharded scan
// carry the caller's own pprof labels, refined per cascade level, so they
// reach every profile sample of the scan. Only an unlabeled caller's scan
// takes the matcher's cached engine=sharded, op=match labels. Not parallel:
// obs.SetEnabled is process-global.
func TestShardedScanKeepsCallerLabels(t *testing.T) {
	m := newSharded(t, WithShards(2))
	defer pprof.SetGoroutineLabels(context.Background()) // LabelLevel relabels this goroutine
	labelsOf := func(enabled bool, gctx context.Context) map[string]string {
		prev := obs.SetEnabled(enabled)
		defer obs.SetEnabled(prev)
		got := map[string]string{}
		obs.Do(gctx, func(lctx context.Context) {
			c := m.scanCtx(gctx, lctx)
			c.LabelLevel(3)
			if lc := c.LabelContext(); lc != nil {
				pprof.ForLabels(lc, func(k, v string) bool { got[k] = v; return true })
			}
		}, "engine", "sharded", "op", "match")
		return got
	}
	caller := pprof.WithLabels(context.Background(), pprof.Labels("tenant", "t1"))
	for _, tc := range []struct {
		enabled bool
		gctx    context.Context
		want    map[string]string
	}{
		{true, caller, map[string]string{"tenant": "t1", "engine": "sharded", "op": "match", "level": "3"}},
		{false, caller, map[string]string{"tenant": "t1", "level": "3"}},
		{true, context.Background(), map[string]string{"engine": "sharded", "op": "match", "level": "3"}},
		{false, context.Background(), map[string]string{}},
	} {
		got := labelsOf(tc.enabled, tc.gctx)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("obs enabled=%v, caller labels=%v: scan labels %v, want %v",
				tc.enabled, obs.HasLabels(tc.gctx), got, tc.want)
		}
	}
}
