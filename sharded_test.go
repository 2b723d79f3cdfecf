package pardict

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pardict/internal/alpha"
	"pardict/internal/core"
	"pardict/internal/pram"
)

func newSharded(t *testing.T, opts ...Option) *ShardedMatcher {
	t.Helper()
	m, err := NewShardedMatcher(opts...)
	if err != nil {
		t.Fatalf("NewShardedMatcher: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func shardedInsert(t *testing.T, m *ShardedMatcher, pats ...string) {
	t.Helper()
	for _, p := range pats {
		if _, err := m.Insert([]byte(p)); err != nil {
			t.Fatalf("Insert(%q): %v", p, err)
		}
	}
}

func TestShardedMatcherBasic(t *testing.T) {
	m := newSharded(t, WithShards(4))
	shardedInsert(t, m, "he", "she", "his", "hers")
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d", m.Shards())
	}
	if m.Len() != 4 || m.Size() != 12 || m.MaxLen() != 4 {
		t.Fatalf("Len/Size/MaxLen = %d/%d/%d", m.Len(), m.Size(), m.MaxLen())
	}
	r := m.Match([]byte("ushers"))
	if r.Len() != 6 {
		t.Fatalf("match len %d", r.Len())
	}
	// ushers: she@1, he@2+hers@2.
	if l := r.MatchLen(1); l != 3 {
		t.Fatalf("MatchLen(1) = %d, want 3 (she)", l)
	}
	if l := r.MatchLen(2); l != 4 {
		t.Fatalf("MatchLen(2) = %d, want 4 (hers)", l)
	}
	if _, ok := r.Longest(0); ok {
		t.Fatalf("unexpected match at 0")
	}
	if id, ok := r.Longest(2); !ok || id < 0 {
		t.Fatalf("Longest(2) = %v %v", id, ok)
	}
	if c := r.Count(); c != 2 {
		t.Fatalf("Count = %d, want 2", c)
	}
	hits := r.AllAt(2, nil)
	if len(hits) != 2 || string(hits[0].Pattern) != "hers" || string(hits[1].Pattern) != "he" {
		t.Fatalf("AllAt(2) = %v", hits)
	}
	if st := r.Stats(); st.Work <= 0 || st.Depth <= 0 {
		t.Fatalf("stats not aggregated: %+v", st)
	}
	if ss := m.SchedulerStats(); ss.Phases == 0 {
		t.Fatalf("scheduler stats empty: %+v", ss)
	}

	if _, err := m.Insert([]byte("she")); !errors.Is(err, ErrDuplicatePattern) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := m.Delete([]byte("nope")); !errors.Is(err, ErrPatternNotFound) {
		t.Fatalf("missing delete: %v", err)
	}
	if err := m.Delete([]byte("she")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if m.Has([]byte("she")) || !m.Has([]byte("he")) {
		t.Fatalf("Has wrong after delete")
	}
	r = m.Match([]byte("ushers"))
	if l := r.MatchLen(1); l != 0 {
		t.Fatalf("she still matches after delete: len %d", l)
	}
	if l := r.MatchLen(2); l != 4 {
		t.Fatalf("hers lost: len %d", l)
	}
}

func TestShardedMatcherStatsAndReconcile(t *testing.T) {
	m := newSharded(t, WithShards(2))
	shardedInsert(t, m, "alpha", "beta", "gamma")
	st := m.Stats()
	if st.Shards != 2 || st.Patterns != 3 || st.PendingOps != 3 {
		t.Fatalf("stats before reconcile: %+v", st)
	}
	m.Reconcile()
	st = m.Stats()
	if st.PendingOps != 0 || st.Rebuilds == 0 || st.SnapshotSwaps == 0 {
		t.Fatalf("stats after reconcile: %+v", st)
	}
	if st.ReconcileWork == 0 {
		t.Fatalf("reconcile work not charged: %+v", st)
	}
	// Scan cost must NOT include the background rebuild work.
	r := m.Match([]byte("xxalphaxx"))
	if r.Stats().Work >= st.ReconcileWork+1000000 {
		t.Fatalf("scan work looks polluted: %+v vs %+v", r.Stats(), st)
	}
}

// TestShardedDefaultShards pins the default partition count: one shard,
// whatever GOMAXPROCS is. A reconciled default scan therefore charges
// exactly one screened core.Dict cascade over the same patterns plus the
// merge's single phase over n positions (n·S with S = 1).
func TestShardedDefaultShards(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 16, 64} {
		runtime.GOMAXPROCS(procs)
		if got := newSharded(t).Shards(); got != 1 {
			t.Errorf("GOMAXPROCS %d: default Shards() = %d, want 1", procs, got)
		}
	}
	runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(53))
	patterns := shardedPinSet(rng)
	text := randTextWithPlants(rng, patterns, 4<<10, 16)
	m := newSharded(t)
	if err := m.Reload(patterns); err != nil {
		t.Fatal(err)
	}
	m.Reconcile()
	r := m.Match(text)
	defer r.Release()

	enc := alpha.NewByteEncoder()
	encs := make([][]int32, len(patterns))
	for i, p := range patterns {
		encs[i] = enc.Encode(p)
	}
	c := pram.New(0)
	d, err := core.Preprocess(c, encs)
	if err != nil {
		t.Fatal(err)
	}
	d.EnablePrefilterWide()
	c.ResetStats()
	d.Match(c, enc.Encode(text))
	wantWork, wantDepth := c.Work()+int64(len(text)), c.Depth()+1
	if st := r.Stats(); st.Work != wantWork || st.Depth != wantDepth {
		t.Fatalf("default scan work/depth %d/%d, want one cascade %d/%d plus merge %d/1",
			st.Work, st.Depth, c.Work(), c.Depth(), len(text))
	}
}

func TestShardedClose(t *testing.T) {
	m, err := NewShardedMatcher(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	shardedInsert(t, m, "abc")
	m.Close()
	if _, err := m.Insert([]byte("x")); !errors.Is(err, ErrMatcherClosed) {
		t.Fatalf("insert after close: %v", err)
	}
	if err := m.Delete([]byte("abc")); !errors.Is(err, ErrMatcherClosed) {
		t.Fatalf("delete after close: %v", err)
	}
	if r := m.Match([]byte("xabcx")); r.MatchLen(1) != 3 {
		t.Fatalf("scan after close broken")
	}
}

func TestShardedReload(t *testing.T) {
	m := newSharded(t, WithShards(3))
	shardedInsert(t, m, "old")
	if err := m.Reload([][]byte{[]byte("new1"), []byte("newer")}); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if m.Has([]byte("old")) {
		t.Fatalf("old pattern survived Reload")
	}
	if m.Len() != 2 {
		t.Fatalf("Len after Reload = %d", m.Len())
	}
	r := m.Match([]byte("xnew1newerx"))
	if r.MatchLen(1) != 4 || r.MatchLen(5) != 5 {
		t.Fatalf("reloaded dictionary mismatch")
	}
	// A failing Reload leaves the dictionary untouched.
	if err := m.Reload([][]byte{[]byte("dup"), []byte("dup")}); !errors.Is(err, ErrDuplicatePattern) {
		t.Fatalf("dup Reload: %v", err)
	}
	if m.Len() != 2 || !m.Has([]byte("new1")) {
		t.Fatalf("failed Reload mutated state")
	}
}

func TestShardedReloadSaved(t *testing.T) {
	src, err := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("hers")})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m := newSharded(t, WithShards(2))
	shardedInsert(t, m, "stale")
	if err := m.ReloadSaved(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReloadSaved: %v", err)
	}
	if m.Len() != 3 || m.Has([]byte("stale")) {
		t.Fatalf("ReloadSaved state wrong: len=%d", m.Len())
	}
	if r := m.Match([]byte("ushers")); r.MatchLen(2) != 4 {
		t.Fatalf("reloaded match wrong")
	}

	// Corrupt body: fail closed, old dictionary intact.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 0xff
	if err := m.ReloadSaved(bytes.NewReader(bad)); err == nil {
		t.Fatalf("corrupt ReloadSaved succeeded")
	}
	if m.Len() != 3 {
		t.Fatalf("corrupt ReloadSaved mutated state")
	}
	// Truncated body: same.
	if err := m.ReloadSaved(bytes.NewReader(buf.Bytes()[:buf.Len()-7])); err == nil {
		t.Fatalf("truncated ReloadSaved succeeded")
	}
	if m.Len() != 3 {
		t.Fatalf("truncated ReloadSaved mutated state")
	}
}

func TestShardedMatchContextCancel(t *testing.T) {
	m := newSharded(t, WithShards(2))
	shardedInsert(t, m, "abc", "abcd")
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.MatchContext(gctx, bytes.Repeat([]byte("abcd"), 4096)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled match: %v", err)
	}
	if _, err := m.MatchBatch(gctx, [][]byte{bytes.Repeat([]byte("abcd"), 4096)}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled batch: %v", err)
	}
}

func TestShardedMatchBatch(t *testing.T) {
	m := newSharded(t, WithShards(4))
	shardedInsert(t, m, "he", "she", "hers")
	texts := make([][]byte, 9)
	for i := range texts {
		texts[i] = []byte(fmt.Sprintf("u%dshers", i))
	}
	out, err := m.MatchBatch(context.Background(), texts)
	if err != nil {
		t.Fatalf("MatchBatch: %v", err)
	}
	for i, r := range out {
		if r == nil || r.MatchLen(2) != 3 {
			t.Fatalf("batch text %d wrong: %+v", i, r)
		}
	}
	if out2, err := m.MatchBatch(context.Background(), nil); err != nil || len(out2) != 0 {
		t.Fatalf("empty batch: %v %v", out2, err)
	}
}

// dynOracle is the mutex-guarded DynamicMatcher oracle the differential test
// compares against: Insert/Delete serialize under the write lock, Match runs
// under the read lock, and id→pattern is tracked for length recovery.
type dynOracle struct {
	mu   sync.RWMutex
	d    *DynamicMatcher
	pats map[PatternID][]byte
}

func newDynOracle(t *testing.T, opts ...Option) *dynOracle {
	t.Helper()
	d, err := NewDynamicMatcher(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &dynOracle{d: d, pats: map[PatternID][]byte{}}
}

// randPattern draws a pattern over the first sigma letters.
func randPattern(rng *rand.Rand, sigma int) []byte {
	n := 1 + rng.Intn(7)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(sigma))
	}
	return b
}

func randText(rng *rand.Rand, sigma, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(sigma))
	}
	return b
}

// TestShardedDifferential drives ≥4 writers and ≥8 readers against the
// sharded matcher and the DynamicMatcher oracle, for σ ∈ {2, 256}, at S = 4
// and at the default S = 1 (the S1/ cases). Writers
// apply each mutation to both structures under the oracle's write lock (so
// both observe the same serialized write history); readers scan both and
// require identical per-position longest-match lengths — exact equality for
// the write-set the scan observed, because the oracle lock makes each
// reader's (sharded scan, oracle scan) pair see the same prefix of writes.
func TestShardedDifferential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sigma  int
		shards int
		opts   []Option
	}{
		{"sigma2", 2, 4, []Option{WithAlphabet([]byte("ab"))}},
		{"sigma256", 3, 4, nil}, // raw-byte (σ=256) encoding; patterns over 3 letters keep matches plentiful
		{"S1/sigma2", 2, 1, []Option{WithAlphabet([]byte("ab"))}},
		{"S1/sigma256", 3, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newSharded(t, append([]Option{WithShards(tc.shards)}, tc.opts...)...)
			m.set.SetRebuildThresholds(16, 24) // keep rebuilds frequent
			o := newDynOracle(t, tc.opts...)

			const (
				writers  = 4
				readers  = 8
				duration = 600 * time.Millisecond
			)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errc := make(chan error, writers+readers)

			// Writers: mutate both structures atomically w.r.t. readers.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						p := randPattern(rng, tc.sigma)
						o.mu.Lock()
						if rng.Intn(2) == 0 {
							_, errS := m.Insert(p)
							idO, errO := o.d.Insert(p)
							if (errS == nil) != (errO == nil) {
								o.mu.Unlock()
								errc <- fmt.Errorf("insert %q: sharded=%v oracle=%v", p, errS, errO)
								return
							}
							if errO == nil {
								o.pats[idO] = append([]byte(nil), p...)
							}
						} else {
							errS := m.Delete(p)
							errO := o.d.Delete(p)
							if (errS == nil) != (errO == nil) {
								o.mu.Unlock()
								errc <- fmt.Errorf("delete %q: sharded=%v oracle=%v", p, errS, errO)
								return
							}
						}
						o.mu.Unlock()
					}
				}(int64(w) + 100)
			}

			// Readers: under the oracle read lock both scans see the same
			// completed write-set; results must agree exactly.
			for rd := 0; rd < readers; rd++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						text := randText(rng, tc.sigma, 64+rng.Intn(128))
						o.mu.RLock()
						sr := m.Match(text)
						dr := o.d.Match(text)
						o.mu.RUnlock()
						for i := 0; i < sr.Len(); i++ {
							want := 0
							if id, ok := dr.Longest(i); ok {
								o.mu.RLock()
								want = len(o.pats[id])
								o.mu.RUnlock()
							}
							if got := sr.MatchLen(i); got != want {
								errc <- fmt.Errorf("text %q pos %d: sharded len %d, oracle len %d", text, i, got, want)
								return
							}
						}
					}
				}(int64(rd) + 900)
			}

			time.Sleep(duration)
			close(stop)
			wg.Wait()
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			st := m.Stats()
			if st.Rebuilds == 0 {
				t.Logf("note: no background rebuild triggered (load too light?): %+v", st)
			}
		})
	}
}

// TestShardedDifferentialScreened runs the screened shard bases under churn
// in both write phases against the DynamicMatcher oracle, at S = 4 and at the
// default S = 1 (the S1/ cases). Automatic rebuilds
// are off and Reconcile runs every few rounds, so scans see freshly compiled
// (screened) bases, pending deletes that walk NextShorter from a screened
// Pat[j], and overlay adds, in every mix. Each scan checks the longest
// match per position, Count, and AllAt (dictserve's mode=all) against a
// brute-force expansion of the live set.
func TestShardedDifferentialScreened(t *testing.T) {
	for _, shards := range []int{4, 1} {
		prefix := ""
		if shards == 1 {
			prefix = "S1/"
		}
		for _, wp := range []WritePhase{WritePhaseJoined, WritePhaseSplit} {
			for _, tc := range []struct {
				name  string
				sigma int
				opts  []Option
			}{
				{"sigma2", 2, []Option{WithAlphabet([]byte("ab"))}},
				{"sigma256", 3, nil},
			} {
				t.Run(fmt.Sprintf("%s%v/%s", prefix, wp, tc.name), func(t *testing.T) {
					screenedDifferential(t, tc.sigma, tc.opts, append([]Option{
						WithShards(shards), WithWritePhase(wp)}, tc.opts...))
				})
			}
		}
	}
}

func screenedDifferential(t *testing.T, sigma int, alphabet, opts []Option) {
	m := newSharded(t, opts...)
	m.set.SetRebuildThresholds(1<<30, 1<<30) // rebuild only on Reconcile
	o := newDynOracle(t, alphabet...)
	rng := rand.New(rand.NewSource(int64(sigma)*7 + 1))

	live := map[string]bool{}
	var initial [][]byte
	for len(initial) < 40 {
		p := randPattern(rng, sigma)
		if !live[string(p)] {
			live[string(p)] = true
			initial = append(initial, p)
		}
	}
	if err := m.Reload(initial); err != nil {
		t.Fatal(err)
	}
	for _, p := range initial {
		id, err := o.d.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		o.pats[id] = p
	}

	// base is the live set as of the last compile: with automatic rebuilds
	// off, a base pattern no longer live is a pending delete and a live
	// pattern outside base an overlay add.
	base := map[string]bool{}
	compiled := func() {
		clear(base)
		for p := range live {
			base[p] = true
		}
	}
	compiled()
	sawDeletes, sawAdds := false, false
	skipped0 := m.SchedulerStats().PrefilterSkipped
	for round := 0; round < 30; round++ {
		for k := 0; k < 6; k++ {
			p := randPattern(rng, sigma)
			if live[string(p)] {
				if err := m.Delete(p); err != nil {
					t.Fatalf("Delete(%q): %v", p, err)
				}
				if err := o.d.Delete(p); err != nil {
					t.Fatal(err)
				}
				delete(live, string(p))
			} else {
				if _, err := m.Insert(p); err != nil {
					t.Fatalf("Insert(%q): %v", p, err)
				}
				id, err := o.d.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				o.pats[id] = p
				live[string(p)] = true
			}
		}
		m.Flush() // split-phase writes become visible; no-op when joined
		if round%5 == 4 {
			m.Reconcile()
			compiled()
		}
		for p := range base {
			sawDeletes = sawDeletes || !live[p]
		}
		for p := range live {
			sawAdds = sawAdds || !base[p]
		}
		for trial := 0; trial < 3; trial++ {
			// A quarter of the bytes lie outside the patterns' letters, so
			// the screens have positions to reject.
			text := randText(rng, sigma, 64+rng.Intn(192))
			for i := range text {
				if rng.Intn(4) == 0 {
					text[i] = byte('a' + sigma + rng.Intn(6))
				}
			}
			checkScreenedScan(t, m, o, live, text)
		}
	}
	if skipped := m.SchedulerStats().PrefilterSkipped - skipped0; skipped == 0 {
		t.Fatal("screened shard bases skipped no position")
	}
	if !sawDeletes || !sawAdds {
		t.Fatalf("churn never left pending deletes (%v) and overlay adds (%v) in a scanned snapshot",
			sawDeletes, sawAdds)
	}
}

// checkScreenedScan compares one sharded scan with the oracle: the longest
// match per position, Count, and AllAt against a brute-force expansion of the
// live set.
func checkScreenedScan(t *testing.T, m *ShardedMatcher, o *dynOracle, live map[string]bool, text []byte) {
	t.Helper()
	sr := m.Match(text)
	defer sr.Release()
	dr := o.d.Match(text)
	count := 0
	var hits []ShardedHit
	for i := 0; i < len(text); i++ {
		want := 0
		if id, ok := dr.Longest(i); ok {
			want = len(o.pats[id])
			count++
		}
		if got := sr.MatchLen(i); got != want {
			t.Fatalf("text %q pos %d: sharded len %d, oracle len %d", text, i, got, want)
		}
		var all []string
		for p := range live {
			if bytes.HasPrefix(text[i:], []byte(p)) {
				all = append(all, p)
			}
		}
		hits = sr.AllAt(i, hits[:0])
		if len(hits) != len(all) {
			t.Fatalf("text %q pos %d: AllAt has %d hits, live set %d", text, i, len(hits), len(all))
		}
		for k, h := range hits {
			if !live[string(h.Pattern)] || !bytes.HasPrefix(text[i:], h.Pattern) {
				t.Fatalf("text %q pos %d: AllAt reports %q", text, i, h.Pattern)
			}
			if k > 0 && len(h.Pattern) >= len(hits[k-1].Pattern) {
				t.Fatalf("text %q pos %d: AllAt not longest first", text, i)
			}
		}
	}
	if sr.Count() != count {
		t.Fatalf("text %q: Count %d, oracle %d", text, sr.Count(), count)
	}
}

// TestShardedChaosInvariants hammers the sharded matcher with fully
// unsynchronized concurrent scans and mutations (the readers take no lock at
// all), checking structural invariants on every result: a reported match must
// be a pattern the matcher was actually given, occurring at that exact text
// position, and a never-mutated core set must always be found. Run under
// -race this also proves the RCU read side is data-race free. It runs at
// S = 4 and at the default S = 1.
func TestShardedChaosInvariants(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("S%d", shards), func(t *testing.T) { shardedChaos(t, shards) })
	}
}

func shardedChaos(t *testing.T, shards int) {
	m := newSharded(t, WithShards(shards))
	m.set.SetRebuildThresholds(16, 24)
	core := []string{"aba", "bab", "aabb"}
	shardedInsert(t, m, core...)
	m.Reconcile()

	var ever sync.Map // pattern content ever handed to Insert (recorded first)
	for _, p := range core {
		ever.Store(p, true)
	}

	const (
		writers  = 4
		readers  = 8
		duration = 500 * time.Millisecond
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := append(randPattern(rng, 2), byte('0'+rng.Intn(8))) // never collides with core
				ever.Store(string(p), true)                             // record BEFORE the insert publishes it
				if _, err := m.Insert(p); err == nil {
					if rng.Intn(2) == 0 {
						_ = m.Delete(p)
					}
				}
			}
		}(int64(w) + 7)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				text := randText(rng, 2, 48+rng.Intn(64))
				r := m.Match(text)
				for i := 0; i < r.Len(); i++ {
					l := r.MatchLen(i)
					if l == 0 {
						continue
					}
					if _, ok := r.Longest(i); !ok {
						errc <- fmt.Errorf("len %d but no id at %d", l, i)
						return
					}
					if i+l > len(text) {
						errc <- fmt.Errorf("match overruns text: len %d at %d of %d", l, i, len(text))
						return
					}
					if _, known := ever.Load(string(text[i : i+l])); !known {
						errc <- fmt.Errorf("matched %q at %d: never an inserted pattern", text[i:i+l], i)
						return
					}
				}
				// The untouched core set must always be found.
				probe := []byte("xxabaxx")
				if pr := m.Match(probe); pr.MatchLen(2) < 3 {
					errc <- fmt.Errorf("core pattern lost: MatchLen=%d", pr.MatchLen(2))
					return
				}
			}
		}(int64(rd) + 71)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestShardedStallBoundedLatency artificially stalls a background rebuild and
// asserts scans stay fast: the RCU read side must never wait for the
// reconciler.
func TestShardedStallBoundedLatency(t *testing.T) {
	m := newSharded(t, WithShards(2))
	m.set.SetRebuildThresholds(1, 8)
	shardedInsert(t, m, "he", "she", "hers")
	m.Reconcile()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	m.set.SetGate(func() {
		once.Do(func() { close(entered) })
		<-release
	})
	defer close(release)

	// Trip the background trigger on both shards.
	for i := 0; i < 32; i++ {
		shardedInsert(t, m, fmt.Sprintf("stall%03d", i))
	}
	<-entered // the reconciler is now wedged mid-rebuild

	text := []byte("usherstall000stall031xx")
	for i := 0; i < 50; i++ {
		start := time.Now()
		r := m.Match(text)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("scan %d took %v during stalled rebuild", i, d)
		}
		if r.MatchLen(1) != 3 {
			t.Fatalf("scan %d wrong during stalled rebuild", i)
		}
		// Writes must also stay non-blocking (log appends).
		p := []byte(fmt.Sprintf("w%04d", i))
		start = time.Now()
		if _, err := m.Insert(p); err != nil {
			t.Fatalf("insert during stall: %v", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("insert %d took %v during stalled rebuild", i, d)
		}
	}
	if got := m.Stats().PinnedSnapshots; got != 0 {
		t.Fatalf("pinned snapshots leaked: %d", got)
	}
}
