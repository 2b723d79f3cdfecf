package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"pardict/internal/obs"
)

// collide forces every overlay fingerprint into one bucket and filter bit,
// and makes a fingerprint the key's last symbol alone, so candidates collide
// in full and only the symbol-by-symbol verification tells them apart.
func collide(set *Set) { set.ovRadix, set.ovMixer = 0, 0 }

// bruteAt lists every live pattern matching text at j, longest first: the
// rule the overlay index must reproduce.
func bruteAt(text string, j int, live map[string]int32) []string {
	var out []string
	for p := range live {
		if j+len(p) <= len(text) && text[j:j+len(p)] == p {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool { return len(out[a]) > len(out[b]) })
	return out
}

// checkAgainstBrute compares every position's longest live match (length and
// id) and its AllAt expansion with bruteAt.
func checkAgainstBrute(t *testing.T, set *Set, text string, live map[string]int32) {
	t.Helper()
	r, c := set.Match(mk, enc(text))
	if c != nil {
		t.Fatalf("match canceled: %v", c.Err())
	}
	defer r.Release()
	for j := range text {
		want := bruteAt(text, j, live)
		wantLen, wantID := int32(0), int32(-1)
		if len(want) > 0 {
			wantLen, wantID = int32(len(want[0])), live[want[0]]
		}
		if r.Len[j] != wantLen || r.ID[j] != wantID {
			t.Fatalf("text %q pos %d: got len %d id %d, want len %d id %d (%q)",
				text, j, r.Len[j], r.ID[j], wantLen, wantID, want)
		}
		var got []string
		for _, h := range r.AllAt(j, nil) {
			if live[string(h.Raw)] != h.ID {
				t.Fatalf("pos %d: AllAt hit %q carries id %d, want %d", j, h.Raw, h.ID, live[string(h.Raw)])
			}
			got = append(got, string(h.Raw))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("text %q pos %d: AllAt %q, want %q", text, j, got, want)
		}
	}
}

// FuzzOverlayIndex drives pending inserts of length 1–20 (a third of them
// sharing a prefix with an earlier one), deletes of base patterns and of
// pending inserts, and re-inserts, optionally with every fingerprint forced
// into one bucket, and checks each scan of texts planting the pending
// inserts against the brute-force rule. No background rebuild runs, so
// every check but the last reads the overlay. The seed corpus lives in
// testdata/fuzz/FuzzOverlayIndex.
func FuzzOverlayIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nAdds uint16, sigma uint8, forced bool) {
		rng := rand.New(rand.NewSource(seed))
		alpha := 2 + int(sigma%4)
		word := func(n int) string {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + rng.Intn(alpha))
			}
			return string(b)
		}
		set := New(1+int(uint64(seed)%2), mk)
		defer set.Close()
		set.SetRebuildThresholds(1<<30, 0) // rebuild only on Reconcile
		if forced {
			collide(set)
		}
		live := map[string]int32{}
		put := func(p string) {
			if _, ok := live[p]; ok {
				return
			}
			id, err := set.Insert([]byte(p), enc(p))
			if err != nil {
				t.Fatalf("Insert(%q): %v", p, err)
			}
			live[p] = id
		}
		drop := func(p string) {
			if err := set.Delete([]byte(p), enc(p)); err != nil {
				t.Fatalf("Delete(%q): %v", p, err)
			}
			delete(live, p)
		}
		var base []string
		for i := 0; i < 30; i++ {
			p := word(1 + rng.Intn(12))
			put(p)
			base = append(base, p)
		}
		set.Reconcile()

		var adds []string
		for i := 0; i < int(nAdds%300); i++ {
			var p string
			if len(adds) > 0 && rng.Intn(3) == 0 {
				q := adds[rng.Intn(len(adds))]
				p = q[:rng.Intn(len(q))+1] + word(rng.Intn(20-len(q)+1))
			} else {
				p = word(1 + rng.Intn(20))
			}
			if _, ok := live[p]; !ok {
				put(p)
				adds = append(adds, p)
			}
		}
		text := func() string {
			var b []byte
			for len(b) < 240 {
				if len(adds) > 0 && rng.Intn(3) > 0 {
					b = append(b, adds[rng.Intn(len(adds))]...)
				} else if rng.Intn(2) == 0 {
					b = append(b, base[rng.Intn(len(base))]...)
				} else {
					b = append(b, word(1+rng.Intn(6))...)
				}
			}
			return string(b)
		}
		checkAgainstBrute(t, set, text(), live)

		// Delete base patterns and pending inserts, and bring some back.
		var gone []string
		for _, p := range append(base[:10:10], adds[:len(adds)/2]...) {
			if _, ok := live[p]; ok && rng.Intn(2) == 0 {
				drop(p)
				gone = append(gone, p)
			}
		}
		checkAgainstBrute(t, set, text(), live)
		for _, p := range gone {
			if rng.Intn(3) == 0 {
				put(p)
			}
		}
		checkAgainstBrute(t, set, text(), live)
		set.Reconcile()
		checkAgainstBrute(t, set, text(), live)
	})
}

// TestOverlayPinnedSnapshotRace scans a pinned older snapshot while the
// writer keeps appending to the same overlay index (within its capacity and
// past it, which swaps in a larger index) patterns that occur in the text,
// and tombstones and revives the snapshot's own live patterns. The pinned
// snapshot's answer must never move; run it under -race.
func TestOverlayPinnedSnapshotRace(t *testing.T) {
	const text = "abcdabcdabcabcdabcdacabdd"
	for _, forced := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", forced), func(t *testing.T) {
			set := newSet(t, 1)
			set.SetRebuildThresholds(1<<30, 0)
			if forced {
				collide(set)
			}
			insert(t, set, "abc", "bcd", "cdab", "dabcabcd")
			set.Reconcile()
			insert(t, set, "ab", "cab", "abcda", "bcdabcda", "d")
			if err := set.Delete([]byte("bcd"), enc("bcd")); err != nil {
				t.Fatal(err)
			}
			live := map[string]bool{"abc": true, "cdab": true, "dabcabcd": true,
				"ab": true, "cab": true, "abcda": true, "bcdabcda": true, "d": true}
			var subs []string // text substrings the pinned snapshot does not hold
			for i := range text {
				for L := 1; L <= 12 && i+L <= len(text); L++ {
					if p := text[i : i+L]; !live[p] {
						live[p] = true
						subs = append(subs, p)
					}
				}
			}
			s := (*set.shards.Load())[0]
			sn := s.pin()
			defer s.unpin(sn)
			scan := func() string {
				var h shardHit
				matchSnapshot(mk(), sn, enc(text), nil, 0, &h)
				out := fmt.Sprint(h.lens, h.refs)
				for j := range text {
					out += fmt.Sprint(overlayAllAt(sn, enc(text), j, nil))
				}
				return out
			}
			want := scan()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				toggle := func(p string, in bool) bool {
					var err error
					if in {
						_, err = set.Insert([]byte(p), enc(p))
					} else {
						err = set.Delete([]byte(p), enc(p))
					}
					if err != nil {
						t.Error(err)
					}
					return err == nil
				}
				for in := true; ; in = !in {
					for _, p := range append([]string{"ab", "abc"}, subs...) {
						select {
						case <-stop:
							return
						default:
						}
						// The snapshot's own "ab" and "abc" go out while
						// the substrings go in, and back.
						if !toggle(p, in != (p == "ab" || p == "abc")) {
							return
						}
					}
				}
			}()
			for k := 0; k < 200; k++ {
				if got := scan(); got != want {
					t.Errorf("pinned snapshot's scan moved under writes:\n got %s\nwant %s", got, want)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestRebuildTriggerBySize: with the default thresholds a shard rebuilds
// once its pending bytes reach max(512, base/4), not after a count of small
// inserts; SetRebuildThresholds' op cap still forces rebuilds.
func TestRebuildTriggerBySize(t *testing.T) {
	set := newSet(t, 1)
	raws, encs := make([][]byte, 512), make([][]int32, 512)
	for i := range raws {
		p := fmt.Sprintf("base%04d", i) // 8 bytes each: base = 4096 bytes
		raws[i], encs[i] = []byte(p), enc(p)
	}
	if err := set.Replace(raws, encs); err != nil {
		t.Fatal(err)
	}
	before := set.Stats().Rebuilds
	s := (*set.shards.Load())[0]

	// 200 two-byte inserts: 400 pending bytes, under max(512, 4096/4).
	for i := 0; i < 200; i++ {
		insert(t, set, fmt.Sprintf("%c%c", 'A'+i/26, 'a'+i%26))
	}
	if s.queued.Load() || set.Stats().Rebuilds != before {
		t.Fatalf("200 small inserts (400 B pending, base 4096 B) scheduled a rebuild: %+v", set.Stats())
	}
	// Up to 1024 pending bytes (a quarter of the base) fires one.
	for i := 0; set.Stats().PendingBytes < 1024; i++ {
		if s.queued.Load() {
			t.Fatalf("rebuild scheduled at %d pending bytes, under a quarter of the base", set.Stats().PendingBytes)
		}
		insert(t, set, fmt.Sprintf("pad%05d", i))
	}
	waitRebuilds(t, set, before+1)

	// The op cap of SetRebuildThresholds still forces rebuilds.
	capped := newSet(t, 1)
	capped.SetRebuildThresholds(1<<30, 16)
	for i := 0; i < 16; i++ {
		insert(t, capped, fmt.Sprintf("%c", 'a'+i))
	}
	waitRebuilds(t, capped, 1)
}

func waitRebuilds(t *testing.T, set *Set, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for set.Stats().Rebuilds < want {
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild fired: %+v", set.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOverlayCharge pins a dirty scan's counted Work and Depth: the base's
// own, one phase of n for the tombstone translation, one overlay phase
// charging one unit per (position, probed length class) plus one per
// verified candidate, and the merge's n·S. With every fingerprint forced
// into one bucket, each probe verifies every indexed insert, live or
// tombstoned. The overlay counters move by the screened probes and verified
// candidates.
func TestOverlayCharge(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	set := newSet(t, 1)
	set.SetRebuildThresholds(1<<30, 0)
	collide(set)
	insert(t, set, "he", "she", "his", "hers")
	set.Reconcile()
	adds := []string{"ushers", "s", "is", "sells", "shells", "h", "sea shore"}
	insert(t, set, adds...)
	for _, p := range []string{"his", "sells"} { // one base pattern, one pending insert
		if err := set.Delete([]byte(p), enc(p)); err != nil {
			t.Fatal(err)
		}
	}
	text := "ushers his hers and she sells sea shells by the sea shore"
	n := int64(len(text))

	sn := (*set.shards.Load())[0].snap.Load()
	bc := mk()
	sn.base.Match(bc, enc(text))
	// Every length class keeps a live insert ("s", "is", "ushers",
	// "sea shore"), so each is probed wherever its key fits.
	var probes int64
	for _, L := range []int64{1, 2, 4, 8} {
		probes += n - L + 1
	}
	verified := probes * int64(len(adds))
	wantWork := bc.Work() + n + probes + verified + n
	wantDepth := bc.Depth() + 3

	m0 := GlobalMetrics()
	r, c := set.Match(mk, enc(text))
	if c != nil {
		t.Fatalf("match canceled: %v", c.Err())
	}
	defer r.Release()
	if r.Work != wantWork || r.Depth != wantDepth {
		t.Fatalf("dirty scan work/depth %d/%d, want %d/%d", r.Work, r.Depth, wantWork, wantDepth)
	}
	m1 := GlobalMetrics()
	if d := m1.OverlayScreened - m0.OverlayScreened; d != probes {
		t.Fatalf("overlay screened moved by %d, want %d (every probe passes a forced filter)", d, probes)
	}
	if d := m1.OverlayVerified - m0.OverlayVerified; d != verified {
		t.Fatalf("overlay verified moved by %d, want %d", d, verified)
	}
}
