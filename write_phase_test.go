package pardict

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pardict/internal/shard"
)

func TestWritePhaseOptionAndStats(t *testing.T) {
	m := newSharded(t, WithShards(4), WithWritePhase(WritePhaseSplit))
	if mode, phase := m.WritePhaseNow(); mode != "split" || phase != "split" {
		t.Fatalf("WritePhaseNow = %q/%q, want split/split", mode, phase)
	}
	if _, err := m.Insert([]byte("storm")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Duplicate insert in split phase is a silent upsert.
	if _, err := m.Insert([]byte("storm")); err != nil {
		t.Fatalf("split duplicate Insert: %v", err)
	}
	m.Flush()
	if !m.Has([]byte("storm")) || m.Len() != 1 {
		t.Fatalf("storm not merged: has=%v len=%d", m.Has([]byte("storm")), m.Len())
	}
	st := m.Stats()
	if st.SplitWrites != 2 || st.WritePhase != "split" || st.WriteMode != "split" {
		t.Fatalf("stats: %+v", st)
	}
	m.SetWritePhase(WritePhaseJoined)
	if mode, phase := m.WritePhaseNow(); mode != "joined" || phase != "joined" {
		t.Fatalf("after SetWritePhase: %q/%q", mode, phase)
	}
	if _, err := m.Insert([]byte("storm")); err != ErrDuplicatePattern {
		t.Fatalf("joined duplicate Insert err = %v", err)
	}

	auto := newSharded(t, WithShards(2), WithWritePhase(WritePhaseAuto))
	if mode, phase := auto.WritePhaseNow(); mode != "auto" || phase != "joined" {
		t.Fatalf("auto matcher starts %q/%q, want auto/joined", mode, phase)
	}
}

func TestParseWritePhase(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want WritePhase
		ok   bool
	}{
		{"joined", WritePhaseJoined, true},
		{"", WritePhaseJoined, true},
		{"auto", WritePhaseAuto, true},
		{"split", WritePhaseSplit, true},
		{"bogus", WritePhaseJoined, false},
	} {
		got, err := ParseWritePhase(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseWritePhase(%q) = %v, %v", tc.in, got, err)
		}
	}
	if WritePhaseSplit.String() != "split" || WritePhaseAuto.String() != "auto" || WritePhaseJoined.String() != "joined" {
		t.Error("WritePhase.String mismatch")
	}
}

// hotShardKeys returns count distinct keys, tagged with prefix, that all hash
// to shard target of nShards — the adversarial all-writers-one-shard keyset.
func hotShardKeys(prefix string, nShards, target, count int) []string {
	keys := make([]string, 0, count)
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("%s%05d", prefix, i)
		if shard.ShardOf([]byte(k), nShards) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// stormWriter toggles its own disjoint keyset (insert → delete → insert …)
// and tracks which keys it left live. Because no other writer touches its
// keys and the merge preserves per-goroutine program order, its tracking is
// the ground truth for the final state.
type stormWriter struct {
	keys []string
	live []bool
}

func (w *stormWriter) run(tb testing.TB, m *ShardedMatcher, stop <-chan struct{}) {
	i := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		k := i % len(w.keys)
		if w.live[k] {
			if err := m.Delete([]byte(w.keys[k])); err != nil {
				tb.Errorf("Delete(%q): %v", w.keys[k], err)
				return
			}
			w.live[k] = false
		} else {
			if _, err := m.Insert([]byte(w.keys[k])); err != nil {
				tb.Errorf("Insert(%q): %v", w.keys[k], err)
				return
			}
			w.live[k] = true
		}
		i++
	}
}

// quiesceDifferential drains the matcher and requires byte-identical Match
// output against a DynamicMatcher compiled from the tracked final live set,
// plus exact Has agreement over every key ever touched (no lost or
// resurrected patterns).
func quiesceDifferential(t *testing.T, m *ShardedMatcher, writers []*stormWriter, anchors []string) {
	t.Helper()
	m.SetWritePhase(WritePhaseJoined) // drains private logs synchronously
	var live, dead []string
	live = append(live, anchors...)
	for _, w := range writers {
		for k := range w.keys {
			if w.live[k] {
				live = append(live, w.keys[k])
			} else {
				dead = append(dead, w.keys[k])
			}
		}
	}
	for _, k := range live {
		if !m.Has([]byte(k)) {
			t.Fatalf("pattern %q lost", k)
		}
	}
	for _, k := range dead {
		if m.Has([]byte(k)) {
			t.Fatalf("pattern %q resurrected", k)
		}
	}
	if got := m.Len(); got != len(live) {
		t.Fatalf("Len = %d, want %d", got, len(live))
	}

	o, err := NewDynamicMatcher()
	if err != nil {
		t.Fatal(err)
	}
	opats := map[PatternID][]byte{}
	for _, k := range live {
		id, err := o.Insert([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		opats[id] = []byte(k)
	}
	rng := rand.New(rand.NewSource(7))
	all := append(append([]string(nil), live...), dead...)
	for trial := 0; trial < 6; trial++ {
		var text []byte
		for len(text) < 600 {
			text = append(text, all[rng.Intn(len(all))]...)
			for f := rng.Intn(4); f > 0; f-- {
				text = append(text, byte('a'+rng.Intn(3)))
			}
		}
		got := m.Match(text)
		want := o.Match(text)
		for j := 0; j < len(text); j++ {
			wantLen := 0
			if id, ok := want.Longest(j); ok {
				wantLen = len(opats[id])
			}
			if got.MatchLen(j) != wantLen {
				t.Fatalf("trial %d: MatchLen(%d) = %d, oracle %d", trial, j, got.MatchLen(j), wantLen)
			}
		}
	}
}

// TestShardedWriteStormSkewedHammer is the adversarial arm: every writer's
// keys hash to ONE shard, in forced split phase, with an aggressive merge
// cadence, while readers scan concurrently. The anchor pattern (reconciled
// into a compiled base before the storm) must be visible to every scan; after
// quiescing, the final state must be byte-identical to the dynamic oracle.
func TestShardedWriteStormSkewedHammer(t *testing.T) {
	const nShards = 4
	m := newSharded(t, WithShards(nShards), WithWritePhase(WritePhaseSplit))
	m.set.SetPhasePolicy(shard.PhasePolicy{MergeEvery: 300 * time.Microsecond})
	m.set.SetRebuildThresholds(64, 96) // keep background rebuilds in the mix

	anchor := "anchorpattern"
	m.SetWritePhase(WritePhaseJoined)
	shardedInsert(t, m, anchor)
	m.Reconcile()
	m.SetWritePhase(WritePhaseSplit)

	const writers = 8
	ws := make([]*stormWriter, writers)
	for w := range ws {
		keys := hotShardKeys(fmt.Sprintf("hot-w%d-", w), nShards, 0, 24)
		ws[w] = &stormWriter{keys: keys, live: make([]bool, len(keys))}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *stormWriter) {
			defer wg.Done()
			w.run(t, m, stop)
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := []byte("xx " + anchor + " yy")
			for i := 0; i < 150; i++ {
				res := m.Match(text)
				found := false
				for j := 0; j < res.Len(); j++ {
					if res.MatchLen(j) == len(anchor) {
						found = true
						break
					}
				}
				if !found {
					t.Error("anchor lost mid-storm")
					return
				}
			}
		}()
	}
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	quiesceDifferential(t, m, ws, []string{anchor})
	if st := m.Stats(); st.SplitWrites == 0 || st.Merges == 0 {
		t.Fatalf("storm never exercised the split path: %+v", st)
	}
}

// TestShardedPhaseSwitchChurn flips Joined↔Split↔Auto continuously while
// writers churn and readers scan: every transition drains under the epoch
// barrier, so per-writer program order must survive arbitrarily placed
// switches, and the quiesced state must match the dynamic oracle exactly.
// It runs at S = 4 and at the default S = 1.
func TestShardedPhaseSwitchChurn(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("S%d", shards), func(t *testing.T) { phaseSwitchChurn(t, shards) })
	}
}

func phaseSwitchChurn(t *testing.T, shards int) {
	m := newSharded(t, WithShards(shards))
	m.set.SetPhasePolicy(shard.PhasePolicy{
		MergeEvery:  250 * time.Microsecond,
		DecideEvery: time.Millisecond,
		EnterPerSec: 1000,
		ExitPerSec:  100,
	})
	m.set.SetRebuildThresholds(64, 96)

	anchor := "steadyanchor"
	shardedInsert(t, m, anchor)
	m.Reconcile()

	const writers = 6
	ws := make([]*stormWriter, writers)
	for w := range ws {
		keys := make([]string, 20)
		for i := range keys {
			keys[i] = fmt.Sprintf("churn-w%d-%03d", w, i)
		}
		ws[w] = &stormWriter{keys: keys, live: make([]bool, len(keys))}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // phase flipper
		defer wg.Done()
		phases := []WritePhase{WritePhaseSplit, WritePhaseJoined, WritePhaseAuto, WritePhaseSplit, WritePhaseJoined}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.SetWritePhase(phases[i%len(phases)])
			i++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for _, w := range ws {
		wg.Add(1)
		go func(w *stormWriter) {
			defer wg.Done()
			w.run(t, m, stop)
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := []byte("aa " + anchor + " bb")
			for i := 0; i < 150; i++ {
				res := m.Match(text)
				found := false
				for j := 0; j < res.Len(); j++ {
					if res.MatchLen(j) == len(anchor) {
						found = true
						break
					}
				}
				if !found {
					t.Error("anchor lost across phase switch")
					return
				}
			}
		}()
	}
	time.Sleep(80 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	quiesceDifferential(t, m, ws, []string{anchor})
	st := m.Stats()
	if st.PhaseSwitches == 0 {
		t.Fatalf("no phase switches recorded: %+v", st)
	}
}
