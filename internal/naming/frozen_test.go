package naming

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pardict/internal/pram"
)

// keysWithHome brute-forces n distinct keys whose home slot in a table of
// size slots equals want.
func keysWithHome(t *testing.T, size int, want int, n int) []uint64 {
	t.Helper()
	var out []uint64
	for k := uint64(1); len(out) < n && k < 1<<22; k++ {
		if home(k, size) == want {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d keys homing to slot %d", len(out), n, want)
	}
	return out
}

func freezeOf(t *testing.T, keys []uint64) *Frozen {
	t.Helper()
	c := pram.New(1)
	tb := NewTable(c)
	for i, k := range keys {
		tb.Put(k, int32(i+1))
	}
	return Freeze(c, tb)
}

// TestFrozenCollisionCluster stores several keys that all home to the same
// slot, forcing a linear-probe cluster longer than one eight-slot probe
// window, and checks that every key is found and that absent keys probing
// through the cluster miss cleanly.
func TestFrozenCollisionCluster(t *testing.T) {
	// 10 entries -> size 30 (load 1/3); homed at slot 2 they fill slots
	// 2..11: one full window (2..9), then a window whose third lane is empty.
	keys := keysWithHome(t, 30, 2, 10)
	f := freezeOf(t, keys)
	if len(f.fps) != 30 {
		t.Fatalf("expected a 30-slot table, got %d", len(f.fps))
	}
	for i, k := range keys {
		if v, ok := f.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("key %d (cluster pos %d): got (%d,%v)", k, i, v, ok)
		}
	}
	for s := 2; s < 12; s++ {
		if f.fps[s] == 0 {
			t.Fatalf("cluster slot %d empty", s)
		}
	}
	// An absent key homing into the same cluster must walk it and miss.
	probe := keysWithHome(t, 30, 2, 11)[10]
	if v, ok := f.Get(probe); ok {
		t.Fatalf("absent cluster key %d reported hit %d", probe, v)
	}
	if f.Lookup(probe) != None {
		t.Fatal("Lookup of absent key != None")
	}
}

// TestFrozenProbeWraparound fills the last slots of the table so the probe
// chain must wrap from the top index back to 0.
func TestFrozenProbeWraparound(t *testing.T) {
	// 4 entries -> size 12; home everything at slot 11 so the cluster is
	// 11, 0, 1, 2 (single steps up to the wrap, then a window from 0).
	keys := keysWithHome(t, 12, 11, 4)
	f := freezeOf(t, keys)
	if len(f.fps) != 12 {
		t.Fatalf("expected a 12-slot table, got %d", len(f.fps))
	}
	for i, k := range keys {
		if v, ok := f.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("wrapped key %d: got (%d,%v)", k, v, ok)
		}
	}
	// The slots after the wrap must hold the overflow: slot 11 occupied
	// plus slots 0..2.
	if f.fps[11] == 0 {
		t.Fatal("home slot 11 empty")
	}
	for s := 0; s < 3; s++ {
		if f.fps[s] == 0 {
			t.Fatalf("probe chain did not wrap to slot %d", s)
		}
	}
	// A miss that starts at slot 11 must wrap and terminate.
	probe := keysWithHome(t, 12, 11, 5)[4]
	if _, ok := f.Get(probe); ok {
		t.Fatal("absent wrapped key reported present")
	}
}

// TestFrozenFingerprintAliasing finds two distinct keys with the same home
// slot AND the same 8-bit fingerprint, so the probe must fall through to the
// full key compare to tell them apart.
func TestFrozenFingerprintAliasing(t *testing.T) {
	const size = minSlots // two entries sit at the size floor
	var a, b uint64
	seen := map[[2]int]uint64{} // (home, fp) -> key
	for k := uint64(1); k < 1<<24; k++ {
		sig := [2]int{home(k, size), int(fingerprint(k))}
		if prev, ok := seen[sig]; ok {
			a, b = prev, k
			break
		}
		seen[sig] = k
	}
	if b == 0 {
		t.Fatal("no fingerprint-aliased key pair found")
	}
	f := freezeOf(t, []uint64{a, b})
	if len(f.fps) != size {
		t.Fatalf("expected a %d-slot table, got %d", size, len(f.fps))
	}
	if v, ok := f.Get(a); !ok || v != 1 {
		t.Fatalf("aliased key a: (%d,%v)", v, ok)
	}
	if v, ok := f.Get(b); !ok || v != 2 {
		t.Fatalf("aliased key b: (%d,%v)", v, ok)
	}
}

// TestFrozenWindowStopsAtEmpty guards the probe window's cut-off. Key 0
// homes to slot 0 with tag 1 in every table, and empty slots hold key 0. A
// stored key with the same home and tag makes the window flag its lane and,
// as a borrow artefact, the empty lane above it; a lookup of the absent key
// 0 must stop at that empty slot instead of comparing its zero key.
func TestFrozenWindowStopsAtEmpty(t *testing.T) {
	var a uint64
	for k := uint64(1); k < 1<<24; k++ {
		if home(k, minSlots) == 0 && fingerprint(k) == fingerprint(0) {
			a = k
			break
		}
	}
	if a == 0 {
		t.Fatal("no key shares key 0's home slot and tag")
	}
	f := freezeOf(t, []uint64{a})
	if v, ok := f.Get(0); ok {
		t.Fatalf("absent key 0 reported hit %d", v)
	}
	if v, ok := f.Get(a); !ok || v != 1 {
		t.Fatalf("key %d: (%d,%v)", a, v, ok)
	}
	f = freezeOf(t, []uint64{a, 0})
	if v, ok := f.Get(0); !ok || v != 2 {
		t.Fatalf("stored key 0: (%d,%v)", v, ok)
	}
}

// TestFrozenFullTableProbe loads a large table to its exact sizing bound
// (size = 3n/2 + spareSlots, no rounding: load near 2/3) and verifies every
// probe chain, including misses that must traverse long runs.
func TestFrozenFullTableProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := pram.New(1)
	tb := NewTable(c)
	keys := map[uint64]int32{}
	for len(keys) < 8192 {
		k := rng.Uint64()
		if _, dup := keys[k]; dup {
			continue
		}
		v := int32(len(keys) + 1)
		keys[k] = v
		tb.Put(k, v)
	}
	f := Freeze(c, tb)
	if f.Len() != 8192 {
		t.Fatalf("len = %d", f.Len())
	}
	if len(f.fps) != 12288+spareSlots {
		t.Fatalf("size = %d, want %d", len(f.fps), 12288+spareSlots)
	}
	for k, want := range keys {
		if got, ok := f.Get(k); !ok || got != want {
			t.Fatalf("key %d: (%d,%v) want %d", k, got, ok, want)
		}
	}
	for i := 0; i < 100000; i++ {
		k := rng.Uint64()
		if _, present := keys[k]; present {
			continue
		}
		if v, ok := f.Get(k); ok {
			t.Fatalf("random absent key %d hit with %d", k, v)
		}
	}
}

// sameFrozen fails unless a and b hold the same entries and answer the
// probes alike.
func sameFrozen(t *testing.T, a, b *Frozen, probes []uint64) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("len %d vs %d", a.Len(), b.Len())
	}
	a.Range(func(k uint64, v int32) bool {
		if got, ok := b.Get(k); !ok || got != v {
			t.Fatalf("key %d: (%d,%v) want %d", k, got, ok, v)
		}
		return true
	})
	for _, k := range probes {
		va, oka := a.Get(k)
		vb, okb := b.Get(k)
		if va != vb || oka != okb {
			t.Fatalf("probe %d: (%d,%v) vs (%d,%v)", k, va, oka, vb, okb)
		}
	}
}

// TestFreezeBatchMatchesBuildTable checks FreezeBatch against the two-step
// Freeze(BuildTable(...)) it replaces: same entries (the smallest index wins
// on repeats), same charged Work and Depth, on repeated keys, on an empty
// batch and at the size floor.
func TestFreezeBatchMatchesBuildTable(t *testing.T) {
	big := make([]uint64, 5000)
	bigVals := make([]int32, len(big))
	for i := range big {
		big[i] = uint64(i%2000) * 0x9E3779B1 // 2000 distinct keys, repeated
		bigVals[i] = int32(i)                // repeats carry different values
	}
	cases := []struct {
		name  string
		keys  []uint64
		vals  []int32
		slots int
	}{
		{"repeats", []uint64{1, 2, 1, 3, 2}, []int32{10, 20, 99, 30, 88}, 8},
		{"empty", nil, nil, minSlots},
		{"floor", []uint64{1, 2, 1}, []int32{1, 2, 3}, minSlots},
		{"past-floor", []uint64{1, 2, 3, 4, 5, 6, 5}, []int32{1, 2, 3, 4, 5, 6, 7}, 18},
		{"many-repeats", big, bigVals, 3000 + spareSlots},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := map[uint64]int32{}
			for i, k := range tc.keys {
				if _, ok := first[k]; !ok {
					first[k] = tc.vals[i]
				}
			}
			c1, c2 := pram.New(2), pram.New(2)
			want := Freeze(c1, BuildTable(c1, tc.keys, tc.vals))
			got := FreezeBatch(c2, tc.keys, tc.vals, len(first))
			if c1.Work() != c2.Work() || c1.Depth() != c2.Depth() {
				t.Fatalf("charged (work %d, depth %d), Freeze(BuildTable) charges (%d, %d)",
					c2.Work(), c2.Depth(), c1.Work(), c1.Depth())
			}
			if got.Len() != len(first) {
				t.Fatalf("len %d want %d", got.Len(), len(first))
			}
			if len(got.fps) != tc.slots {
				t.Fatalf("size %d want %d", len(got.fps), tc.slots)
			}
			sameFrozen(t, want, got, []uint64{0, 1, 2, 3, 4, 7, 8, 9, 1199, 1200, 1 << 40})
			for k, v := range first {
				if g, ok := got.Get(k); !ok || g != v {
					t.Fatalf("key %d: (%d,%v) want first value %d", k, g, ok, v)
				}
			}
		})
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestFreezeBatchPanics(t *testing.T) {
	c := pram.New(1)
	mustPanic(t, "a None value", func() {
		FreezeBatch(c, []uint64{1, 2}, []int32{5, None}, 2)
	})
	mustPanic(t, "an understated distinct count", func() {
		FreezeBatch(c, []uint64{1, 2, 3}, []int32{1, 2, 3}, 2)
	})
	// A None value that loses to an earlier occurrence is never stored.
	f := FreezeBatch(c, []uint64{1, 1}, []int32{5, None}, 1)
	if v := f.Lookup(1); v != 5 {
		t.Fatalf("Lookup(1) = %d", v)
	}
}

// FuzzFrozenVsMap asserts frozen lookups are identical to map lookups on
// arbitrary key sets (the frozen-table oracle of the PR checklist), for both
// Freeze of a Table and FreezeBatch of a batch with repeats.
func FuzzFrozenVsMap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := pram.New(1)
		tb := NewTable(c)
		oracle := map[uint64]int32{}
		// Even-led triples define inserted keys (clustered into a small
		// space so collisions are common), odd-led ones define probes.
		var probes, batchKeys []uint64
		var batchVals []int32
		for i := 0; i+2 < len(data); i += 3 {
			var kb [8]byte
			copy(kb[:], data[i:i+3])
			k := binary.LittleEndian.Uint64(kb[:]) % 509
			if data[i]%2 == 0 {
				v := int32(data[i+1]) + 1 // never None
				batchKeys = append(batchKeys, k)
				batchVals = append(batchVals, v)
				if _, dup := oracle[k]; !dup {
					oracle[k] = v
					tb.Put(k, v)
				}
			} else {
				probes = append(probes, k)
			}
		}
		fz := Freeze(c, tb)
		fb := FreezeBatch(c, batchKeys, batchVals, len(oracle))
		for name, fr := range map[string]*Frozen{"Freeze": fz, "FreezeBatch": fb} {
			if fr.Len() != len(oracle) {
				t.Fatalf("%s len %d, oracle %d", name, fr.Len(), len(oracle))
			}
			check := func(k uint64) {
				got, gok := fr.Get(k)
				want, wok := oracle[k]
				if gok != wok || (gok && got != want) {
					t.Fatalf("%s Get(%d): frozen (%d,%v), map (%d,%v)", name, k, got, gok, want, wok)
				}
				tv, tok := tb.Get(k)
				if tok != gok || (tok && tv != got) {
					t.Fatalf("%s Get(%d): table (%d,%v) disagrees with frozen (%d,%v)", name, k, tv, tok, got, gok)
				}
			}
			for k := range oracle {
				check(k)
			}
			for _, k := range probes {
				check(k)
			}
		}
	})
}

// TestToTableRoundTrip checks the Freeze -> ToTable -> Freeze cycle
// preserves every entry (the E15 ablation path).
func TestToTableRoundTrip(t *testing.T) {
	c := pram.New(1)
	tb := NewTable(c)
	for i := 0; i < 500; i++ {
		tb.Put(uint64(i)*977+13, int32(i))
	}
	f1 := Freeze(c, tb)
	t2 := f1.ToTable(c)
	if t2.Len() != 500 {
		t.Fatalf("round-trip len %d", t2.Len())
	}
	f2 := Freeze(c, t2)
	f1.Range(func(k uint64, v int32) bool {
		if got, ok := f2.Get(k); !ok || got != v {
			t.Fatalf("key %d: (%d,%v) want %d", k, got, ok, v)
		}
		return true
	})
}
