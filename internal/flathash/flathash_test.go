package flathash

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New[int32](0)
	if _, ok := m.Get(42); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Put(42, 7)
	if v, ok := m.Get(42); !ok || v != 7 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
	m.Put(42, 9)
	if v, _ := m.Get(42); v != 9 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if r, ins := m.PutIfAbsent(42, 1); ins || r != 9 {
		t.Fatalf("PutIfAbsent on present key: (%d,%v)", r, ins)
	}
	if r, ins := m.PutIfAbsent(43, 1); !ins || r != 1 {
		t.Fatalf("PutIfAbsent on absent key: (%d,%v)", r, ins)
	}
	if !m.Delete(42) || m.Delete(42) {
		t.Fatal("delete semantics wrong")
	}
	if _, ok := m.Get(42); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 1 {
		t.Fatalf("len after delete = %d", m.Len())
	}
}

func TestZeroValueMap(t *testing.T) {
	var m Map[int32]
	if _, ok := m.Get(1); ok {
		t.Fatal("zero map reported a hit")
	}
	if m.Delete(1) {
		t.Fatal("zero map deleted something")
	}
	m.Put(1, 2)
	if v, ok := m.Get(1); !ok || v != 2 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

// TestGrowthKeepsEntries pushes through several doublings.
func TestGrowthKeepsEntries(t *testing.T) {
	m := New[int32](0)
	const n = 10000
	for i := 0; i < n; i++ {
		m.Put(uint64(i)*0x9E37+1, int32(i))
	}
	if m.Len() != n {
		t.Fatalf("len = %d", m.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(uint64(i)*0x9E37 + 1); !ok || v != int32(i) {
			t.Fatalf("key %d: (%d,%v)", i, v, ok)
		}
	}
}

// TestFingerprintIndependentOfHome: keys that share a home slot must not
// share a tag by construction, or the fingerprint array rejects nothing
// within their probe cluster. In a 2^16-slot table the home index is the top
// 16 bits of k*fib64, so tag bits taken from that product would be fixed by
// the home slot.
func TestFingerprintIndependentOfHome(t *testing.T) {
	m := New[int32](1 << 15)
	if len(m.fps) != 1<<16 {
		t.Fatalf("table has %d slots, want 2^16", len(m.fps))
	}
	// inv is fib64's multiplicative inverse mod 2^64 (Newton iteration), so
	// h*inv is a key whose product with fib64 is exactly h.
	inv := uint64(fib64)
	for i := 0; i < 6; i++ {
		inv *= 2 - fib64*inv
	}
	const home = 0x1234
	rng := rand.New(rand.NewSource(7))
	tags := map[uint8]bool{}
	for i := 0; i < 32; i++ {
		k := (uint64(home)<<48 | rng.Uint64()>>16) * inv
		if got := (k * fib64) >> m.shift; got != home {
			t.Fatalf("key %#x: home slot %#x, want %#x", k, got, home)
		}
		m.Put(k, int32(i))
		j, ok := m.slot(k)
		if !ok {
			t.Fatalf("key %#x lost", k)
		}
		tags[m.fps[j]] = true
	}
	if len(tags) < 2 {
		t.Fatalf("32 keys sharing home slot %#x all carry tag(s) %v", home, tags)
	}
}

// TestDeleteChurn interleaves inserts and deletes against a map oracle so
// backward-shift deletion is exercised across cluster boundaries.
func TestDeleteChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New[int32](0)
	oracle := map[uint64]int32{}
	keys := make([]uint64, 0, 4096)
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(keys) == 0:
			k := uint64(rng.Intn(8192)) // small space => heavy collisions
			v := int32(rng.Int31())
			m.Put(k, v)
			if _, dup := oracle[k]; !dup {
				keys = append(keys, k)
			}
			oracle[k] = v
		case op < 9:
			i := rng.Intn(len(keys))
			k := keys[i]
			_, want := oracle[k]
			if got := m.Delete(k); got != want {
				t.Fatalf("Delete(%d) = %v, oracle %v", k, got, want)
			}
			delete(oracle, k)
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		default:
			k := uint64(rng.Intn(8192))
			got, ok := m.Get(k)
			want, wok := oracle[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("Get(%d) = (%d,%v), oracle (%d,%v)", k, got, ok, want, wok)
			}
		}
	}
	if m.Len() != len(oracle) {
		t.Fatalf("len = %d, oracle %d", m.Len(), len(oracle))
	}
	for k, want := range oracle {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("final Get(%d) = (%d,%v), want %d", k, got, ok, want)
		}
	}
}

func TestRangeVisitsEverything(t *testing.T) {
	m := New[int32](0)
	for i := 0; i < 100; i++ {
		m.Put(uint64(i), int32(i))
	}
	seen := map[uint64]int32{}
	m.Range(func(k uint64, v int32) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("ranged %d entries", len(seen))
	}
	count := 0
	m.Range(func(uint64, int32) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-stop range visited %d", count)
	}
}

func TestStructValues(t *testing.T) {
	type entry struct{ a, b int32 }
	m := New[entry](0)
	m.Put(5, entry{1, 2})
	if v, ok := m.Get(5); !ok || v != (entry{1, 2}) {
		t.Fatalf("got %+v %v", v, ok)
	}
}

// FuzzMapOracle drives a random op sequence against the built-in map.
func FuzzMapOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New[int32](0)
		oracle := map[uint64]int32{}
		for len(data) >= 3 {
			op := data[0] % 3
			klen := 1 + int(data[1]%8)
			if len(data) < 2+klen {
				break
			}
			var kb [8]byte
			copy(kb[:], data[2:2+klen])
			k := binary.LittleEndian.Uint64(kb[:]) % 257 // force clustering
			v := int32(data[1])
			data = data[2+klen:]
			switch op {
			case 0:
				m.Put(k, v)
				oracle[k] = v
			case 1:
				got := m.Delete(k)
				_, want := oracle[k]
				if got != want {
					t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
				}
				delete(oracle, k)
			case 2:
				got, ok := m.Get(k)
				want, wok := oracle[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Get(%d) = (%d,%v), want (%d,%v)", k, got, ok, want, wok)
				}
			}
		}
		if m.Len() != len(oracle) {
			t.Fatalf("len %d vs oracle %d", m.Len(), len(oracle))
		}
	})
}
