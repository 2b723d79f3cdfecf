package core

import (
	"math/rand"
	"runtime"
	"testing"

	"pardict/internal/pram"
)

// budgetDict is the fixed compile-guard dictionary: 16,384 distinct
// patterns of 4–16 bytes over a–z, from seed 1.
func budgetDict() [][]int32 {
	r := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	var out [][]int32
	for len(out) < 16384 {
		b := make([]byte, 4+r.Intn(13))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		p := make([]int32, len(b))
		for i, x := range b {
			p[i] = int32(x)
		}
		out = append(out, p)
	}
	return out
}

// Counted cost of Preprocess on budgetDict. The table layout is an
// execution-layer choice, so these must not move when it changes. They fell
// from 8,193,586 and 346 when intsort.Sort began skipping the radix digits
// that are constant across the keys (such as bits 24–31 of every EncodePair
// key): those passes did counted work but were the identity.
const (
	budgetWork  = 6591222
	budgetDepth = 262
)

// Memory budgets for one Preprocess of budgetDict, in bytes (Go 1.24,
// amd64). Building each frozen table through a map-backed Table and freezing
// it at a power-of-two size allocated 41,514,144 and retained a 9,533,336
// Dict; building them straight from the naming batches, sized from the
// distinct count, measured 30,629,920 and 7,120,968. The budgets add 5% and
// 4.6% to the latter, which keeps them under 78% and 79% of the former.
const (
	budgetAllocBytes    = 32_150_000
	budgetRetainedBytes = 7_450_000
)

// TestPreprocessBudget guards the compile: Work and Depth exactly as
// counted before the lean table build, and allocation and retained heap
// under the budgets above.
func TestPreprocessBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16,384-pattern dictionary")
	}
	pats := budgetDict()
	c := pram.New(2)
	var before, built, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := Preprocess(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.ReadMemStats(&after)
	alloc := built.TotalAlloc - before.TotalAlloc
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(d)
	t.Logf("work %d depth %d, allocated %d B, retained %d B", c.Work(), c.Depth(), alloc, retained)

	if c.Work() != budgetWork || c.Depth() != budgetDepth {
		t.Errorf("Preprocess charged work %d depth %d, want %d and %d", c.Work(), c.Depth(), budgetWork, budgetDepth)
	}
	if alloc > budgetAllocBytes {
		t.Errorf("Preprocess allocated %d B, budget %d B", alloc, budgetAllocBytes)
	}
	if retained > budgetRetainedBytes {
		t.Errorf("Dict retains %d B, budget %d B", retained, budgetRetainedBytes)
	}
}
