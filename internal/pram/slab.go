package pram

import (
	"math/bits"
	"sync"
)

// Slab pools for the scan hot path. The engines' steady-state buffers (name
// and length arrays, prefilter bitmaps, match results) are acquired from
// size-classed process-wide sync.Pools instead of make(), so a warmed matcher
// performs zero heap allocations per match. Slabs are classed by
// power-of-two capacity; an acquired slice has the requested length and
// ARBITRARY contents — callers must initialize it (the engines fold that
// initialization into phases they already charge for).

const slabClasses = 31

var (
	slabI32 [slabClasses]sync.Pool // class c holds *[]int32 of cap 1<<c
	slabU64 [slabClasses]sync.Pool // class c holds *[]uint64 of cap 1<<c

	// Header pools recycle the *[]T boxes the slab pools store, so Release
	// does not heap-allocate a slice header per call (Put(&local) would).
	hdrI32 = sync.Pool{New: func() any { return new([]int32) }}
	hdrU64 = sync.Pool{New: func() any { return new([]uint64) }}
)

func slabClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// AcquireInt32 returns an int32 slice of length n from the slab pools. The
// contents are arbitrary; pair with ReleaseInt32.
func AcquireInt32(n int) []int32 {
	c := slabClass(n)
	if c >= slabClasses {
		return make([]int32, n)
	}
	if p, _ := slabI32[c].Get().(*[]int32); p != nil {
		s := *p
		*p = nil
		hdrI32.Put(p)
		return s[:n]
	}
	return make([]int32, n, 1<<c)
}

// ReleaseInt32 returns a slice obtained from AcquireInt32 to the pools. The
// caller must not use s afterwards. Slices with non-power-of-two capacity
// (not slab-born) are dropped.
func ReleaseInt32(s []int32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 || slabClass(c) >= slabClasses {
		return
	}
	p := hdrI32.Get().(*[]int32)
	*p = s[:0]
	slabI32[slabClass(c)].Put(p)
}

// AcquireUint64 returns a uint64 slice of length n from the slab pools. The
// contents are arbitrary; pair with ReleaseUint64.
func AcquireUint64(n int) []uint64 {
	c := slabClass(n)
	if c >= slabClasses {
		return make([]uint64, n)
	}
	if p, _ := slabU64[c].Get().(*[]uint64); p != nil {
		s := *p
		*p = nil
		hdrU64.Put(p)
		return s[:n]
	}
	return make([]uint64, n, 1<<c)
}

// ReleaseUint64 returns a slice obtained from AcquireUint64 to the pools.
func ReleaseUint64(s []uint64) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 || slabClass(c) >= slabClasses {
		return
	}
	p := hdrU64.Get().(*[]uint64)
	*p = s[:0]
	slabU64[slabClass(c)].Put(p)
}

// ctxPool recycles Ctx objects for the allocation-free match entry points.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// GetCtx returns a recycled Ctx bound to pool (nil selects the shared
// GOMAXPROCS-wide pool), never canceled, with zeroed counters. Pair with
// PutCtx when the execution is done.
func GetCtx(pool *Pool) *Ctx {
	if pool == nil {
		pool = Shared(0)
	}
	c := ctxPool.Get().(*Ctx)
	c.pool = pool
	c.gctx = nil
	c.done = nil
	c.canceled.Store(false)
	c.work.Store(0)
	c.depth.Store(0)
	c.labelCtx.Store(nil)
	c.levels = nil
	c.tr = nil
	return c
}

// PutCtx returns a Ctx obtained from GetCtx. The caller must not use it (or
// submit phases on it) afterwards.
func PutCtx(c *Ctx) { ctxPool.Put(c) }
