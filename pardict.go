// Package pardict is a parallel dictionary-matching library: it finds, for
// every position of a text, the dictionary patterns that begin there.
//
// It implements the shrink-and-spawn algorithms of S. Muthukrishnan and
// K. Palem, "Highly Efficient Dictionary Matching in Parallel" (SPAA 1993):
//
//   - Matcher: static dictionary matching in O(M) preprocessing work and
//     O(n·log m) matching work at O(log m) parallel depth, where m is the
//     longest pattern — costs never depend on the total dictionary size M
//     beyond the linear preprocessing (Theorems 1–3);
//   - the small-alphabet engine (Theorem 4): O(n·log m / L) matching work for
//     a collapse parameter L, profitable for DNA- or binary-like alphabets;
//   - the equal-length engine (Theorem 11): optimal O(n + M) total work when
//     all patterns have one length;
//   - DynamicMatcher: insertions and deletions in O(λ·log M) (amortized for
//     deletes) with matching always against the live dictionary
//     (Theorems 7–10);
//   - Matcher2D / Matcher3D: square (cube) pattern dictionaries in
//     O(n·log m) matching work (Theorem 6 and the §7 reduction).
//
// All engines execute as bulk-parallel phases on a goroutine pool and report
// instrumented Stats (PRAM work and depth) so the paper's bounds can be
// checked empirically; see EXPERIMENTS.md in the repository.
package pardict

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pardict/internal/alpha"
	"pardict/internal/pram"
	"pardict/internal/trace"
)

// ErrCanceled is reported (wrapped) by the *Context matching entry points when
// the supplied context is canceled or its deadline expires before the match
// completes. The returned error also wraps the context's own error, so both
// errors.Is(err, pardict.ErrCanceled) and errors.Is(err, context.Canceled) /
// context.DeadlineExceeded hold.
var ErrCanceled = errors.New("pardict: match canceled")

// Engine selects the matching algorithm for a Matcher.
type Engine int

const (
	// EngineAuto picks EngineEqualLength when every pattern has the same
	// length, and EngineGeneral otherwise.
	EngineAuto Engine = iota
	// EngineGeneral is the §4 shrink-and-spawn engine (Theorems 1–3).
	EngineGeneral
	// EngineSmallAlphabet is the §4.4 engine (Theorem 4); it requires a
	// dense alphabet (WithAlphabet) and benefits from WithCollapse.
	EngineSmallAlphabet
	// EngineEqualLength is the §7 work-optimal engine (Theorem 11); it
	// requires all patterns to share one length.
	EngineEqualLength
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineGeneral:
		return "general"
	case EngineSmallAlphabet:
		return "smallalpha"
	case EngineEqualLength:
		return "equallength"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// PrefilterMode selects whether the general engine screens text positions
// with the bit-parallel rare-byte prefilter before running the
// shrink-and-spawn cascade (see DESIGN.md, "Memory layout & prefilter").
//
// The prefilter is an execution-layer optimization: match output
// (Longest/All/FindAll/Count) and the counted Work/Depth Stats are identical
// with and without it; its effect shows up in wall-clock time and in the
// PrefilterScanned/PrefilterSkipped scheduler counters. The one API
// difference: a filtered matcher withholds Matches.PrefixLen, because
// screened positions report no-match and prefix lengths would become lower
// bounds.
type PrefilterMode int

const (
	// PrefilterOff (the default) never filters; PrefixLen stays available.
	PrefilterOff PrefilterMode = iota
	// PrefilterOn always filters on the general engine, using the wide-lane
	// kernel (eight text positions screened per step against an 8-bucket
	// Teddy-style prefix screen packed into uint64 byte lanes — the
	// production screen).
	PrefilterOn
	// PrefilterAuto filters only when the built filter looks selective
	// (estimated pass rate on random text below 25%, judged on the wide
	// screen's bucket tables).
	PrefilterAuto
	// PrefilterScalar always filters with the scalar SWAR screen (one
	// position per step against full 64-bit rare-offset bucket masks). The
	// two screens bucket patterns differently, so neither admits a subset
	// of the other; the scalar screen is retained as the differential
	// oracle the wide kernel is tested against, and as the conservative
	// choice for pattern sets whose prefixes collide badly under the wide
	// screen's 8-bucket hashing.
	PrefilterScalar
)

// String names the mode.
func (p PrefilterMode) String() string {
	switch p {
	case PrefilterOff:
		return "off"
	case PrefilterOn:
		return "wide"
	case PrefilterAuto:
		return "auto"
	case PrefilterScalar:
		return "scalar"
	}
	return fmt.Sprintf("PrefilterMode(%d)", int(p))
}

// Stats reports the instrumented cost of one operation in PRAM terms:
// Work is the number of element operations executed across all parallel
// phases; Depth is the number of dependent phases (parallel time up to
// constants). Procs is the goroutine-pool width used.
type Stats struct {
	Work  int64
	Depth int64
	Procs int
}

type config struct {
	procs      int
	pool       *Pool // caller-supplied scheduler; nil = process-wide shared pool
	engine     Engine
	sigma      []byte // dense alphabet; nil = raw bytes (σ = 256)
	collapse   int    // L for the small-alphabet engine; 0 = auto
	binary     bool   // Theorem 5: re-encode symbols in binary first
	shards     int    // ShardedMatcher partitions; 0 = auto
	prefilter  PrefilterMode
	writePhase WritePhase // ShardedMatcher mutation coordination; default Joined
}

// Option configures matcher construction.
type Option func(*config)

// WithParallelism bounds the goroutine pool (default GOMAXPROCS). Matchers of
// equal parallelism share one process-wide persistent pool, so the per-match
// cost is a worker wake-up, not a goroutine-set spawn.
func WithParallelism(procs int) Option {
	return func(c *config) { c.procs = procs }
}

// WithPool runs every operation of the configured matcher on the given
// caller-owned scheduler instead of the process-wide shared one. Use it to
// isolate a matcher's CPU use, or to make several matchers (and MatchBatch
// pipelines) share one bounded worker set.
func WithPool(p *Pool) Option {
	return func(c *config) { c.pool = p }
}

// WithEngine forces a specific engine.
func WithEngine(e Engine) Option {
	return func(c *config) { c.engine = e }
}

// WithAlphabet declares the byte alphabet patterns and text are drawn from,
// enabling the small-alphabet engine and dense symbol encoding. Text bytes
// outside the alphabet never match.
func WithAlphabet(sigma []byte) Option {
	return func(c *config) { c.sigma = append([]byte(nil), sigma...) }
}

// WithCollapse sets the §4.4 collapse parameter L (text-side work becomes
// O(n·log m / L) at the price of O(M·σ·L) preprocessing). Zero picks
// L ≈ √(log₂ m / σ) as in Corollary 1.
func WithCollapse(l int) Option {
	return func(c *config) { c.collapse = l }
}

// WithBinaryExpansion applies the Theorem 5 transformation to the
// small-alphabet engine: symbols are re-encoded as ⌈log₂ σ⌉-bit codes so the
// alphabet-dependent preprocessing cost depends on log σ instead of σ
// (dictionary O(M·L·log σ); text O(n·log m / L + n·log σ)). Only meaningful
// with EngineSmallAlphabet; WithCollapse then counts bits.
func WithBinaryExpansion() Option {
	return func(c *config) { c.binary = true }
}

// WithPrefilter sets the prefilter mode (default PrefilterOff). Only
// Matcher's general engine consults it; other engines ignore the option, and
// so does ShardedMatcher, whose shard bases always carry the wide screen
// (PrefilterOn).
func WithPrefilter(mode PrefilterMode) Option {
	return func(c *config) { c.prefilter = mode }
}

// WithShards sets the partition count of a ShardedMatcher (ignored by the
// other matcher kinds). Zero — the default — picks 2×GOMAXPROCS capped at 32:
// enough partitions that rebuilds stay small and scatter tasks saturate the
// pool, without multiplying the per-scan engine overhead needlessly.
func WithShards(s int) Option {
	return func(c *config) { c.shards = s }
}

// WritePhase selects how a ShardedMatcher coordinates mutations.
type WritePhase int

const (
	// WritePhaseJoined (the default) is the strongly consistent path: every
	// Insert/Delete takes its shard's lock and publishes before returning, so
	// the write is visible to every Match that starts afterwards.
	WritePhaseJoined WritePhase = iota
	// WritePhaseAuto lets a coordinator watch the mutation rate and switch
	// between joined and split phases: storms run split, quiet periods rejoin.
	WritePhaseAuto
	// WritePhaseSplit forces the split phase: mutations append to per-core
	// private logs with no shared locks and are merged last-writer-wins within
	// a bounded staleness window. Insert/Delete become upserts — duplicate
	// inserts and absent deletes resolve to no-ops at merge instead of
	// returning ErrDuplicatePattern/ErrPatternNotFound.
	WritePhaseSplit
)

// String names the phase ("joined", "auto", "split").
func (p WritePhase) String() string {
	switch p {
	case WritePhaseAuto:
		return "auto"
	case WritePhaseSplit:
		return "split"
	}
	return "joined"
}

// ParseWritePhase maps "joined"/"auto"/"split" to a WritePhase.
func ParseWritePhase(s string) (WritePhase, error) {
	switch s {
	case "joined", "":
		return WritePhaseJoined, nil
	case "auto":
		return WritePhaseAuto, nil
	case "split":
		return WritePhaseSplit, nil
	}
	return WritePhaseJoined, fmt.Errorf("pardict: unknown write phase %q (want joined, auto, or split)", s)
}

// WithWritePhase sets a ShardedMatcher's mutation coordination (ignored by
// the other matcher kinds). The default, WritePhaseJoined, keeps today's
// read-your-writes guarantee; WritePhaseAuto trades bounded read staleness
// for lock-free mutation throughput during write storms; WritePhaseSplit
// forces the storm path. See ShardedMatcher.SetWritePhase to change it at
// runtime.
func WithWritePhase(p WritePhase) Option {
	return func(c *config) { c.writePhase = p }
}

func buildConfig(opts []Option) *config {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	return c
}

func (c *config) newCtx() *pram.Ctx { return c.newCtxFor(nil) }

// schedulerPool resolves the scheduler the configured matcher executes on:
// the WithPool-supplied one, else the process-wide shared pool of the
// configured width.
func (c *config) schedulerPool() *pram.Pool {
	if c.pool != nil {
		return c.pool.p
	}
	return pram.Shared(c.procs)
}

// newCtxFor binds one operation's execution context: the configured scheduler
// plus the caller's cancellation context (nil means "never canceled"). When
// gctx carries a sampled request trace (dictserve threads one through
// MatchContext), the execution records its phase spans into it; otherwise the
// trace hooks are nil checks.
func (c *config) newCtxFor(gctx context.Context) *pram.Ctx {
	var ctx *pram.Ctx
	if c.pool != nil {
		ctx = pram.NewCtx(gctx, c.pool.p)
	} else {
		ctx = pram.NewCtx(gctx, pram.Shared(c.procs))
	}
	if t := trace.FromContext(gctx); t != nil {
		ctx.SetTrace(t)
	}
	return ctx
}

// canceledErr converts a canceled execution into the public error, wrapping
// both ErrCanceled and the context's own cause; nil when the execution ran to
// completion.
func canceledErr(ctx *pram.Ctx) error {
	if ctx.Err() == nil {
		return nil
	}
	if cause := ctx.Cause(); cause != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, cause)
	}
	return ErrCanceled
}

func (c *config) encoder() (*alpha.Encoder, error) {
	if c.sigma == nil {
		return alpha.NewByteEncoder(), nil
	}
	return alpha.NewDenseEncoder(c.sigma)
}

// autoCollapseBinary picks L = log₂ m / log₂ σ, the setting the paper uses
// after Theorem 5 to get O(n·log σ + M·log m).
func autoCollapseBinary(maxLen, bits int) int {
	if maxLen < 2 || bits < 1 {
		return 1
	}
	l := int(math.Log2(float64(maxLen))) / bits
	if l < 1 {
		l = 1
	}
	return l
}

// autoCollapse picks L per Corollary 1.
func autoCollapse(maxLen, sigma int) int {
	if maxLen < 2 || sigma < 1 {
		return 1
	}
	l := int(math.Round(math.Sqrt(math.Log2(float64(maxLen)) / float64(sigma))))
	if l < 1 {
		l = 1
	}
	return l
}

func statsOf(ctx *pram.Ctx) Stats {
	return Stats{Work: ctx.Work(), Depth: ctx.Depth(), Procs: ctx.Procs()}
}
