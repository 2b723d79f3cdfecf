// Package shard is the sharded snapshot-serving subsystem: a dictionary
// partitioned across S shards (by a hash of the raw pattern bytes), each shard
// holding an immutable static-engine snapshot published through an atomic
// pointer. Readers never take a lock: a scan Loads every shard's current
// snapshot, pins it with a per-snapshot refcount (the RCU read-side), matches
// the text against each shard concurrently, and merges the per-position
// longest matches.
//
// Writes (Insert/Delete) append to a per-shard mutation log and publish a new
// snapshot value that shares the shard's compiled base and carries the log as
// an overlay, so completed writes are visible to every subsequent scan without
// waiting for a rebuild. A background reconciler batches the log and rebuilds
// only the affected shard's compiled base off the hot path — triggered,
// table-doubling style, once the log outgrows a fraction of the shard's size —
// then atomically swaps the fresh snapshot in. Matching therefore keeps the
// static engine's Θ(n·log m) per-shard cost (plus O(1) per position for each
// length class of pending inserts, screened by a fingerprint index — see
// overlay.go), while updates land in O(1) log appends amortized against
// per-shard rebuild work.
//
// Linearizability: a completed Insert/Delete has published its snapshot before
// returning, and a scan pins every shard's snapshot before matching, so every
// write that completed before the scan began is observed. Writes racing the
// scan are observed atomically per shard (a snapshot is immutable), though not
// necessarily across shards — the scan sees, per shard, a prefix of that
// shard's serialized write history.
package shard

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"pardict/internal/core"
	"pardict/internal/obs"
	"pardict/internal/pram"
	"pardict/internal/prefilter"
)

// Errors returned by dictionary mutations.
var (
	ErrEmptyPattern = errors.New("shard: empty pattern")
	ErrDuplicate    = errors.New("shard: pattern already in dictionary")
	ErrNotFound     = errors.New("shard: pattern not in dictionary")
	ErrClosed       = errors.New("shard: matcher closed")
)

// Process-wide observability for the subsystem (rendered by dictserve
// /metrics). Counters aggregate across every Set in the process; per-Set
// figures come from Set.Stats.
var (
	metSwaps         obs.Counter
	metRebuilds      obs.Counter
	metRebuildErrs   obs.Counter
	metPinned        obs.Gauge
	metRebuildNs     = obs.NewHistogram(obs.ExpBounds(100_000, 4, 12))
	metJoinedWrites  obs.Counter
	metSplitWrites   obs.Counter
	metMerges        obs.Counter
	metMergedOps     obs.Counter
	metPhaseSwitches obs.Counter
	metMergeNs       = obs.NewHistogram(obs.ExpBounds(10_000, 4, 12))

	// Overlay screen, summed once per scan: (position, length class) probes
	// the fingerprint filter passed, and bucket candidates verified.
	metOverlayScreened obs.Counter
	metOverlayVerified obs.Counter
)

// Metrics is a snapshot of the process-wide shard counters.
type Metrics struct {
	SnapshotSwaps int64
	Rebuilds      int64
	RebuildErrors int64
	Pinned        int64
	RebuildNs     obs.HistSnapshot
	JoinedWrites  int64
	SplitWrites   int64
	Merges        int64
	MergedOps     int64
	PhaseSwitches int64
	MergeNs       obs.HistSnapshot

	OverlayScreened int64
	OverlayVerified int64
}

// GlobalMetrics snapshots the process-wide shard observability state.
func GlobalMetrics() Metrics {
	return Metrics{
		SnapshotSwaps: metSwaps.Load(),
		Rebuilds:      metRebuilds.Load(),
		RebuildErrors: metRebuildErrs.Load(),
		Pinned:        metPinned.Load(),
		RebuildNs:     metRebuildNs.Snapshot(),
		JoinedWrites:  metJoinedWrites.Load(),
		SplitWrites:   metSplitWrites.Load(),
		Merges:        metMerges.Load(),
		MergedOps:     metMergedOps.Load(),
		PhaseSwitches: metPhaseSwitches.Load(),
		MergeNs:       metMergeNs.Snapshot(),

		OverlayScreened: metOverlayScreened.Load(),
		OverlayVerified: metOverlayVerified.Load(),
	}
}

// Entry is one live pattern: its stable id, the raw bytes (hashing, output),
// and the encoded symbols the engines match on. Entries are immutable once
// created and shared freely between snapshots.
type Entry struct {
	ID  int32
	Raw []byte
	Enc []int32
}

// op is one mutation-log record.
type op struct {
	del bool
	e   Entry
}

// snapshot is the immutable published state of one shard: a compiled static
// base plus the pending overlay (inserts not yet compiled in, tombstones for
// deletions since). Readers pin it, use it, unpin it; nothing a snapshot can
// read is mutated after publication (overlay.go: the index appends beyond
// it).
type snapshot struct {
	base    *core.Dict // compiled general engine over baseEnt (nil ⇔ no base patterns)
	baseEnt []Entry    // base patterns, index-aligned with base's pattern ids
	baseLen []int32    // encoded length per base entry (shared across derived snapshots)
	delBase tombs      // base indices pending deletion

	adds    []Entry                  // pending inserts, arrival order, append-only per generation
	delAdds tombs                    // indices into adds deleted since
	ov      *ovIndex                 // fingerprint index over adds (nil: none yet)
	ovLive  [prefilter.Classes]int32 // live adds per length class

	pendOps   int // log records since base was compiled
	pendBytes int // Σ encoded length over those records

	epoch uint64       // incremented per base recompile
	pins  atomic.Int64 // readers currently inside a scan of this snapshot
}

// derive starts the next snapshot of the same generation: it shares sn's
// base, adds, index and tombstones (a write then appends or copies on
// write). Called under the owning shard's writer lock.
func (sn *snapshot) derive() *snapshot {
	return &snapshot{
		base: sn.base, baseEnt: sn.baseEnt, baseLen: sn.baseLen, delBase: sn.delBase,
		adds: sn.adds, delAdds: sn.delAdds, ov: sn.ov, ovLive: sn.ovLive,
		pendOps: sn.pendOps, pendBytes: sn.pendBytes, epoch: sn.epoch,
	}
}

// Shard is one partition: the published snapshot plus the writer-side state
// (live-set index, mutation log, base content index) guarded by mu. Readers
// touch only snap.
type Shard struct {
	set *Set
	mu  sync.Mutex

	snap atomic.Pointer[snapshot]

	liveID    map[string]int32 // content → id for every live pattern
	baseIdx   map[string]int32 // content → index in the current compiled base
	addIdx    map[string]int32 // content → index in adds, live pending inserts only
	pending   []op             // mutation log since the current base
	baseBytes int              // Σ encoded length of base entries
	liveBytes int              // Σ encoded length of live patterns
	maxLen    int              // high-water longest live pattern since last compile

	queued  atomic.Bool // enqueued for reconciliation
	retired atomic.Bool // replaced wholesale; reconciler skips it

	// rebuildMu serializes whole rebuilds of this shard (the background
	// reconciler racing a synchronous Reconcile): a rebuild's capture and
	// swap phases must see a consistent pending log.
	rebuildMu sync.Mutex
}

// pin loads the shard's current snapshot and takes a read-side reference.
// The reference is observational (Go's GC keeps the snapshot alive); it feeds
// the pinned gauge and lets tests assert reader presence during stalls.
func (s *Shard) pin() *snapshot {
	sn := s.snap.Load()
	sn.pins.Add(1)
	metPinned.Add(1)
	s.set.pinned.Add(1)
	return sn
}

func (s *Shard) unpin(sn *snapshot) {
	sn.pins.Add(-1)
	metPinned.Add(-1)
	s.set.pinned.Add(-1)
}

// Rebuild-trigger threshold (table-doubling style: amortize each base
// recompile against the log that forced it). A shard reconciles once its log
// holds at least minPendingBytes AND at least a quarter of the compiled base.
// The fingerprint-screened overlay costs a scan O(1) per position however
// many inserts are pending, so no op-count cap is needed; the maxPendingOps
// arm of SetRebuildThresholds exists for tests.
const defaultMinPendingBytes = 512

// Set is the sharded dictionary: the shard array (swapped wholesale by
// Replace), the global id allocator, and the background reconciler.
type Set struct {
	newCtx func() *pram.Ctx // execution contexts for rebuilds and Replace

	shards atomic.Pointer[[]*Shard]
	wmu    sync.RWMutex // writers hold R; Replace holds W

	nextID atomic.Int32

	rebuildCh chan *Shard
	quit      chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool

	gate atomic.Pointer[func()] // test hook: invoked mid-rebuild, off every lock

	minPendingBytes int
	maxPendingOps   int // 0: no op-count trigger

	ovRadix, ovMixer uint64 // overlay fingerprint parameters (tests force collisions)

	screen func(*core.Dict) // run on every compiled base: the wide prefilter (nil: none, tests only)

	// Phase reconciliation (see phase.go). phaseMu is the epoch barrier:
	// every mutation holds it for read across its whole critical section, so
	// a phase transition or log capture (which take it for write) observes no
	// in-flight writer. mergeMu serializes merges, transitions, Replace and
	// Close against each other; it is always acquired before phaseMu.
	phase    atomic.Int32 // phaseJoined | phaseSplit (current operating phase)
	mode     atomic.Int32 // ModeJoined | ModeAuto | ModeSplit (requested policy)
	phaseMu  sync.RWMutex
	mergeMu  sync.Mutex
	wlogs    []wlogSlot // per-core private logs, split phase only
	slotMask uint32
	slotCtr  atomic.Uint32
	wseq     atomic.Uint64 // global mutation sequence: last writer wins at merge
	policy   atomic.Pointer[PhasePolicy]

	// Per-set counters (the process-wide ones live at package level).
	swaps         atomic.Int64
	rebuilds      atomic.Int64
	rebuildErrs   atomic.Int64
	reconWork     atomic.Int64
	reconDepth    atomic.Int64
	pinned        atomic.Int64
	joinedWrites  atomic.Int64
	splitWrites   atomic.Int64
	splitLogged   atomic.Int64 // split ops appended but not yet merged
	merges        atomic.Int64
	mergedOps     atomic.Int64
	phaseSwitches atomic.Int64
}

// New returns an empty sharded dictionary with nShards partitions (at least
// one). newCtx supplies execution contexts for background rebuilds (it must
// be safe to call from any goroutine). Close must be called to stop the
// reconciler.
func New(nShards int, newCtx func() *pram.Ctx) *Set {
	if nShards < 1 {
		nShards = 1
	}
	t := &Set{
		newCtx:          newCtx,
		rebuildCh:       make(chan *Shard, 256),
		quit:            make(chan struct{}),
		minPendingBytes: defaultMinPendingBytes,
		ovRadix:         prefilter.KRRadix,
		ovMixer:         ovMixer,
		screen:          (*core.Dict).EnablePrefilterWide,
	}
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = t.freshShard(nil, nil)
	}
	t.shards.Store(&shards)
	t.initPhase()
	t.wg.Add(2)
	go t.reconciler()
	go t.phaseLoop()
	return t
}

// freshShard builds a shard whose base is compiled from ents (nil for empty).
// Only called where no reader can see the shard yet.
func (t *Set) freshShard(ents []Entry, base *core.Dict) *Shard {
	s := &Shard{
		set:     t,
		liveID:  make(map[string]int32, len(ents)),
		baseIdx: make(map[string]int32, len(ents)),
		addIdx:  map[string]int32{},
	}
	lens := make([]int32, len(ents))
	for i, e := range ents {
		s.liveID[string(e.Raw)] = e.ID
		s.baseIdx[string(e.Raw)] = int32(i)
		s.baseBytes += len(e.Enc)
		lens[i] = int32(len(e.Enc))
		if len(e.Enc) > s.maxLen {
			s.maxLen = len(e.Enc)
		}
	}
	s.liveBytes = s.baseBytes
	s.snap.Store(&snapshot{base: base, baseEnt: ents, baseLen: lens})
	return s
}

// SetRebuildThresholds overrides the reconciliation trigger (test hook):
// minBytes replaces the 512-byte floor, and maxOps > 0 also rebuilds a shard
// once its log holds that many records.
func (t *Set) SetRebuildThresholds(minBytes, maxOps int) {
	t.minPendingBytes = minBytes
	t.maxPendingOps = maxOps
}

// SetScreen replaces the wide prefilter every shard base compiled from now on
// gets with fn; nil leaves bases unscreened (test hook: screened and
// unscreened scans must agree in output, Work and Depth). Call it before the
// first mutation; bases compiled earlier keep the screen they had.
func (t *Set) SetScreen(fn func(*core.Dict)) { t.screen = fn }

// compile is the one place shard bases are built: the Theorem 1–3
// preprocessing of encs, then the wide prefilter. Shard results expose no
// prefix lengths, so the screen costs a base nothing but its build.
func (t *Set) compile(c *pram.Ctx, encs [][]int32) (*core.Dict, error) {
	d, err := core.Preprocess(c, encs)
	if err == nil && t.screen != nil {
		t.screen(d)
	}
	return d, err
}

// SetGate installs fn to be called in the middle of every rebuild, while no
// lock is held (test hook: stall the reconciler and prove readers don't care).
func (t *Set) SetGate(fn func()) {
	if fn == nil {
		t.gate.Store(nil)
		return
	}
	t.gate.Store(&fn)
}

// Shards reports the partition count.
func (t *Set) Shards() int { return len(*t.shards.Load()) }

// ShardOf routes a pattern to its partition by FNV-1a over the raw bytes.
// Exported so adversarial tests and benchmarks can construct key sets that
// collide on one shard.
func ShardOf(raw []byte, n int) int {
	h := fnv.New32a()
	h.Write(raw)
	return int(h.Sum32() % uint32(n))
}

// Insert adds a live pattern and returns its id. In the joined phase this is
// an O(1) amortized log append and overlay-index append under the shard lock,
// published atomically — visible to every scan that starts after Insert
// returns. In the split phase it is a lock-striped append to a private log
// (no shard lock, no snapshot publish, no duplicate check): the coordinator
// merges last-writer-wins within the staleness bound, and a duplicate insert
// resolves to a no-op at merge rather than ErrDuplicate here. The compile
// cost is paid later, amortized, by the reconciler either way.
func (t *Set) Insert(raw []byte, enc []int32) (int32, error) {
	if len(enc) == 0 {
		return 0, ErrEmptyPattern
	}
	t.phaseMu.RLock()
	defer t.phaseMu.RUnlock()
	// The closed check lives inside the barrier: Close flushes the private
	// logs under the write side, so a split append that saw closed==false
	// is always captured by that final flush, never lost.
	if t.closed.Load() {
		return 0, ErrClosed
	}
	if t.phase.Load() == phaseSplit {
		id := t.nextID.Add(1) - 1
		t.logSplit(splitOp{
			seq: t.wseq.Add(1),
			e:   Entry{ID: id, Raw: append([]byte(nil), raw...), Enc: enc},
		})
		return id, nil
	}
	t.joinedWrites.Add(1)
	metJoinedWrites.Inc()
	t.wmu.RLock()
	defer t.wmu.RUnlock()
	shards := *t.shards.Load()
	s := shards[ShardOf(raw, len(shards))]
	s.mu.Lock()
	defer s.mu.Unlock()

	if _, dup := s.liveID[string(raw)]; dup {
		return 0, ErrDuplicate
	}
	id := t.nextID.Add(1) - 1
	ns := s.snap.Load().derive()
	s.applyInsert(ns, Entry{ID: id, Raw: append([]byte(nil), raw...), Enc: enc})
	s.publish(ns)
	return id, nil
}

// applyInsert records a new live pattern e in the writer state and stages it
// into ns. Caller holds mu and has checked e is not live.
func (s *Shard) applyInsert(ns *snapshot, e Entry) {
	s.liveID[string(e.Raw)] = e.ID
	s.liveBytes += len(e.Enc)
	s.maxLen = max(s.maxLen, len(e.Enc))
	s.pending = append(s.pending, op{e: e})
	s.stageInsert(ns, e)
}

// applyDelete retires the live pattern key (e carries its bytes) from the
// writer state and tombstones it in ns. Caller holds mu and has checked key
// is live.
func (s *Shard) applyDelete(ns *snapshot, key string, e Entry) {
	delete(s.liveID, key)
	s.liveBytes -= len(e.Enc)
	s.pending = append(s.pending, op{del: true, e: e})
	s.stageDelete(ns, key, len(e.Enc))
}

// publish makes ns the shard's snapshot and checks the rebuild trigger.
// Caller holds mu.
func (s *Shard) publish(ns *snapshot) {
	s.snap.Store(ns)
	s.set.maybeSchedule(s, ns)
}

// Delete removes a live pattern (by content). Joined phase: an O(1) log
// append plus a tombstone bit (one copied bitset page), published
// atomically. Split
// phase: a private-log append with no liveness check — deleting an absent
// pattern resolves to a no-op at merge rather than ErrNotFound here.
func (t *Set) Delete(raw []byte, enc []int32) error {
	if len(enc) == 0 {
		return ErrEmptyPattern
	}
	t.phaseMu.RLock()
	defer t.phaseMu.RUnlock()
	if t.closed.Load() {
		return ErrClosed
	}
	if t.phase.Load() == phaseSplit {
		t.logSplit(splitOp{
			seq: t.wseq.Add(1),
			del: true,
			e:   Entry{ID: -1, Raw: append([]byte(nil), raw...), Enc: enc},
		})
		return nil
	}
	t.joinedWrites.Add(1)
	metJoinedWrites.Inc()
	t.wmu.RLock()
	defer t.wmu.RUnlock()
	shards := *t.shards.Load()
	s := shards[ShardOf(raw, len(shards))]
	s.mu.Lock()
	defer s.mu.Unlock()

	key := string(raw)
	id, ok := s.liveID[key]
	if !ok {
		return ErrNotFound
	}
	ns := s.snap.Load().derive()
	s.applyDelete(ns, key, Entry{ID: id, Raw: append([]byte(nil), raw...), Enc: enc})
	s.publish(ns)
	return nil
}

// Export returns a copy of every live pattern's raw bytes, in unspecified
// order. It locks each shard in turn, so the result is per-shard consistent:
// a write completed before Export began is included, a write racing it is
// included or not atomically. Used to freeze the live set into an immutable
// engine (e.g. a streaming snapshot) without replaying the mutation history.
// Split-phase writes still sitting in private logs are flushed first so the
// export honors the same completed-write guarantee in either phase.
func (t *Set) Export() [][]byte {
	t.Flush()
	t.wmu.RLock()
	defer t.wmu.RUnlock()
	var out [][]byte
	for _, s := range *t.shards.Load() {
		s.mu.Lock()
		for key := range s.liveID {
			out = append(out, []byte(key))
		}
		s.mu.Unlock()
	}
	return out
}

// Has reports whether the pattern is live. In the split phase the answer may
// lag private-log appends by the staleness bound (call Flush first for a
// merged view).
func (t *Set) Has(raw []byte) bool {
	t.wmu.RLock()
	defer t.wmu.RUnlock()
	shards := *t.shards.Load()
	s := shards[ShardOf(raw, len(shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.liveID[string(raw)]
	return ok
}

// maybeSchedule enqueues the shard for reconciliation once its log crosses
// the amortization threshold. Called with the shard's mu held.
func (t *Set) maybeSchedule(s *Shard, sn *snapshot) {
	trigger := (t.maxPendingOps > 0 && sn.pendOps >= t.maxPendingOps) ||
		(sn.pendBytes >= t.minPendingBytes && 4*sn.pendBytes >= s.baseBytes)
	if !trigger {
		return
	}
	if s.queued.Swap(true) {
		return // already queued or being rebuilt
	}
	select {
	case t.rebuildCh <- s:
	default:
		// Channel full: back off; the next write re-triggers.
		s.queued.Store(false)
	}
}

// reconciler is the background goroutine that drains rebuild requests.
func (t *Set) reconciler() {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case s := <-t.rebuildCh:
			t.rebuild(s)
		}
	}
}

// Reconcile synchronously compiles every shard's pending log into its base
// (test and admin hook; the steady-state path is the background reconciler).
// Split-phase private logs are flushed first so nothing is left behind.
func (t *Set) Reconcile() {
	t.Flush()
	for _, s := range *t.shards.Load() {
		s.mu.Lock()
		dirty := len(s.pending) > 0
		s.mu.Unlock()
		if dirty {
			t.rebuild(s)
		}
	}
}

// rebuild compiles a shard's effective pattern set into a fresh base and
// swaps it in. Readers are never blocked: they keep pinning the old snapshot
// until the single atomic Store. Writers are blocked only for the two short
// critical sections (capture and swap), never for the compile itself.
func (t *Set) rebuild(s *Shard) {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if s.retired.Load() {
		s.queued.Store(false)
		return
	}
	t0 := time.Now()

	// Capture: the snapshot to fold and how much of the log it covers.
	s.mu.Lock()
	sn := s.snap.Load()
	k := len(s.pending)
	s.mu.Unlock()

	if gate := t.gate.Load(); gate != nil {
		(*gate)()
	}

	// Compile off the hot path. The snapshot is immutable, so reading it
	// outside the lock is safe.
	eff := make([]Entry, 0, len(sn.baseEnt)-sn.delBase.n+sn.liveAdds())
	for i, e := range sn.baseEnt {
		if !sn.delBase.has(int32(i)) {
			eff = append(eff, e)
		}
	}
	for i, e := range sn.adds {
		if !sn.delAdds.has(int32(i)) {
			eff = append(eff, e)
		}
	}
	encs := make([][]int32, len(eff))
	effLen := make([]int32, len(eff))
	baseBytes := 0
	for i := range eff {
		encs[i] = eff[i].Enc
		effLen[i] = int32(len(eff[i].Enc))
		baseBytes += len(eff[i].Enc)
	}
	c := t.newCtx()
	base, err := t.compile(c, encs)
	if err != nil {
		// Cannot happen for a log validated at write time; count and retreat
		// (the old snapshot stays live and correct via its overlay).
		t.rebuildErrs.Add(1)
		metRebuildErrs.Inc()
		s.queued.Store(false)
		return
	}
	newIdx := make(map[string]int32, len(eff))
	for i := range eff {
		newIdx[string(eff[i].Raw)] = int32(i)
	}

	// Swap: replay whatever arrived during the compile onto the new base,
	// through the same staging as a write, then publish. One pointer store;
	// readers never wait. A replayed delete's target was live when logged, so
	// it is in the new base or an earlier replayed insert.
	s.mu.Lock()
	rem := s.pending[k:]
	s.pending = append([]op(nil), rem...)
	s.baseIdx = newIdx
	s.addIdx = map[string]int32{}
	s.baseBytes = baseBytes
	s.maxLen = base.MaxLen()
	ns := &snapshot{base: base, baseEnt: eff, baseLen: effLen, epoch: sn.epoch + 1}
	for _, o := range rem {
		if o.del {
			s.stageDelete(ns, string(o.e.Raw), len(o.e.Enc))
		} else {
			s.maxLen = max(s.maxLen, len(o.e.Enc))
			s.stageInsert(ns, o.e)
		}
	}
	s.snap.Store(ns)
	s.queued.Store(false)
	s.mu.Unlock()

	t.swaps.Add(1)
	t.rebuilds.Add(1)
	metSwaps.Inc()
	metRebuilds.Inc()
	metRebuildNs.Observe(time.Since(t0).Nanoseconds())
	t.reconWork.Add(c.Work())
	t.reconDepth.Add(c.Depth())

	// Re-check the trigger: the compile may have raced a burst of writes
	// large enough to warrant another pass immediately.
	s.mu.Lock()
	t.maybeSchedule(s, s.snap.Load())
	s.mu.Unlock()
}

// Replace atomically substitutes the whole dictionary: every pattern set is
// compiled into fresh shards off-line, then the shard array is swapped in one
// store. Scans in flight finish against the old shards; scans starting after
// Replace returns see exactly the new dictionary. Entries must be distinct by
// content and non-empty (enforced here); ids are freshly assigned.
func (t *Set) Replace(raws [][]byte, encs [][]int32) error {
	if t.closed.Load() {
		return ErrClosed
	}
	// Serialize against merges and transitions, and fold any split-phase
	// private logs into the old world first; writes logged during the compile
	// below raced Replace and merge onto the new shards afterwards, which the
	// racing-write contract allows.
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	t.flushLocked()
	nShards := t.Shards()
	buckets := make([][]Entry, nShards)
	seen := make(map[string]bool, len(raws))
	for i := range raws {
		if len(encs[i]) == 0 {
			return ErrEmptyPattern
		}
		key := string(raws[i])
		if seen[key] {
			return ErrDuplicate
		}
		seen[key] = true
		id := t.nextID.Add(1) - 1
		si := ShardOf(raws[i], nShards)
		buckets[si] = append(buckets[si], Entry{ID: id, Raw: append([]byte(nil), raws[i]...), Enc: encs[i]})
	}

	// Compile every shard's base off-line, in parallel.
	shards := make([]*Shard, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for si := 0; si < nShards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			ents := buckets[si]
			pats := make([][]int32, len(ents))
			for i := range ents {
				pats[i] = ents[i].Enc
			}
			base, err := t.compile(t.newCtx(), pats)
			if err != nil {
				errs[si] = err
				return
			}
			shards[si] = t.freshShard(ents, base)
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	t.wmu.Lock()
	old := *t.shards.Load()
	for _, s := range old {
		s.retired.Store(true)
	}
	t.shards.Store(&shards)
	t.wmu.Unlock()
	t.swaps.Add(int64(nShards))
	metSwaps.Add(int64(nShards))
	return nil
}

// Close stops the reconciler and the phase coordinator. In-flight scans
// finish normally; mutations after Close return ErrClosed. Split-phase writes
// that completed before Close are flushed into the shards — the closed flag
// flips under the same barrier the writers hold for read, so no accepted
// write is lost.
func (t *Set) Close() {
	t.mergeMu.Lock()
	t.phaseMu.Lock()
	if t.closed.Swap(true) {
		t.phaseMu.Unlock()
		t.mergeMu.Unlock()
		return
	}
	t.applyCaptured(t.captureLocked())
	t.phase.Store(phaseJoined)
	t.phaseMu.Unlock()
	t.mergeMu.Unlock()
	close(t.quit)
	t.wg.Wait()
}

// Stats is a point-in-time summary of the set.
type Stats struct {
	Shards          int
	Patterns        int    // live patterns
	Bytes           int    // Σ encoded length of live patterns
	MaxLen          int    // high-water longest live pattern
	PendingOps      int    // log records awaiting reconciliation, all shards
	PendingBytes    int    // Σ encoded length over those records
	Epoch           uint64 // max shard epoch (base recompiles survived)
	SnapshotSwaps   int64  // snapshot publishes by rebuild/Replace
	Rebuilds        int64  // background base recompiles
	RebuildErrors   int64
	ReconcileWork   int64 // PRAM work spent compiling bases off the hot path
	ReconcileDepth  int64
	PinnedSnapshots int64 // readers currently inside a scan

	// Phase reconciliation (see phase.go).
	WritePhase      string // current operating phase: "joined" | "split"
	WriteMode       string // requested policy: "joined" | "auto" | "split"
	PhaseSwitches   int64  // joined↔split transitions
	JoinedWrites    int64  // mutations that took the locked shard path
	SplitWrites     int64  // mutations appended to private logs
	SplitPendingOps int64  // private-log ops not yet merged
	Merges          int64  // private-log merge passes
	MergedOps       int64  // ops folded in by those passes
}

// Stats sums the per-shard state under each shard's writer lock (cheap: no
// reader or reconciler interaction beyond the mutex).
func (t *Set) Stats() Stats {
	shards := *t.shards.Load()
	st := Stats{
		Shards:          len(shards),
		SnapshotSwaps:   t.swaps.Load(),
		Rebuilds:        t.rebuilds.Load(),
		RebuildErrors:   t.rebuildErrs.Load(),
		ReconcileWork:   t.reconWork.Load(),
		ReconcileDepth:  t.reconDepth.Load(),
		PinnedSnapshots: t.pinned.Load(),
		WritePhase:      phaseName(t.phase.Load()),
		WriteMode:       modeName(t.mode.Load()),
		PhaseSwitches:   t.phaseSwitches.Load(),
		JoinedWrites:    t.joinedWrites.Load(),
		SplitWrites:     t.splitWrites.Load(),
		SplitPendingOps: t.splitLogged.Load(),
		Merges:          t.merges.Load(),
		MergedOps:       t.mergedOps.Load(),
	}
	for _, s := range shards {
		s.mu.Lock()
		st.Patterns += len(s.liveID)
		st.Bytes += s.liveBytes
		if s.maxLen > st.MaxLen {
			st.MaxLen = s.maxLen
		}
		sn := s.snap.Load()
		st.PendingOps += sn.pendOps
		st.PendingBytes += sn.pendBytes
		if sn.epoch > st.Epoch {
			st.Epoch = sn.epoch
		}
		s.mu.Unlock()
	}
	return st
}
