package main

import (
	"context"
	"fmt"
	"math/bits"
	"net/http"
	"runtime"
	"sort"
	"time"

	"pardict"
	"pardict/internal/core"
	"pardict/internal/pram"
	"pardict/internal/prefilter"
)

// maxSamples bounds the call times kept per layer; the buffers are
// allocated up front so that recording a sample never allocates inside the
// measured region.
const maxSamples = 1 << 16

// allocCalls is how many calls of each layer, run alone, its allocation
// counts are averaged over.
const allocCalls = 16

// rungStats is one layer timed from outside: the median call time per text
// byte, and the heap allocations of its calls.
type rungStats struct {
	nsPerByte     float64
	calls         int
	allocsPerCall float64
	bytesPerCall  float64
}

// block is the least time one layer runs before the next takes over in a
// ladder pass.
const block = 20 * time.Millisecond

// timeRungs times several layers on the same texts. The layers take turns
// in rounds, so a drift of the host during the pass reaches every layer
// alike. In each round a layer is called for at least block and at least
// twice; the first call of each turn only warms the caches the previous
// layer evicted and is not counted. Each layer reports the median of its
// counted call times per byte, over at least three rounds and budget in
// all, and is then called allocCalls times alone to count its heap
// allocations. All texts of a run have the same length.
func timeRungs(texts [][]byte, budget time.Duration, fs ...func(i int)) []rungStats {
	runtime.GC()
	lat := make([][]time.Duration, len(fs))
	for j := range lat {
		lat[j] = make([]time.Duration, 0, maxSamples)
	}
	next := make([]int, len(fs)) // next text per layer
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for j, f := range fs {
			end := time.Now().Add(block)
			for k := 0; k < 2 || time.Now().Before(end); k++ {
				t := time.Now()
				f(next[j] % len(texts))
				d := time.Since(t)
				next[j]++
				if k > 0 && len(lat[j]) < maxSamples {
					lat[j] = append(lat[j], d)
				}
			}
		}
	}
	out := make([]rungStats, len(fs))
	for j, f := range fs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < allocCalls; i++ {
			f(i % len(texts))
		}
		runtime.ReadMemStats(&m1)
		out[j] = rungStats{
			nsPerByte:     float64(quantile(lat[j], 0.5)) / float64(len(texts[0])),
			calls:         len(lat[j]),
			allocsPerCall: float64(m1.Mallocs-m0.Mallocs) / allocCalls,
			bytesPerCall:  float64(m1.TotalAlloc-m0.TotalAlloc) / allocCalls,
		}
	}
	return out
}

// rung is one row of the ladder table.
type rung struct {
	name      string
	nsPerByte float64
}

// runTraced is the per-layer pass. Each layer's exported entry point is
// called on the run's own texts: the wide prefilter kernel, the
// shrink-and-spawn cascade, the public Matcher and the ShardedMatcher,
// interleaved; then the ShardedMatcher's write path, and dictserve over HTTP
// with tracing on. Served workloads then run their traffic against an
// untraced and a traced server for the scheduler counters and the cost of
// tracing.
func (r *run) runTraced() error {
	texts := r.in.bodies
	encDict := make([][]int32, len(r.in.dict))
	for i, p := range r.in.dict {
		encDict[i] = encode(p)
	}
	encTexts := make([][]int32, len(texts))
	for i, t := range texts {
		encTexts[i] = encode(t)
	}
	o, err := newOracle(r.in.dict)
	if err != nil {
		return err
	}

	// The prefilter kernel runs single-threaded over whole texts.
	filt := prefilter.Build(encDict)
	words := (len(encTexts[0]) + 63) / 64
	cand := make([]uint64, words)
	kernel := func(i int) { filt.ScanWordsWide(encTexts[i], cand, 0, words) }

	// The cascade, Dict.MatchInto, runs with the screen off on the shared
	// pool the public matchers use.
	pool := pram.Shared(0)
	dict, err := core.Preprocess(pram.NewCtx(nil, pool), encDict)
	if err != nil {
		return fmt.Errorf("core.Preprocess: %w", err)
	}
	res := make([]core.Result, len(texts))
	var work, depth int64
	cascade := func(d *core.Dict) func(i int) {
		return func(i int) {
			c := pram.GetCtx(pool)
			d.MatchInto(c, encTexts[i], &res[i])
			work, depth = c.Work(), c.Depth()
			pram.PutCtx(c)
		}
	}

	// The public Matcher runs as the workload runs it: with the wide screen
	// on bulk-lowhit, without on the served workloads, whose shards have no
	// screen. The unscreened Matcher is the base of the shard fan-out factor.
	screen := r.w.body == bodyBulk
	plain, err := pardict.NewMatcher(r.in.dict)
	if err != nil {
		return err
	}
	m := plain
	if screen {
		if m, err = pardict.NewMatcher(r.in.dict, pardict.WithPrefilter(pardict.PrefilterOn)); err != nil {
			return err
		}
	}
	dsts := make([]*pardict.Matches, len(texts))
	plainDsts := make([]*pardict.Matches, len(texts))
	matcher := func(i int) { dsts[i] = m.MatchInto(dsts[i], texts[i]) }
	plainMatcher := func(i int) { plainDsts[i] = plain.MatchInto(plainDsts[i], texts[i]) }

	// The ShardedMatcher runs at the server's shard count.
	sm, err := pardict.NewShardedMatcher(pardict.WithShards(2 * runtime.GOMAXPROCS(0)))
	if err != nil {
		return err
	}
	defer sm.Close()
	if err := sm.Reload(r.in.dict); err != nil {
		return err
	}
	shardRes := make([]*pardict.ShardedMatches, len(texts))
	var shardWork int64
	sharded := func(i int) {
		sr, err := sm.MatchContext(context.Background(), texts[i])
		if err != nil {
			shardRes[i] = nil
			return
		}
		shardRes[i], shardWork = sr, sr.Stats().Work
	}

	fs := []func(int){kernel, cascade(dict), matcher, sharded}
	if screen {
		// The screened Matcher's self time is measured against a screened
		// cascade, and the shard fan-out against the unscreened Matcher.
		screened, err := core.Preprocess(pram.NewCtx(nil, pool), encDict)
		if err != nil {
			return fmt.Errorf("core.Preprocess: %w", err)
		}
		screened.EnablePrefilterWide()
		fs = append(fs, cascade(screened), plainMatcher)
	}
	for i := range texts {
		for _, f := range fs {
			f(i)
		}
	}
	st := timeRungs(texts, r.seconds/3, fs...)
	pre, cor, mat, sh := st[0], st[1], st[2], st[3]
	base, unscreened := cor, mat
	if screen {
		base, unscreened = st[4], st[5]
	} else {
		plainDsts = dsts
	}

	var alive, n int64
	for _, e := range encTexts {
		filt.ScanWordsWide(e, cand, 0, words)
		for _, w := range cand {
			alive += int64(bits.OnesCount64(w))
		}
		n += int64(len(e))
	}
	// work and depth hold the last cascade call's counts; make that a call
	// on the unscreened Dict.
	cascade(dict)(0)
	size := float64(len(texts[0]))
	r.set("prefilter.ns_per_byte", pre.nsPerByte)
	r.set("prefilter.pass_frac", float64(alive)/float64(n))
	r.set("core.ns_per_byte", cor.nsPerByte)
	r.set("core.work_per_byte", float64(work)/size)
	r.set("core.depth", float64(depth))
	r.set("core.allocs_per_scan", cor.allocsPerCall)
	r.set("matcher.ns_per_byte", mat.nsPerByte)
	r.set("matcher.self_ns_per_byte", mat.nsPerByte-base.nsPerByte)
	r.set("matcher.allocs_per_scan", mat.allocsPerCall)
	r.set("matcher.bytes_per_scan", mat.bytesPerCall)
	r.set("shard.ns_per_byte", sh.nsPerByte)
	r.set("shard.fanout_factor", sh.nsPerByte/unscreened.nsPerByte)
	r.set("shard.work_per_byte", float64(shardWork)/size)
	r.set("shard.allocs_per_scan", sh.allocsPerCall)
	r.set("shard.bytes_per_scan", sh.bytesPerCall)

	// Every layer's last output for every text must match the oracle. Shard
	// pattern ids are not dictionary indices, so shards are checked by count.
	for i, t := range texts {
		want := o.longest(t)
		r.attempted += 4
		res := res[i]
		cascadeOut := func(j int) (int, bool) { return int(res.Pat[j]), res.Pat[j] >= 0 }
		if err := checkLongest(cascadeOut, len(t), want); err != nil {
			r.fail("core text %d: %v", i, err)
		}
		for _, d := range []*pardict.Matches{dsts[i], plainDsts[i]} {
			if err := checkLongest(d.Longest, d.Len(), want); err != nil {
				r.fail("matcher text %d: %v", i, err)
			}
		}
		wantCount := 0
		for _, p := range want {
			if p >= 0 {
				wantCount++
			}
		}
		if shardRes[i] == nil {
			r.fail("shard text %d: scan failed", i)
		} else if got := shardRes[i].Count(); got != wantCount {
			r.fail("shard text %d: count %d, oracle %d", i, got, wantCount)
		}
	}

	if !r.w.served {
		// Bulk has no served traffic. Its scheduler counters come from the
		// Matcher alone in a closed loop, per call, and its tracing cost is
		// the ladder's median call time against that loop's.
		runtime.GC()
		calls := mat.calls
		lat := make([]time.Duration, 0, calls)
		s0 := m.SchedulerStats()
		for k := 0; k < calls; k++ {
			t := time.Now()
			matcher(k % len(texts))
			lat = append(lat, time.Since(t))
		}
		s1 := m.SchedulerStats()
		n := float64(calls)
		r.set("pram.phases_per_req", float64(s1.PooledPhases-s0.PooledPhases)/n)
		r.set("pram.steals_per_req", float64(s1.Steals-s0.Steals)/n)
		r.set("pram.parks_per_req", float64(s1.Parks-s0.Parks)/n)
		r.set("pram.mean_grain", ratio(s1.GrainSum-s0.GrainSum, s1.Phases-s0.Phases))
		r.set("trace.overhead_frac", mat.nsPerByte*size/float64(quantile(lat, 0.5))-1)
	}

	r.writeRung(sm)
	if err := r.httpRung(texts, r.seconds/6, sh.nsPerByte, o); err != nil {
		return err
	}
	if r.w.served {
		if err := r.tracedLoad(); err != nil {
			return err
		}
	}

	r.printLadder([]rung{
		{"prefilter", pre.nsPerByte},
		{"core", cor.nsPerByte},
		{"Matcher", mat.nsPerByte},
		{"ShardedMatcher", sh.nsPerByte},
		{"HTTP", r.metrics["http.ns_per_byte"]},
	})
	delete(r.metrics, "http.ns_per_byte")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeRung times the ShardedMatcher's write path: every ring pattern
// inserted, then every one deleted, with the background rebuilds they cause.
func (r *run) writeRung(sm *pardict.ShardedMatcher) {
	st0 := sm.Stats()
	ins := make([]time.Duration, 0, len(r.in.ring))
	del := make([]time.Duration, 0, len(r.in.ring))
	pending := 0
	for pass := 0; pass < 2; pass++ {
		for i, p := range r.in.ring {
			var err error
			t := time.Now()
			if pass == 0 {
				_, err = sm.Insert(p)
				ins = append(ins, time.Since(t))
			} else {
				err = sm.Delete(p)
				del = append(del, time.Since(t))
			}
			r.attempted++
			if err != nil {
				r.fail("shard write %q: %v", p, err)
			}
			if i%16 == 0 {
				if po := sm.Stats().PendingOps; po > pending {
					pending = po
				}
			}
		}
	}
	sm.Reconcile()
	st1 := sm.Stats()
	r.set("shard.insert_us", float64(quantile(ins, 0.5))/1e3)
	r.set("shard.delete_us", float64(quantile(del, 0.5))/1e3)
	r.set("shard.rebuilds", float64(st1.Rebuilds-st0.Rebuilds))
	r.set("shard.snapshot_swaps", float64(st1.SnapshotSwaps-st0.SnapshotSwaps))
	r.set("shard.reconcile_work", float64(st1.ReconcileWork-st0.ReconcileWork))
	r.set("shard.pending_ops_max", float64(pending))
	r.attempted++
	if st1.Patterns != len(r.in.dict) {
		r.fail("shard writes: %d patterns live after toggling the ring, want %d", st1.Patterns, len(r.in.dict))
	}
}

// memStats is the part of dictserve's /debug/vars the HTTP rung reads.
type memStats struct {
	MemStats struct {
		TotalAlloc uint64 `json:"TotalAlloc"`
		NumGC      uint32 `json:"NumGC"`
	} `json:"memstats"`
}

// traceDump is the part of dictserve's /debug/trace the HTTP rung reads.
type traceDump struct {
	Recent []struct {
		Name       string  `json:"name"`
		DurationUs float64 `json:"duration_us"`
		Spans      []struct {
			Name    string  `json:"name"`
			StartUs float64 `json:"start_us"`
			DurUs   float64 `json:"dur_us"`
		} `json:"spans"`
	} `json:"recent"`
}

// httpRung sends the run's texts one at a time to a dictserve started with
// tracing on, paced so that no request waits for another, and reads the
// server's allocation, GC and span records around them.
func (r *run) httpRung(texts [][]byte, budget time.Duration, shardNs float64, o *oracle) error {
	srv, err := r.startServers(true, 1)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	mode := r.w.mode
	if mode == "" || r.w.writes {
		mode = "count"
	}
	failedBefore := r.failed
	want := make([]int, len(texts))
	var wantAll [][]hit
	for i, t := range texts {
		if mode == "all" {
			wantAll = append(wantAll, o.all(t))
		} else {
			want[i] = o.count(t)
		}
	}
	send := func(i int) (int, error) {
		r.attempted++
		code, resp, err := c.do(http.MethodPost, "/scan?mode="+mode, texts[i])
		switch {
		case err != nil:
			r.fail("http rung: %v", err)
			return 0, err
		case code/100 != 2:
			r.fail("http rung: status %d", code)
			return 0, nil
		case mode == "all":
			err = checkAll(resp, wantAll[i])
		default:
			err = checkCount(resp, want[i], want[i])
		}
		if err != nil {
			r.fail("http rung text %d: %v", i, err)
		}
		return len(resp), nil
	}
	// Warm the connection and measure the pace: twice the uncontended
	// latency, so the server is idle whenever a request is due.
	var warm []time.Duration
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := send(i % len(texts)); err != nil {
			return err
		}
		warm = append(warm, time.Since(t))
	}
	pace := 2 * quantile(warm, 0.5)
	if pace < time.Millisecond {
		pace = time.Millisecond
	}
	var m0, m1 memStats
	if err := c.getJSON("/debug/vars", &m0); err != nil {
		return err
	}
	p0, err := c.scrapeMetrics()
	if err != nil {
		return err
	}
	var lat, late []time.Duration
	var respBytes int64
	start := time.Now()
	for i := 0; i < maxSamples; i++ {
		due := start.Add(time.Duration(i) * pace)
		if i >= 3 && due.Sub(start) >= budget {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t := time.Now()
		nb, err := send(i % len(texts))
		if err != nil {
			return err
		}
		lat = append(lat, time.Since(t))
		late = append(late, t.Sub(due))
		respBytes += int64(nb)
	}
	if err := c.getJSON("/debug/vars", &m1); err != nil {
		return err
	}
	p1, err := c.scrapeMetrics()
	if err != nil {
		return err
	}
	var td traceDump
	if err := c.getJSON(fmt.Sprintf("/debug/trace?recent=%d", len(lat)), &td); err != nil {
		return err
	}
	reqs := float64(len(lat))
	size := float64(len(texts[0]))
	p50 := quantile(lat, 0.5)
	r.set("http.ns_per_byte", float64(p50)/size)
	r.set("http.overhead_ms", ms(p50)-shardNs*size/1e6)
	r.set("http.resp_bytes_per_req", float64(respBytes)/reqs)
	r.set("http.alloc_bytes_per_req", float64(m1.MemStats.TotalAlloc-m0.MemStats.TotalAlloc)/reqs)
	r.set("http.gc_per_kreq", float64(m1.MemStats.NumGC-m0.MemStats.NumGC)*1000/reqs)
	errs := p1["pardict_scan_errors_total"] - p0["pardict_scan_errors_total"] +
		p1["pardict_scan_timeouts_total"] - p0["pardict_scan_timeouts_total"]
	r.set("http.errors", errs+float64(r.failed-failedBefore))
	r.set("gen.late_p99_ms", ms(quantile(late, 0.99)))
	shares := spanShares(td)
	for _, name := range []string{"encode", "shard", "merge"} {
		r.set("http.span_share."+name, shares[name])
	}
	r.report["http_latency"] = summarize(lat)
	r.report["http_traces"] = len(td.Recent)
	return nil
}

// spanShares is, per span name, the share of the traced scans' total
// duration that spans of that name cover. Parallel spans of one name (one
// per shard) count their union once.
func spanShares(td traceDump) map[string]float64 {
	covered := map[string]float64{}
	var total float64
	for _, t := range td.Recent {
		if t.Name != "scan" {
			continue
		}
		total += t.DurationUs
		byName := map[string][][2]float64{}
		for _, s := range t.Spans {
			byName[s.Name] = append(byName[s.Name], [2]float64{s.StartUs, s.StartUs + s.DurUs})
		}
		for name, iv := range byName {
			covered[name] += union(iv)
		}
	}
	out := map[string]float64{}
	for name, c := range covered {
		if total > 0 {
			out[name] = c / total
		}
	}
	return out
}

// union is the total length covered by a set of intervals.
func union(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, lo, hi float64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			sum += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return sum + hi - lo
}

// tracedLoad runs the workload's closed-loop traffic against an untraced and
// then a traced dictserve. The untraced server's scheduler counters give the
// pram metrics per request; the CPU cost per request of the two gives the
// tracing overhead.
func (r *run) tracedLoad() error {
	d := r.seconds / 4
	var cost [2]float64
	for i, traced := range []bool{false, true} {
		srv, err := r.startServers(traced, 1)
		if err != nil {
			return err
		}
		err = func() error {
			defer srv.stop()
			l := newLoad(r.w, r.in, srv.base)
			defer l.close()
			l.closed(warmupOps, time.Now().Add(time.Minute))
			c := newClient(srv.base)
			defer c.close()
			p0, err := c.scrapeMetrics()
			if err != nil {
				return err
			}
			var t closedTotals
			if err := l.measureClosed(srv.pid(), r.w.sized, d, &t); err != nil {
				return err
			}
			p1, err := c.scrapeMetrics()
			if err != nil {
				return err
			}
			cost[i] = ms(t.cpu) / t.done
			if !traced {
				delta := func(k string) float64 { return p1[k] - p0[k] }
				scans := delta("pardict_texts_scanned_total")
				r.set("pram.phases_per_req", delta("pardict_scheduler_pooled_phases_total")/scans)
				r.set("pram.steals_per_req", delta("pardict_scheduler_steals_total")/scans)
				r.set("pram.parks_per_req", delta("pardict_scheduler_parks_total")/scans)
				r.set("pram.mean_grain", delta("pardict_scheduler_grain_sum")/delta("pardict_scheduler_phases_total"))
			}
			if r.w.writes {
				r.probe(c, l.workers)
			}
			return r.verify(l)
		}()
		if err != nil {
			return err
		}
	}
	r.set("trace.overhead_frac", cost[1]/cost[0]-1)
	return nil
}

// printLadder writes the ladder table: each layer's ns per byte, and the
// factor between it and the layer below, with that base.
func (r *run) printLadder(rungs []rung) {
	fmt.Fprintf(r.out, "# ladder (%s, %d-byte texts)\n", r.w.name, len(r.in.bodies[0]))
	fmt.Fprintf(r.out, "%-16s %12s %10s  %s\n", "layer", "ns/byte", "factor", "base")
	for i, g := range rungs {
		if i == 0 {
			fmt.Fprintf(r.out, "%-16s %12.4f %10s  %s\n", g.name, g.nsPerByte, "-", "-")
			continue
		}
		b := rungs[i-1]
		fmt.Fprintf(r.out, "%-16s %12.4f %9.2fx  %s (%.4f ns/byte)\n",
			g.name, g.nsPerByte, g.nsPerByte/b.nsPerByte, b.name, b.nsPerByte)
	}
}
