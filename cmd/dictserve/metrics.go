package main

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pardict"
	"pardict/internal/obs"
	"pardict/internal/shard"
	"pardict/internal/trace"
)

// latencyBoundsNs are the scan-latency histogram buckets, in nanoseconds:
// 100µs to 10s, roughly 2.5×–4× apart — wide enough to cover both a cache-hot
// small scan and a deadline-bounded worst case.
var latencyBoundsNs = []int64{
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000, 100_000_000, 250_000_000,
	500_000_000, 1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// serverMetrics is the serving-path observability state: request counts per
// endpoint and status, the scan-latency histogram, the outcome counters the
// request-cancel/timeout plumbing feeds, and the accumulated engine
// Work/Depth of every completed scan. The scheduler's own counters live on
// the pool (pardict.SchedulerStats); /metrics renders both.
type serverMetrics struct {
	scanLatency *obs.Histogram // ns per matching call (scan and scanbatch)

	timeouts    obs.Counter // 504: per-request deadline expired mid-match
	cancels     obs.Counter // client disconnected mid-match; nothing written
	matchErrors obs.Counter // 500: genuine engine failure

	engineWork  obs.Counter // sum of Stats().Work over completed matches
	engineDepth obs.Counter // sum of Stats().Depth over completed matches
	texts       obs.Counter // texts scanned (batch counts each text)
	bytes       obs.Counter // text bytes scanned

	mu       sync.Mutex
	requests map[reqKey]int64
}

type reqKey struct {
	endpoint string
	code     int
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		scanLatency: obs.NewHistogram(latencyBoundsNs),
		requests:    map[reqKey]int64{},
	}
}

// countRequest records one finished request. code 0 means "nothing written"
// (client disconnect), tracked under its own synthetic code so the rate of
// abandoned requests stays visible.
func (m *serverMetrics) countRequest(endpoint string, code int) {
	m.mu.Lock()
	m.requests[reqKey{endpoint, code}]++
	m.mu.Unlock()
}

// recordScan accumulates the per-text engine cost of one completed match.
func (m *serverMetrics) recordScan(st pardict.Stats, textBytes int) {
	m.engineWork.Add(st.Work)
	m.engineDepth.Add(st.Depth)
	m.texts.Inc()
	m.bytes.Add(int64(textBytes))
}

// promWriter renders the Prometheus text exposition format, by hand — the
// format is a few fmt.Fprintf shapes and pulling in a client library for it
// would be the project's first dependency. It tracks which series names have
// already had their HELP/TYPE header written, so a name rendered from two
// code paths (or the same series with different label sets) gets its metadata
// exactly once per scrape, as the exposition format requires.
type promWriter struct {
	w    io.Writer
	seen map[string]bool
}

func (pw *promWriter) header(name, typ, help string) {
	if pw.seen[name] {
		return
	}
	pw.seen[name] = true
	fmt.Fprintf(pw.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (pw *promWriter) counter(name, help string, v int64) {
	pw.header(name, "counter", help)
	fmt.Fprintf(pw.w, "%s %d\n", name, v)
}

func (pw *promWriter) gauge(name, help string, v int64) {
	pw.header(name, "gauge", help)
	fmt.Fprintf(pw.w, "%s %d\n", name, v)
}

func (pw *promWriter) gaugeF(name, help string, v float64) {
	pw.header(name, "gauge", help)
	fmt.Fprintf(pw.w, "%s %g\n", name, v)
}

// labeled emits one sample of a labeled series; labels alternate key, value
// and the values are escaped per the exposition format. The header must
// already carry the right type via a prior header call with the same name.
func (pw *promWriter) labeled(name, typ, help string, v float64, labels ...string) {
	pw.header(name, typ, help)
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", labels[i], escapeLabel(labels[i+1]))
	}
	fmt.Fprintf(pw.w, "%s{%s} %g\n", name, b.String(), v)
}

func (pw *promWriter) histogram(name, help string, h obs.HistSnapshot) {
	pw.header(name, "histogram", help)
	// A snapshot from a never-observed histogram may carry no buckets at all;
	// it still renders as a valid all-zero histogram.
	var cum int64
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		fmt.Fprintf(pw.w, "%s_bucket{le=\"%g\"} %d\n", name, float64(b)/1e9, cum)
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Counts)-1]
	}
	fmt.Fprintf(pw.w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(pw.w, "%s_sum %g\n", name, float64(h.Sum)/1e9)
	fmt.Fprintf(pw.w, "%s_count %d\n", name, h.Count)
}

// escapeLabel escapes a label value per the text exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// buildVersion resolves the module version recorded in the binary ("dev" for
// plain `go build` of a working tree).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}

// handleMetrics renders everything through one promWriter, so every series
// gets HELP/TYPE exactly once regardless of how many samples or call sites
// contribute to it.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := s.metrics
	pw := &promWriter{w: w, seen: map[string]bool{}}

	pw.labeled("pardict_build_info", "gauge", "Build and runtime identity (value is always 1).", 1,
		"version", buildVersion(), "go", runtime.Version(),
		"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0)))

	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		pw.labeled("pardict_requests_total", "counter",
			"Finished HTTP requests by endpoint and status code (code 0: client gone, nothing written).",
			float64(m.requests[k]), "endpoint", k.endpoint, "code", fmt.Sprint(k.code))
	}
	m.mu.Unlock()

	pw.histogram("pardict_scan_latency_seconds", "Matching latency per scanned text.", m.scanLatency.Snapshot())

	counter := pw.counter
	gauge := pw.gauge
	histogram := pw.histogram

	slo := s.slo.Snapshot()
	pw.gaugeF("pardict_slo_target_seconds", "Configured latency target.", float64(slo.TargetNs)/1e9)
	pw.gaugeF("pardict_slo_objective", "Configured success-fraction objective.", slo.Objective)
	pw.gaugeF("pardict_slo_window_seconds", "Sliding-window length the SLO is measured over.", slo.WindowSeconds)
	gauge("pardict_slo_requests_window", "Matching requests observed in the current window.", slo.Count)
	gauge("pardict_slo_breaches_window", "Requests over the latency target in the current window.", slo.Breaches)
	for _, qv := range []struct {
		q  string
		ns int64
	}{{"0.5", slo.P50}, {"0.9", slo.P90}, {"0.99", slo.P99}, {"0.999", slo.P999}} {
		pw.labeled("pardict_slo_latency_seconds", "gauge",
			"Windowed matching-latency quantiles (bucket upper bounds).",
			float64(qv.ns)/1e9, "quantile", qv.q)
	}
	pw.gaugeF("pardict_slo_burn_rate", "Error-budget burn rate ((breach fraction)/(1-objective)); >1 violates the SLO.", slo.BurnRate)

	ts := trace.Default.RecorderStats()
	gauge("pardict_trace_sample_every", "Trace sampling rate (1-in-k requests; 0 = disabled).", int64(ts.SampleEvery))
	counter("pardict_trace_started_total", "Request traces begun (sampled in).", ts.Started)
	counter("pardict_trace_finished_total", "Request traces finished and retained or discarded.", ts.Finished)
	counter("pardict_trace_sampled_out_total", "Requests skipped by trace sampling.", ts.SampledOut)
	gauge("pardict_trace_retained", "Traces currently held in the slowest-N reservoir.", int64(ts.Retained))

	counter("pardict_scan_timeouts_total", "Scans aborted by the per-request deadline (HTTP 504).", m.timeouts.Load())
	counter("pardict_scan_cancels_total", "Scans aborted by client disconnect.", m.cancels.Load())
	counter("pardict_scan_errors_total", "Scans failed with a genuine engine error (HTTP 500).", m.matchErrors.Load())
	counter("pardict_engine_work_total", "Accumulated PRAM work (element operations) of completed matches.", m.engineWork.Load())
	counter("pardict_engine_depth_total", "Accumulated PRAM depth (dependent parallel phases) of completed matches.", m.engineDepth.Load())
	counter("pardict_texts_scanned_total", "Texts matched (each batch entry counts once).", m.texts.Load())
	counter("pardict_bytes_scanned_total", "Text bytes matched.", m.bytes.Load())

	sst := s.m.Stats()
	pw.labeled("pardict_dictionary_info", "gauge", "Dictionary shape (value is always 1).", 1,
		"engine", "sharded")
	gauge("pardict_dictionary_patterns", "Live pattern count.", int64(sst.Patterns))
	gauge("pardict_dictionary_max_len", "Longest live pattern length m (high-water).", int64(sst.MaxLen))
	gauge("pardict_dictionary_bytes", "Total live pattern size M.", int64(sst.Size))

	gauge("pardict_shard_count", "Dictionary partition count S.", int64(sst.Shards))
	gauge("pardict_shard_pending_ops", "Mutation-log records awaiting reconciliation, all shards.", int64(sst.PendingOps))
	gauge("pardict_shard_pending_bytes", "Encoded pattern bytes in unreconciled log records.", int64(sst.PendingBytes))
	gauge("pardict_shard_epoch", "Max shard snapshot generation.", int64(sst.Epoch))
	gauge("pardict_shard_pinned_snapshots", "Scans currently holding shard snapshots pinned.", sst.PinnedSnapshots)
	counter("pardict_shard_snapshot_swaps_total", "Snapshot publishes (rebuilds and reloads).", sst.SnapshotSwaps)
	counter("pardict_shard_rebuilds_total", "Background engine recompiles completed.", sst.Rebuilds)
	counter("pardict_shard_rebuild_errors_total", "Background engine recompiles failed.", sst.RebuildErrors)
	counter("pardict_shard_reconcile_work_total", "Accumulated PRAM work of background rebuilds.", sst.ReconcileWork)
	counter("pardict_shard_reconcile_depth_total", "Accumulated PRAM depth of background rebuilds.", sst.ReconcileDepth)
	gm := shard.GlobalMetrics()
	histogram("pardict_shard_rebuild_seconds", "Wall time per background shard rebuild (process-wide).",
		gm.RebuildNs)

	pw.labeled("pardict_shard_write_phase", "gauge",
		"Mutation-coordination state: requested mode and operating phase (value is always 1).", 1,
		"mode", sst.WriteMode, "phase", sst.WritePhase)
	splitNow := int64(0)
	if sst.WritePhase == "split" {
		splitNow = 1
	}
	gauge("pardict_shard_phase_split", "1 while the split (private-log) write phase is operating.", splitNow)
	counter("pardict_shard_phase_switches_total", "Joined-split write-phase transitions.", sst.PhaseSwitches)
	counter("pardict_shard_joined_writes_total", "Mutations through the locked per-shard path.", sst.JoinedWrites)
	counter("pardict_shard_split_writes_total", "Mutations appended to split-phase private logs.", sst.SplitWrites)
	gauge("pardict_shard_split_pending_ops", "Private-log records accepted but not yet merged.", sst.SplitPendingOps)
	counter("pardict_shard_merges_total", "Private-log merge passes completed.", sst.Merges)
	counter("pardict_shard_merged_ops_total", "Private-log records folded into shard overlays.", sst.MergedOps)
	histogram("pardict_shard_merge_seconds", "Wall time per private-log merge pass (process-wide).",
		gm.MergeNs)

	active, gen, strm := s.stream.stats()
	gauge("pardict_stream_sessions", "Open multiplexed streams.", int64(active))
	gauge("pardict_stream_generation", "Dictionary mutations observed by the streaming tier.", int64(gen))
	counter("pardict_stream_creates_total", "Streams opened over the tier's lifetime.", s.stream.creates.Load())
	counter("pardict_stream_evictions_total", "Streams evicted for idleness.", s.stream.evictions.Load())
	counter("pardict_stream_events_dropped_total", "Match events dropped on full per-stream buffers.", s.stream.dropped.Load())
	counter("pardict_stream_fed_bytes_total", "Bytes accepted into stream queues (current engine).", strm.FedBytes)
	counter("pardict_stream_batches_total", "Batched scan phases executed (current engine).", strm.Batches)
	counter("pardict_stream_batch_streams_total", "Sum of streams per batch (current engine).", strm.BatchStreams)
	gauge("pardict_stream_queued_bytes", "Bytes queued awaiting a scan phase (current engine).", strm.QueuedBytes)
	gauge("pardict_stream_carry_bytes", "Hold-back bytes across open sessions (current engine).", strm.CarryBytes)
	histogram("pardict_stream_latency_seconds", "Chunk accept-to-scan-complete latency (current engine).",
		obs.HistSnapshot{Bounds: strm.Latency.Bounds, Counts: strm.Latency.Counts,
			Count: strm.Latency.Count, Sum: strm.Latency.Sum})

	lzs := pardict.ReadLZStats()
	counter("pardict_lz_phrases_parsed_total", "LZ phrases emitted by Compress.", lzs.Phrases)
	counter("pardict_lz_windows_scanned_total", "Phrase-boundary window segments scanned by MatchCompressed.", lzs.WindowsScanned)
	counter("pardict_lz_window_bytes_total", "Positions handed to the engine inside window segments (with lookahead).", lzs.WindowBytes)
	counter("pardict_lz_interior_translated_total", "Positions resolved by occurrence translation instead of a scan.", lzs.InteriorTranslated)
	counter("pardict_lz_bytes_skipped_total", "Decoded positions MatchCompressed never scanned.", lzs.BytesSkipped)

	st := s.m.SchedulerStats()
	counter("pardict_scheduler_phases_total", "Parallel phases issued (including inline short phases).", st.Phases)
	counter("pardict_scheduler_pooled_phases_total", "Phases fanned out to the worker pool.", st.PooledPhases)
	counter("pardict_scheduler_chunks_total", "Grain-sized chunks executed by pooled phases.", st.Chunks)
	counter("pardict_scheduler_steals_total", "Chunks claimed outside the claimant's own span.", st.Steals)
	counter("pardict_scheduler_parks_total", "Worker park events between phases.", st.Parks)
	counter("pardict_scheduler_unparks_total", "Worker wake events.", st.Unparks)
	counter("pardict_scheduler_grain_sum", "Sum of per-phase chosen grains (divide by phases for the mean).", st.GrainSum)
	counter("pardict_scheduler_queue_sum", "Sum of active-phase occupancy samples at submit.", st.QueueSum)
	gauge("pardict_scheduler_queue_max", "Peak concurrently active phases.", st.QueueMax)
	counter("pardict_prefilter_scanned_total", "Text positions examined by the shard bases' prefilter screen.", st.PrefilterScanned)
	counter("pardict_prefilter_skipped_total", "Examined positions the screen let the cascade skip (survivor fraction = 1 - skipped/scanned).", st.PrefilterSkipped)
}

// currentVars points expvar at the most recently constructed server: expvar's
// registry is process-global and Publish panics on re-registration, so the
// (test-friendly) contract is "the latest server wins".
var currentVars atomic.Pointer[server]

var publishVarsOnce sync.Once

// publishVars registers the "pardict" expvar exactly once per process; the
// published Func re-reads whatever server is current at scrape time.
func publishVars() {
	publishVarsOnce.Do(func() {
		expvar.Publish("pardict", expvar.Func(func() any {
			s := currentVars.Load()
			if s == nil {
				return nil
			}
			return s.varsSnapshot()
		}))
	})
}

// varsSnapshot is the /debug/vars view: the same counters as /metrics, as a
// JSON object.
func (s *server) varsSnapshot() map[string]any {
	m := s.metrics
	lat := m.scanLatency.Snapshot()
	m.mu.Lock()
	reqs := map[string]int64{}
	for k, v := range m.requests {
		reqs[fmt.Sprintf("%s:%d", k.endpoint, k.code)] = v
	}
	m.mu.Unlock()
	st := s.m.SchedulerStats()
	sst := s.m.Stats()
	active, gen, strm := s.stream.stats()
	slo := s.slo.Snapshot()
	return map[string]any{
		"slo": map[string]any{
			"target_ms": float64(slo.TargetNs) / 1e6, "objective": slo.Objective,
			"window_s": slo.WindowSeconds, "requests": slo.Count, "breaches": slo.Breaches,
			"p50_ms": float64(slo.P50) / 1e6, "p99_ms": float64(slo.P99) / 1e6,
			"p999_ms": float64(slo.P999) / 1e6, "burn_rate": slo.BurnRate,
		},
		"trace": trace.Default.RecorderStats(),
		"stream": map[string]any{
			"sessions": active, "generation": gen,
			"creates":        s.stream.creates.Load(),
			"evictions":      s.stream.evictions.Load(),
			"events_dropped": s.stream.dropped.Load(),
			"engine":         strm,
		},
		"requests":          reqs,
		"scan_timeouts":     m.timeouts.Load(),
		"scan_cancels":      m.cancels.Load(),
		"scan_errors":       m.matchErrors.Load(),
		"engine_work":       m.engineWork.Load(),
		"engine_depth":      m.engineDepth.Load(),
		"texts_scanned":     m.texts.Load(),
		"bytes_scanned":     m.bytes.Load(),
		"scan_latency_ms":   float64(lat.Sum) / 1e6,
		"scans":             lat.Count,
		"dictionary":        map[string]any{"engine": "sharded", "patterns": sst.Patterns, "max_len": sst.MaxLen, "bytes": sst.Size},
		"shard":             sst,
		"scheduler":         st,
		"scheduler_derived": map[string]float64{"mean_grain": st.MeanGrain(), "mean_queue": st.MeanQueue()},
	}
}

// observeLatency records one matching call's wall time.
func (m *serverMetrics) observeLatency(d time.Duration) {
	m.scanLatency.Observe(d.Nanoseconds())
}
