package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"pardict"
	"pardict/internal/obs"
	"pardict/internal/trace"
)

// server is the HTTP handler wrapping one sharded matcher. Every method on
// ShardedMatcher is safe for concurrent use — scans pin RCU snapshots and
// never block on the mutation endpoints, so no server-level locking exists.
type server struct {
	m       *pardict.ShardedMatcher
	maxBody int64
	timeout time.Duration // per-request matching deadline; 0 = none
	mux     *http.ServeMux
	metrics *serverMetrics
	stream  *streamTier
	slo     *obs.SLO // sliding-window latency SLO over /scan and /scanbatch
}

// streamOpts configures the streaming tier (see newStreamTier); zero values
// select the defaults (no idle eviction, library queue bound, 1024 events).
type streamOpts struct {
	idle      time.Duration
	queue     int
	maxEvents int
}

// obsOpts configures the server's observability surface; zero values select
// the defaults (no pprof, 100ms target at 99.9% over a 60s window).
type obsOpts struct {
	debug        bool          // mount net/http/pprof under /debug/pprof/
	sloTarget    time.Duration // latency target (0 = 100ms)
	sloObjective float64       // success fraction (0 = 0.999)
	sloWindow    time.Duration // sliding window (0 = 60s)
}

func newServer(m *pardict.ShardedMatcher, maxBody int64, timeout time.Duration, so streamOpts, oo obsOpts) *server {
	if oo.sloTarget <= 0 {
		oo.sloTarget = 100 * time.Millisecond
	}
	if oo.sloObjective <= 0 {
		oo.sloObjective = 0.999
	}
	if oo.sloWindow <= 0 {
		oo.sloWindow = time.Minute
	}
	s := &server{m: m, maxBody: maxBody, timeout: timeout, mux: http.NewServeMux(),
		metrics: newServerMetrics(),
		slo:     obs.NewSLO(oo.sloTarget, oo.sloObjective, oo.sloWindow, 6)}
	s.stream = newStreamTier(s, so.idle, so.queue, so.maxEvents)
	s.mux.HandleFunc("/scan", s.handleScan)
	s.mux.HandleFunc("/scanbatch", s.handleScanBatch)
	s.mux.HandleFunc("/patterns", s.handlePatterns)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /stream", s.handleStreamCreate)
	s.mux.HandleFunc("POST /stream/{id}/feed", s.handleStreamFeed)
	s.mux.HandleFunc("GET /stream/{id}/events", s.handleStreamEvents)
	s.mux.HandleFunc("DELETE /stream/{id}", s.handleStreamDelete)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	if oo.debug {
		// net/http/pprof registers on the DefaultServeMux as a side effect of
		// its import; the server runs its own mux, so the handlers are wired
		// explicitly — and only when asked for.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	currentVars.Store(s)
	publishVars()
	return s
}

// traceResponse is the GET /debug/trace body: recorder state plus the
// slowest-N retained traces (and, with ?recent=K, up to K recently finished
// ones), each with its spans as offsets from the trace start.
type traceResponse struct {
	Enabled bool         `json:"enabled"`
	Stats   trace.Stats  `json:"stats"`
	Slowest []trace.Info `json:"slowest"`
	Recent  []trace.Info `json:"recent,omitempty"`
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	out := traceResponse{
		Enabled: trace.Default.Enabled(),
		Stats:   trace.Default.RecorderStats(),
		Slowest: trace.Default.Slowest(),
	}
	if k, _ := strconv.Atoi(r.URL.Query().Get("recent")); k > 0 {
		out.Recent = trace.Default.Recent(k)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// Close shuts down the streaming tier (open streams are drained and their
// engines stopped). Call after the HTTP listener has drained.
func (s *server) Close() { s.stream.Close() }

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// requestCtx derives the matching context for one request: the request's own
// context (canceled when the client disconnects) bounded by the configured
// per-request deadline.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// writeMatchErr maps a matching error to an HTTP response and returns the
// status code written: 504 when the per-request deadline expired, a silent
// return (code 0) only when the client itself went away (it cannot read a
// status anyway), and 500 for any other failure — a genuine engine error must
// never masquerade as an empty success.
func (s *server) writeMatchErr(w http.ResponseWriter, r *http.Request, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timeouts.Inc()
		http.Error(w, "scan deadline exceeded", http.StatusGatewayTimeout)
		return http.StatusGatewayTimeout
	case r.Context().Err() != nil:
		// The request's own context is dead: the client disconnected (or
		// its deadline fired client-side). Nothing useful to write.
		s.metrics.cancels.Inc()
		return 0
	default:
		s.metrics.matchErrors.Inc()
		http.Error(w, "scan failed: "+err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
}

// scanMatch is one reported occurrence.
type scanMatch struct {
	Pos     int    `json:"pos"`
	Pattern int    `json:"pattern"`
	Text    string `json:"text"`
}

type scanResponse struct {
	Count   int         `json:"count"`
	Matches []scanMatch `json:"matches,omitempty"`
}

func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	tr := trace.Start("scan")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		http.Error(w, "body too large or unreadable", http.StatusRequestEntityTooLarge)
		tr.SetStatus(http.StatusRequestEntityTooLarge)
		tr.Finish()
		return
	}
	tr.SetArg(int64(len(body)))
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ctx = trace.NewContext(ctx, tr)
	t0 := time.Now()
	res, err := s.m.MatchContext(ctx, body)
	d := time.Since(t0)
	s.metrics.observeLatency(d)
	s.slo.Observe(d.Nanoseconds())
	if err != nil {
		code := s.writeMatchErr(w, r, err)
		s.metrics.countRequest("scan", code)
		tr.SetStatus(code)
		tr.Finish()
		return
	}
	s.metrics.recordScan(res.Stats(), len(body))
	s.metrics.countRequest("scan", http.StatusOK)
	tr.SetStatus(http.StatusOK)
	tr.Finish()
	out := s.collect(res, r.URL.Query().Get("mode"))
	res.Release() // collect copied everything the response needs
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		// Connection-level failure; nothing more to do.
		return
	}
}

// collect renders one text's matches per the requested mode ("", "count",
// or "all"). Pattern text comes from the result itself (AllAt carries the
// raw bytes): the live set can change between the scan and the render, and
// the snapshot the scan pinned is the only consistent source.
func (s *server) collect(res *pardict.ShardedMatches, mode string) scanResponse {
	out := scanResponse{}
	countOnly := mode == "count"
	all := mode == "all"
	var buf []pardict.ShardedHit
	for i := 0; i < res.Len(); i++ {
		switch {
		case all:
			buf = res.AllAt(i, buf[:0])
			for _, h := range buf {
				out.Count++
				out.Matches = append(out.Matches, scanMatch{
					Pos: i, Pattern: int(h.ID), Text: string(h.Pattern),
				})
			}
		case countOnly:
			if _, ok := res.Longest(i); ok {
				out.Count++
			}
		default:
			if id, ok := res.Longest(i); ok {
				out.Count++
				text := ""
				if buf = res.AllAt(i, buf[:0]); len(buf) > 0 {
					text = string(buf[0].Pattern)
				}
				out.Matches = append(out.Matches, scanMatch{
					Pos: i, Pattern: int(id), Text: text,
				})
			}
		}
	}
	return out
}

// scanBatchRequest is the /scanbatch body: a list of texts to scan in one
// call. The texts are pipelined through the matcher's shared scheduler
// (ShardedMatcher.MatchBatch), so a batch costs less than one request per
// text.
type scanBatchRequest struct {
	Texts []string `json:"texts"`
}

type scanBatchResponse struct {
	Results []scanResponse `json:"results"`
}

func (s *server) handleScanBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req scanBatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad JSON body", http.StatusBadRequest)
		return
	}
	texts := make([][]byte, len(req.Texts))
	total := 0
	for i, t := range req.Texts {
		texts[i] = []byte(t)
		total += len(t)
	}
	tr := trace.Start("scanbatch")
	tr.SetArg(int64(total))
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ctx = trace.NewContext(ctx, tr)
	t0 := time.Now()
	results, err := s.m.MatchBatch(ctx, texts)
	d := time.Since(t0)
	s.metrics.observeLatency(d)
	s.slo.Observe(d.Nanoseconds())
	if err != nil {
		code := s.writeMatchErr(w, r, err)
		s.metrics.countRequest("scanbatch", code)
		tr.SetStatus(code)
		tr.Finish()
		return
	}
	for i, res := range results {
		s.metrics.recordScan(res.Stats(), len(texts[i]))
	}
	s.metrics.countRequest("scanbatch", http.StatusOK)
	tr.SetStatus(http.StatusOK)
	tr.Finish()
	mode := r.URL.Query().Get("mode")
	out := scanBatchResponse{Results: make([]scanResponse, len(results))}
	for i, res := range results {
		out.Results[i] = s.collect(res, mode)
		res.Release()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return
	}
}

// patternsRequest is the /patterns body for both POST (insert) and DELETE.
type patternsRequest struct {
	Patterns []string `json:"patterns"`
}

// patternsResponse reports how many mutations were applied. IDs parallels
// the request on POST. On a partial failure the error response carries the
// applied count instead: everything before the failing pattern took effect
// (mutations are individually atomic, not transactional across the list).
type patternsResponse struct {
	Applied int   `json:"applied"`
	IDs     []int `json:"ids,omitempty"`
}

// writeMutationErr maps a mutation error to a status code: 409 for duplicate
// inserts, 404 for deleting an absent pattern, 503 once the matcher is
// closed, 400 for anything else (empty pattern, byte outside the configured
// alphabet). The JSON body carries the count of mutations already applied.
func (s *server) writeMutationErr(w http.ResponseWriter, err error, applied int) int {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, pardict.ErrDuplicatePattern):
		code = http.StatusConflict
	case errors.Is(err, pardict.ErrPatternNotFound):
		code = http.StatusNotFound
	case errors.Is(err, pardict.ErrMatcherClosed):
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "applied": applied})
	return code
}

// handlePatterns mutates the live dictionary online: POST inserts, DELETE
// removes (by content). Each pattern is an O(1) amortized log append visible
// to every scan that starts after the response; the engine rebuilds it
// eventually triggers run on the background reconciler, off this path.
func (s *server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodDelete {
		http.Error(w, "POST or DELETE required", http.StatusMethodNotAllowed)
		s.metrics.countRequest("patterns", http.StatusMethodNotAllowed)
		return
	}
	var req patternsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad JSON body", http.StatusBadRequest)
		s.metrics.countRequest("patterns", http.StatusBadRequest)
		return
	}
	if len(req.Patterns) == 0 {
		http.Error(w, "no patterns in body", http.StatusBadRequest)
		s.metrics.countRequest("patterns", http.StatusBadRequest)
		return
	}
	out := patternsResponse{}
	for _, p := range req.Patterns {
		var err error
		if r.Method == http.MethodPost {
			var id pardict.PatternID
			if id, err = s.m.Insert([]byte(p)); err == nil {
				out.IDs = append(out.IDs, int(id))
			}
		} else {
			err = s.m.Delete([]byte(p))
		}
		if err != nil {
			if out.Applied > 0 {
				s.stream.bumpGen()
			}
			s.metrics.countRequest("patterns", s.writeMutationErr(w, err, out.Applied))
			return
		}
		out.Applied++
	}
	s.stream.bumpGen()
	s.metrics.countRequest("patterns", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleReload atomically replaces the whole dictionary from a Save-format
// body (see Matcher.Save / dictmatch -compile). The body is fully parsed and
// checksum-verified before any state changes, so a corrupt or truncated
// upload fails closed with the old dictionary still serving.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		s.metrics.countRequest("reload", http.StatusMethodNotAllowed)
		return
	}
	if err := s.m.ReloadSaved(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, pardict.ErrMatcherClosed) {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
		s.metrics.countRequest("reload", code)
		return
	}
	s.stream.bumpGen()
	s.metrics.countRequest("reload", http.StatusOK)
	s.writeHealth(w)
}

type healthResponse struct {
	OK         bool   `json:"ok"`
	Patterns   int    `json:"patterns"`
	MaxLen     int    `json:"max_len"`
	Size       int    `json:"size"`
	Engine     string `json:"engine"`
	Shards     int    `json:"shards"`
	PendingOps int    `json:"pending_ops"`
	Epoch      uint64 `json:"epoch"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeHealth(w)
}

func (s *server) writeHealth(w http.ResponseWriter) {
	st := s.m.Stats()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(healthResponse{
		OK:         true,
		Patterns:   st.Patterns,
		MaxLen:     st.MaxLen,
		Size:       st.Size,
		Engine:     "sharded",
		Shards:     st.Shards,
		PendingOps: st.PendingOps,
		Epoch:      st.Epoch,
	})
}

func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		out = append(out, append([]byte(nil), line...))
	}
	return out, sc.Err()
}
