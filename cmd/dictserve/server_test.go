package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pardict"
	"pardict/internal/trace"
)

func testMatcher(t *testing.T, patterns ...string) *pardict.ShardedMatcher {
	t.Helper()
	m, err := pardict.NewShardedMatcher(pardict.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	pats := make([][]byte, len(patterns))
	for i, p := range patterns {
		pats[i] = []byte(p)
	}
	if len(pats) > 0 {
		if err := m.Reload(pats); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func testServer(t *testing.T) *server {
	t.Helper()
	srv := newServer(testMatcher(t, "he", "she", "his", "hers"), 1<<20, 30*time.Second, streamOpts{}, obsOpts{})
	t.Cleanup(srv.Close)
	return srv
}

func TestScanEndpoint(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader("ushers"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var res scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || len(res.Matches) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.Matches[0].Pos != 1 || res.Matches[0].Text != "she" {
		t.Fatalf("first match = %+v", res.Matches[0])
	}
	if res.Matches[1].Pos != 2 || res.Matches[1].Text != "hers" {
		t.Fatalf("second match = %+v", res.Matches[1])
	}
}

func TestScanCountMode(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/scan?mode=count", strings.NewReader("ushers"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var res scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.Matches != nil {
		t.Fatalf("res = %+v", res)
	}
}

func TestScanAllMode(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/scan?mode=all", strings.NewReader("ushers"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var res scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	// she@1; hers@2 and he@2.
	if res.Count != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestScanMethodNotAllowed(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/scan", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestScanBodyLimit(t *testing.T) {
	srv := newServer(testMatcher(t, "x"), 8, 0, streamOpts{}, obsOpts{})
	t.Cleanup(srv.Close)
	req := httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader("this body is way beyond eight bytes"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var res healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Patterns != 4 || res.MaxLen != 4 || res.Size != 12 ||
		res.Engine != "sharded" || res.Shards != 4 {
		t.Fatalf("res = %+v", res)
	}
}

func TestConcurrentScans(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader("she sells hers"))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			var res scanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Error(err)
				return
			}
			if res.Count != 3 { // she@0 (and he@1), hers@10
				t.Errorf("count = %d", res.Count)
			}
		}()
	}
	wg.Wait()
}

func TestScanBatchEndpoint(t *testing.T) {
	srv := testServer(t)
	body := `{"texts": ["ushers", "he", "nothing"]}`
	req := httptest.NewRequest(http.MethodPost, "/scanbatch?mode=count", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var res scanBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("results = %d", len(res.Results))
	}
	if res.Results[0].Count != 2 || res.Results[1].Count != 1 || res.Results[2].Count != 0 {
		t.Fatalf("counts = %+v", res.Results)
	}
}

func TestScanBatchBadBody(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/scanbatch", strings.NewReader("not json"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestScanDeadlineReturns504(t *testing.T) {
	// A deadline that expires immediately forces the match itself to abort.
	srv := newServer(testMatcher(t, "needle"), 1<<20, time.Nanosecond, streamOpts{}, obsOpts{})
	t.Cleanup(srv.Close)
	req := httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader(strings.Repeat("x", 1<<16)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
}

func TestScanClientDisconnectWritesNothing(t *testing.T) {
	srv := testServer(t)
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader("ushers")).WithContext(gctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnected client got a body: %q", rec.Body.String())
	}
}

func TestWriteMatchErrMapping(t *testing.T) {
	srv := testServer(t)

	// Deadline expiry → 504, counted as a timeout.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/scan", nil)
	if code := srv.writeMatchErr(rec, req, fmt.Errorf("wrap: %w", context.DeadlineExceeded)); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline code = %d", code)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d", rec.Code)
	}

	// Client disconnect (dead request context) → nothing written.
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/scan", nil).WithContext(gctx)
	if code := srv.writeMatchErr(rec, req, fmt.Errorf("wrap: %w", context.Canceled)); code != 0 {
		t.Fatalf("disconnect code = %d", code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnect wrote %q", rec.Body.String())
	}

	// A genuine engine failure with a live client → 500 with the message,
	// never an empty 200.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/scan", nil)
	if code := srv.writeMatchErr(rec, req, errors.New("index corrupted")); code != http.StatusInternalServerError {
		t.Fatalf("engine-failure code = %d", code)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "index corrupted") {
		t.Fatalf("engine-failure response = %d %q", rec.Code, rec.Body.String())
	}

	if srv.metrics.timeouts.Load() != 1 || srv.metrics.cancels.Load() != 1 || srv.metrics.matchErrors.Load() != 1 {
		t.Fatalf("outcome counters = %d/%d/%d", srv.metrics.timeouts.Load(),
			srv.metrics.cancels.Load(), srv.metrics.matchErrors.Load())
	}
}

// doJSON drives one request through the handler and decodes any JSON response.
func doJSON(t *testing.T, srv *server, method, target, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON from %s %s: %v\n%s", method, target, err, rec.Body.String())
		}
	}
	return rec, out
}

func TestPatternsInsertAndScan(t *testing.T) {
	srv := testServer(t)
	rec, out := doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": ["ush", "sell"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body.String())
	}
	if out["applied"].(float64) != 2 {
		t.Fatalf("insert response = %v", out)
	}
	// The inserts are visible to the very next scan: ush@0 now matches.
	rec, _ = doJSON(t, srv, http.MethodPost, "/scan", "ushers")
	var res scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Matches[0].Text != "ush" {
		t.Fatalf("post-insert scan = %+v", res)
	}
}

func TestPatternsDelete(t *testing.T) {
	srv := testServer(t)
	rec, out := doJSON(t, srv, http.MethodDelete, "/patterns", `{"patterns": ["she"]}`)
	if rec.Code != http.StatusOK || out["applied"].(float64) != 1 {
		t.Fatalf("delete status %d: %v", rec.Code, out)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/scan", "ushers")
	var res scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	// she@1 is gone; hers@2 (shadowing he@2) is the only match left.
	if res.Count != 1 || res.Matches[0].Text != "hers" {
		t.Fatalf("post-delete scan = %+v", res)
	}
}

func TestPatternsErrorMapping(t *testing.T) {
	srv := testServer(t)

	// Duplicate insert → 409, with the prior applied count reported.
	rec, out := doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": ["new", "she"]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate status %d", rec.Code)
	}
	if out["applied"].(float64) != 1 {
		t.Fatalf("duplicate response = %v", out)
	}
	// "new" took effect even though "she" failed: mutations are individually
	// atomic, not transactional across the list.
	if rec, _ := doJSON(t, srv, http.MethodPost, "/scan?mode=count", "new"); !strings.Contains(rec.Body.String(), `"count":1`) {
		t.Fatalf("partial insert lost: %s", rec.Body.String())
	}

	// Deleting an absent pattern → 404.
	if rec, _ := doJSON(t, srv, http.MethodDelete, "/patterns", `{"patterns": ["absent"]}`); rec.Code != http.StatusNotFound {
		t.Fatalf("absent delete status %d", rec.Code)
	}
	// Bad JSON → 400; empty list → 400; wrong method → 405.
	if rec, _ := doJSON(t, srv, http.MethodPost, "/patterns", "not json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body status %d", rec.Code)
	}
	if rec, _ := doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": []}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty list status %d", rec.Code)
	}
	if rec, _ := doJSON(t, srv, http.MethodGet, "/patterns", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", rec.Code)
	}

	// Closed matcher → 503.
	srv.m.Close()
	if rec, _ := doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": ["x"]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed status %d", rec.Code)
	}
}

// saveBody compiles patterns into a Save-format stream, the /reload body.
func saveBody(t *testing.T, patterns ...string) []byte {
	t.Helper()
	pats := make([][]byte, len(patterns))
	for i, p := range patterns {
		pats[i] = []byte(p)
	}
	cm, err := pardict.NewMatcher(pats, pardict.WithEngine(pardict.EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReloadEndpoint(t *testing.T) {
	srv := testServer(t)
	body := saveBody(t, "usher", "board")
	req := httptest.NewRequest(http.MethodPost, "/reload", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body.String())
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Patterns != 2 {
		t.Fatalf("reload response = %+v", h)
	}
	// The old dictionary is fully replaced.
	rec, _ = doJSON(t, srv, http.MethodPost, "/scan", "ushers")
	var res scanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 || res.Matches[0].Text != "usher" {
		t.Fatalf("post-reload scan = %+v", res)
	}
}

func TestReloadCorruptFailsClosed(t *testing.T) {
	srv := testServer(t)
	body := saveBody(t, "usher", "board")
	body[len(body)-1] ^= 0xFF // break the trailing checksum
	req := httptest.NewRequest(http.MethodPost, "/reload", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt reload status %d: %s", rec.Code, rec.Body.String())
	}
	// Old dictionary still serving, untouched.
	if srv.m.Len() != 4 {
		t.Fatalf("corrupt reload changed the dictionary: %d patterns", srv.m.Len())
	}
	if rec, _ := doJSON(t, srv, http.MethodGet, "/reload", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload status %d", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Drive one scan and one batch so every counter family has data.
	req := httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader("ushers"))
	srv.ServeHTTP(httptest.NewRecorder(), req)
	req = httptest.NewRequest(http.MethodPost, "/scanbatch", strings.NewReader(`{"texts":["he","she"]}`))
	srv.ServeHTTP(httptest.NewRecorder(), req)
	// And one mutation so the shard gauges move.
	doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": ["metricpattern"]}`)
	// And one stream so the streaming-tier metrics move.
	if rec, _ := doJSON(t, srv, http.MethodPost, "/stream", ""); rec.Code != http.StatusCreated {
		t.Fatalf("stream create status %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`pardict_requests_total{endpoint="patterns",code="200"} 1`,
		`pardict_requests_total{endpoint="scan",code="200"} 1`,
		`pardict_requests_total{endpoint="scanbatch",code="200"} 1`,
		"pardict_scan_latency_seconds_bucket{le=\"+Inf\"} 2",
		"pardict_scan_latency_seconds_count 2",
		"pardict_scan_timeouts_total 0",
		"pardict_engine_work_total",
		"pardict_engine_depth_total",
		"pardict_texts_scanned_total 3",
		"pardict_bytes_scanned_total 11",
		`pardict_dictionary_info{engine="sharded"} 1`,
		"pardict_dictionary_patterns 5",
		"pardict_shard_count 4",
		"pardict_shard_pending_ops 1",
		"pardict_shard_snapshot_swaps_total",
		"pardict_shard_rebuilds_total",
		"pardict_shard_pinned_snapshots 0",
		"pardict_shard_rebuild_seconds_count",
		`pardict_shard_write_phase{mode="joined",phase="joined"} 1`,
		"pardict_shard_phase_split 0",
		"pardict_shard_phase_switches_total 0",
		"pardict_shard_joined_writes_total",
		"pardict_shard_split_writes_total 0",
		"pardict_shard_split_pending_ops 0",
		"pardict_shard_merges_total",
		"pardict_shard_merge_seconds_count",
		"pardict_stream_sessions 1",
		"pardict_stream_creates_total 1",
		"pardict_stream_generation 1",
		"pardict_stream_events_dropped_total 0",
		"pardict_stream_latency_seconds_count",
		"pardict_lz_phrases_parsed_total",
		"pardict_lz_windows_scanned_total",
		"pardict_lz_bytes_skipped_total",
		"pardict_scheduler_phases_total",
		"pardict_scheduler_steals_total",
		"pardict_scheduler_parks_total",
		"pardict_scheduler_grain_sum",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
	// Engine work was accumulated from real scans.
	if strings.Contains(body, "pardict_engine_work_total 0\n") {
		t.Fatal("engine work not accumulated")
	}
	if rec2 := httptest.NewRecorder(); true {
		srv.ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/metrics", nil))
		if rec2.Code != http.StatusMethodNotAllowed {
			t.Fatalf("POST /metrics = %d", rec2.Code)
		}
	}
}

func TestDebugVars(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader("ushers"))
	srv.ServeHTTP(httptest.NewRecorder(), req)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var vars struct {
		Pardict struct {
			TextsScanned int64            `json:"texts_scanned"`
			EngineWork   int64            `json:"engine_work"`
			Requests     map[string]int64 `json:"requests"`
			Shard        struct {
				Shards   int
				Patterns int
			} `json:"shard"`
			Scheduler struct {
				Phases int64
			} `json:"scheduler"`
		} `json:"pardict"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("bad /debug/vars JSON: %v\n%s", err, rec.Body.String())
	}
	p := vars.Pardict
	if p.TextsScanned != 1 || p.EngineWork == 0 || p.Requests["scan:200"] != 1 {
		t.Fatalf("vars = %+v", p)
	}
	if p.Scheduler.Phases == 0 {
		t.Fatalf("scheduler phases missing: %+v", p)
	}
	if p.Shard.Shards != 4 || p.Shard.Patterns != 4 {
		t.Fatalf("shard vars = %+v", p.Shard)
	}
}

func TestBuildMatcherFromFiles(t *testing.T) {
	dir := t.TempDir()
	dictPath := filepath.Join(dir, "d.txt")
	if err := os.WriteFile(dictPath, []byte("abc\ndef\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := buildMatcher(dictPath, "", 1, 2, pardict.WritePhaseJoined)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != 2 || m.Shards() != 2 {
		t.Fatalf("patterns = %d, shards = %d", m.Len(), m.Shards())
	}
	// Compiled round-trip through buildMatcher's load path.
	binPath := filepath.Join(dir, "d.pdm")
	if err := os.WriteFile(binPath, saveBody(t, "abc", "def"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := buildMatcher("", binPath, 1, 2, pardict.WritePhaseJoined)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 2 {
		t.Fatalf("loaded patterns = %d", m2.Len())
	}
	// No seed at all: start empty, ready for /patterns and /reload.
	m3, err := buildMatcher("", "", 0, 0, pardict.WritePhaseJoined)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if m3.Len() != 0 {
		t.Fatalf("empty matcher has %d patterns", m3.Len())
	}
}

// TestRunGracefulShutdown drives the real serve loop: a request issued before
// cancellation completes, Shutdown drains within the deadline, and run
// returns nil rather than http.ErrServerClosed.
func TestRunGracefulShutdown(t *testing.T) {
	srv := testServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, &http.Server{Handler: srv}, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/scan", "text/plain", strings.NewReader("ushers"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "hers") {
		t.Fatalf("pre-shutdown scan: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Post(url+"/scan", "text/plain", strings.NewReader("x")); err == nil {
		t.Fatal("post-shutdown request succeeded")
	}
}

// TestMetricsExpositionLint scrapes /metrics end to end and lints the full
// output against the text exposition format: every series name gets # HELP
// and # TYPE exactly once, every sample line belongs to a typed series, and
// the new build-info / SLO / trace families are present.
func TestMetricsExpositionLint(t *testing.T) {
	srv := testServer(t)
	// Exercise enough endpoints that multi-call-site series (requests_total,
	// histograms) render several samples each.
	for _, text := range []string{"ushers", "he", "xhisx"} {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader(text)))
	}
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/scanbatch", strings.NewReader(`{"texts":["she","hers"]}`)))
	doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": ["lintpattern"]}`)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()

	help := map[string]int{}
	typed := map[string]string{}
	for ln, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			help[name]++
			if help[name] > 1 {
				t.Fatalf("line %d: duplicate # HELP for %s", ln+1, name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			name, typ := f[2], f[3]
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate # TYPE for %s", ln+1, name)
			}
			typed[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suf); b != name && typed[b] == "histogram" {
					base = b
					break
				}
			}
			if typed[base] == "" {
				t.Fatalf("line %d: sample %q has no # TYPE", ln+1, name)
			}
		}
	}

	for _, want := range []string{
		"pardict_build_info", "pardict_slo_target_seconds", "pardict_slo_objective",
		"pardict_slo_window_seconds", "pardict_slo_requests_window",
		"pardict_slo_breaches_window", "pardict_slo_latency_seconds",
		"pardict_slo_burn_rate", "pardict_trace_sample_every",
		"pardict_trace_started_total", "pardict_trace_retained",
		"pardict_prefilter_scanned_total", "pardict_prefilter_skipped_total",
	} {
		if typed[want] == "" {
			t.Fatalf("series %s missing from scrape", want)
		}
	}
	if !strings.Contains(body, `pardict_build_info{version=`) ||
		!strings.Contains(body, `gomaxprocs="`+fmt.Sprint(runtime.GOMAXPROCS(0))+`"`) {
		t.Fatalf("build info sample malformed:\n%s", body[:200])
	}
	// The scans above ran through screened shard bases.
	if strings.Contains(body, "\npardict_prefilter_scanned_total 0\n") {
		t.Fatal("prefilter scanned no position of the scans above")
	}
	if !strings.Contains(body, `pardict_slo_latency_seconds{quantile="0.999"}`) {
		t.Fatal("SLO quantile series missing")
	}
	// Five scans observed by the SLO window (3 single + 2 batch texts share 2
	// matching calls; the SLO counts matching requests).
	if !strings.Contains(body, "pardict_slo_requests_window 4") {
		t.Fatalf("SLO window count wrong:\n%s", body)
	}
}

func TestEscapeLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"all\\\"\n", `all\\\"\n`},
	} {
		if got := escapeLabel(tc.in); got != tc.want {
			t.Fatalf("escapeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestDebugTraceEndpoint drives sampled scans and checks GET /debug/trace
// returns them: slowest-N entries carrying per-shard and per-phase spans.
//
// Not parallel: trace.Default is process-global.
func TestDebugTraceEndpoint(t *testing.T) {
	prev := trace.Default.SampleEvery()
	trace.Default.Configure(1, 8, 256)
	defer trace.Default.Configure(prev, 0, 0)

	srv := testServer(t)
	for i := 0; i < 3; i++ {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/scan", strings.NewReader("ushers and hers")))
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?recent=4", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out traceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /debug/trace JSON: %v\n%s", err, rec.Body.String())
	}
	if !out.Enabled || out.Stats.Started < 3 || len(out.Slowest) == 0 {
		t.Fatalf("trace response = enabled=%v stats=%+v slowest=%d",
			out.Enabled, out.Stats, len(out.Slowest))
	}
	if len(out.Recent) == 0 || len(out.Recent) > 4 {
		t.Fatalf("recent = %d traces", len(out.Recent))
	}
	var scan *trace.Info
	for i := range out.Slowest {
		if out.Slowest[i].Name == "scan" {
			scan = &out.Slowest[i]
			break
		}
	}
	if scan == nil {
		t.Fatalf("no scan trace retained: %+v", out.Slowest)
	}
	if scan.Status != http.StatusOK || scan.Arg != int64(len("ushers and hers")) {
		t.Fatalf("scan trace header = %+v", scan)
	}
	seen := map[string]int{}
	for _, sp := range scan.Spans {
		seen[sp.Name]++
	}
	// Only shards holding patterns spawn scan goroutines, so the exact shard
	// span count tracks the hash spread; at least one plus the merge must show.
	if seen["encode"] != 1 || seen["shard"] < 1 || seen["shard.base"] < 1 || seen["merge"] != 1 {
		t.Fatalf("span mix %v: want encode, per-shard, and merge spans", seen)
	}
}

// TestPprofGatedByDebugFlag: the pprof handlers exist only with -debug.
func TestPprofGatedByDebugFlag(t *testing.T) {
	plain := testServer(t)
	rec := httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without -debug: status %d", rec.Code)
	}

	dbg := newServer(testMatcher(t, "she"), 1<<20, 30*time.Second, streamOpts{}, obsOpts{debug: true})
	t.Cleanup(dbg.Close)
	rec = httptest.NewRecorder()
	dbg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index with -debug: status %d", rec.Code)
	}
}
