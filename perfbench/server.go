package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dictServer is one dictserve subprocess listening on loopback.
type dictServer struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *logWatcher
	done chan error // receives cmd.Wait's result once
}

// logWatcher collects dictserve's log output and reports the address from
// its "serving ... on ADDR" line.
type logWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var servingRE = regexp.MustCompile(`serving .* on (\S+)`)

func (l *logWatcher) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		if m := servingRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.sent = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *logWatcher) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// writeDict writes patterns one per line, the format dictserve -dict reads.
func writeDict(dir, name string, pats [][]byte) (string, error) {
	path := filepath.Join(dir, name)
	var b bytes.Buffer
	for _, p := range pats {
		b.Write(p)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// startServer execs dictserve on dictPath with default flags except tracing
// (-trace 1 samples every request, -trace 0 turns tracing off) and returns
// once /healthz answers 200 with all want patterns loaded. The duration is
// exec to that first healthy answer.
func startServer(bin, dictPath string, want int, traced bool) (*dictServer, time.Duration, error) {
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	s := &dictServer{
		log:  &logWatcher{addr: make(chan string, 1)},
		done: make(chan error, 1),
	}
	s.cmd = exec.Command(bin, "-dict", dictPath, "-addr", "127.0.0.1:0", "-trace", traceArg)
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	// The server must not outlive the benchmark, even if the benchmark is
	// killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dictserve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	deadline := time.After(120 * time.Second)
	select {
	case addr := <-s.log.addr:
		s.base = "http://" + addr
	case err := <-s.done:
		s.done <- err
		return nil, 0, fmt.Errorf("dictserve exited before serving: %v\n%s", err, s.log)
	case <-deadline:
		s.stop()
		return nil, 0, fmt.Errorf("dictserve did not start within 120s\n%s", s.log)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		if ok := s.healthy(hc, want); ok {
			return s, time.Since(t0), nil
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("dictserve exited: %v\n%s", err, s.log)
		case <-deadline:
			s.stop()
			return nil, 0, errors.New("dictserve not healthy within 120s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *dictServer) healthy(hc *http.Client, want int) bool {
	resp, err := hc.Get(s.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		OK       bool `json:"ok"`
		Patterns int  `json:"patterns"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return false
	}
	return h.OK && h.Patterns == want
}

func (s *dictServer) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and exit, kills it if it has not exited
// within ten seconds, and waits until it has.
func (s *dictServer) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		s.done <- <-s.done
	}
}

// client is one keep-alive HTTP connection to the server.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// do sends one request and returns the status and the response body, which
// stays valid only until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches path and decodes its JSON body into v.
func (c *client) getJSON(path string, v any) error {
	code, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, code)
	}
	return json.Unmarshal(body, v)
}

// scrapeMetrics reads the unlabelled series of /metrics into a map.
func (c *client) scrapeMetrics() (map[string]float64, error) {
	code, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(val, &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
