package main

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// connections is the number of HTTP connections (one worker each) the load
// comes from.
const connections = 2

// sampleEvery is how often a worker keeps a scan response for the oracle
// check after the run.
const sampleEvery = 8

// warmupOps is the closed-loop traffic sent before anything is measured, so
// connections, pools and caches are in their steady state. It is a count,
// not a time, so every run enters the measured phases after the same
// operations (on serve-writemix, with the same ring patterns inserted).
const warmupOps = 400

// sample is one kept scan response.
type sample struct {
	body int
	resp []byte
}

// worker drives one connection. Its operations are a pure function of its
// id and sequence number, so a seed fixes the traffic exactly; on
// serve-writemix it owns half of the toggle ring, which keeps every
// pattern's inserts and deletes in order.
type worker struct {
	id  int
	c   *client
	w   workload
	in  *inputs
	seq int // operations issued so far

	// toggle state over ring[id*half : (id+1)*half]: the next pattern, and
	// whether the current pass inserts or deletes.
	next      int
	deleting  bool
	free      time.Time // when the previous reply arrived
	record    bool      // record latencies and samples
	scanLat   []time.Duration
	writeLat  []time.Duration
	late      []time.Duration
	samples   []sample
	scans     int
	scanBytes int64
	done      int
	failures
}

func (k *worker) half() int { return len(k.in.ring) / connections }

// present reports the ring patterns this worker has left inserted.
func (k *worker) present() [][]byte {
	own := k.in.ring[k.id*k.half() : (k.id+1)*k.half()]
	if k.deleting {
		return own[k.next:]
	}
	return own[:k.next]
}

// step issues the worker's next operation, due at due (now, in a closed
// loop). Latency runs to the reply from the later of the due time and the
// moment the worker's previous reply arrived: a request kept waiting by the
// server's slowness counts that wait, while a request the worker's own timer
// woke late counts only from its wake-up, the wake-up delay being reported
// as generator lateness instead.
func (k *worker) step(due time.Time) {
	seq := k.seq
	k.seq++
	sent := time.Now()
	sched := due
	if k.free.After(sched) {
		sched = k.free
	}
	defer func() { k.free = time.Now() }()
	if k.w.writes && seq%2 == 1 {
		k.toggle(sched, sent)
		return
	}
	bi := (seq*connections + k.id) % len(k.in.bodies)
	body := k.in.bodies[bi]
	code, resp, err := k.c.do(http.MethodPost, "/scan?mode="+k.w.mode, body)
	end := time.Now()
	k.done++
	k.scans++
	k.scanBytes += int64(len(body))
	switch {
	case err != nil:
		k.fail("scan: %v", err)
		return
	case code/100 != 2:
		k.fail("scan: status %d: %.200s", code, resp)
		return
	}
	if k.record {
		k.scanLat = append(k.scanLat, end.Sub(sched))
		k.late = append(k.late, sent.Sub(sched))
	}
	if k.scans%sampleEvery == 0 {
		k.samples = append(k.samples, sample{body: bi, resp: append([]byte(nil), resp...)})
	}
}

func (k *worker) toggle(sched, sent time.Time) {
	p := k.in.ring[k.id*k.half()+k.next]
	method := http.MethodPost
	if k.deleting {
		method = http.MethodDelete
	}
	req, _ := json.Marshal(map[string][]string{"patterns": {string(p)}})
	code, resp, err := k.c.do(method, "/patterns", req)
	end := time.Now()
	k.done++
	switch {
	case err != nil:
		k.fail("%s /patterns: %v", method, err)
		return
	case code/100 != 2:
		// 409 (duplicate insert) or 404 (absent delete) means the server
		// lost or invented a write.
		k.fail("%s /patterns %q: status %d: %.200s", method, p, code, resp)
		return
	}
	if k.next++; k.next == k.half() {
		k.next = 0
		k.deleting = !k.deleting
	}
	if k.record {
		k.writeLat = append(k.writeLat, end.Sub(sched))
		k.late = append(k.late, sent.Sub(sched))
	}
}

// load is the workers of one run against one server.
type load struct {
	workers []*worker
}

func newLoad(w workload, in *inputs, base string) *load {
	l := &load{}
	for i := 0; i < connections; i++ {
		l.workers = append(l.workers, &worker{id: i, c: newClient(base), w: w, in: in})
	}
	return l
}

func (l *load) close() {
	for _, k := range l.workers {
		k.c.close()
	}
}

// completed is the number of operations all workers have finished.
func (l *load) completed() int {
	n := 0
	for _, k := range l.workers {
		n += k.done
	}
	return n
}

func (l *load) scanBytes() int64 {
	var n int64
	for _, k := range l.workers {
		n += k.scanBytes
	}
	return n
}

// closed issues n operations back to back, split evenly over the workers,
// or as many as fit before deadline.
func (l *load) closed(n int, deadline time.Time) {
	l.each(false, func(k *worker) {
		for i := k.id; i < n; i += connections {
			now := time.Now()
			if !now.Before(deadline) {
				return
			}
			k.step(now)
		}
	})
}

// open sends requests on a fixed schedule of rate per second for d,
// request i due at start + i/rate on worker i mod connections. A worker
// still busy when a request falls due sends it late; its latency still
// counts from the due time.
func (l *load) open(rate float64, d time.Duration, record bool) {
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	n := int(d / period)
	l.each(record, func(k *worker) {
		for i := k.id; i < n; i += connections {
			due := start.Add(time.Duration(i) * period)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			k.step(due)
		}
	})
}

func (l *load) each(record bool, f func(k *worker)) {
	var wg sync.WaitGroup
	for _, k := range l.workers {
		k.record = record
		wg.Add(1)
		go func(k *worker) {
			defer wg.Done()
			f(k)
		}(k)
	}
	wg.Wait()
}

func (l *load) latencies() (scan, write, late []time.Duration) {
	for _, k := range l.workers {
		scan = append(scan, k.scanLat...)
		write = append(write, k.writeLat...)
		late = append(late, k.late...)
	}
	return scan, write, late
}

// startServers starts dictserve n times on the run's dictionary, recording
// each start's wall time and the CPU time the server spent to get there, and
// returns the last start, stopping the others.
func (r *run) startServers(traced bool, n int) (*dictServer, error) {
	path, err := writeDict(r.workdir, "dict.txt", r.in.dict)
	if err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		runtime.GC() // the benchmark's own GC must not run beside the start
		s, wall, err := startServer(r.dictserve, path, len(r.in.dict), traced)
		if err != nil {
			return nil, err
		}
		cpu, err := taskCPU(s.pid())
		if err != nil {
			s.stop()
			return nil, err
		}
		r.addSetup(cpu, wall)
		if i == n-1 {
			return s, nil
		}
		s.stop()
	}
}

// cycle is the length of one open-loop plus closed-loop pair. A run
// alternates the two phases in cycles of this length, so slow drifts of the
// host (CPU steal from other tenants) and of the server (rebuild backlog)
// reach both phases alike. Closed-loop metrics total every closed-loop
// window; latency percentiles pool the samples of every open-loop phase.
const cycle = 4 * time.Second

// closedTotals accumulates the closed-loop windows of a run.
type closedTotals struct {
	done, scanned  float64
	cpu, elapsed   time.Duration
	rps, cpuPerReq []float64 // per window, for the run-quality record
}

// measureClosed runs the closed loop for the number of requests the sized
// capacity completes in d, and adds the window to t. A fixed count, not a
// fixed time, keeps the work of a window the same on every commit: on
// serve-writemix each window starts with the same writes applied. A window
// that takes more than four times d is cut short.
func (l *load) measureClosed(pid int, sized float64, d time.Duration, t *closedTotals) error {
	c0, err := taskCPU(pid)
	if err != nil {
		return err
	}
	n0, b0, t0 := l.completed(), l.scanBytes(), time.Now()
	l.closed(int(sized*d.Seconds()), t0.Add(4*d))
	elapsed := time.Since(t0)
	c1, err := taskCPU(pid)
	if err != nil {
		return err
	}
	done, scanned := float64(l.completed()-n0), float64(l.scanBytes()-b0)
	if done == 0 || scanned == 0 {
		return errNoProgress
	}
	t.done += done
	t.scanned += scanned
	t.cpu += c1 - c0
	t.elapsed += elapsed
	t.rps = append(t.rps, done/elapsed.Seconds())
	t.cpuPerReq = append(t.cpuPerReq, ms(c1-c0)/done)
	return nil
}

// runServed measures one served workload: set-up, a fixed warm-up, then
// cycles of an open-loop phase at the workload's fixed rate (latency)
// followed by a closed-loop phase on every connection (CPU cost and
// capacity).
func (r *run) runServed() error {
	srv, err := r.startServers(false, setupBefore)
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	l := newLoad(r.w, r.in, srv.base)
	defer l.close()

	l.closed(warmupOps, time.Now().Add(time.Minute))
	cycles := int(r.seconds / cycle)
	if cycles < 1 {
		cycles = 1
	}
	per := r.seconds / time.Duration(cycles)
	var t closedTotals
	for c := 0; c < cycles; c++ {
		l.open(r.w.rate(), per/2, true)
		if err := l.measureClosed(srv.pid(), r.w.sized, per-per/2, &t); err != nil {
			return err
		}
	}
	rss, err := peakRSS(srv.pid())
	if err != nil {
		return err
	}
	r.set("cpu_ms_per_req", ms(t.cpu)/t.done)
	r.set("cpu_ns_per_byte", float64(t.cpu)/t.scanned)
	r.set("peak_rss_mb", rss)
	r.observe("capacity_rps", t.done/t.elapsed.Seconds(), 0)
	r.observe("bulk_mbps", t.scanned/t.elapsed.Seconds()/1e6, 0)
	scanLat, writeLat, late := l.latencies()
	r.observeLatency("scan", scanLat)
	if r.w.writes {
		r.observeLatency("write", writeLat)
	}
	r.report["open_rate_rps"] = r.w.rate()
	r.report["gen_late"] = summarize(late)
	r.report["cycle_rps"] = t.rps
	r.report["cycle_cpu_ms_per_req"] = t.cpuPerReq

	if r.w.writes {
		r.probe(l.workers[0].c, l.workers)
	}
	srv.stop()
	if srv, err = r.startServers(false, setupAfter); err != nil {
		return err
	}
	r.setSetup()
	return r.verify(l)
}

// verify counts every worker's operations and failures and checks each kept
// scan response against the oracle.
func (r *run) verify(l *load) error {
	for _, k := range l.workers {
		r.attempted += int64(k.done)
		r.add(k.failed, k.first...)
	}
	check, err := r.checker()
	if err != nil {
		return err
	}
	n := 0
	for _, k := range l.workers {
		for _, s := range k.samples {
			n++
			if err := check(s.body, s.resp); err != nil {
				r.fail("body %d: %v", s.body, err)
			}
		}
	}
	r.report["checked_responses"] = n
	return nil
}

// checker returns the oracle check for a scan response of the run's
// workload. On serve-writemix the scan may see any subset of the ring, so
// its count must lie between the dictionary's and the dictionary-plus-ring
// count.
func (r *run) checker() (func(body int, resp []byte) error, error) {
	o, err := newOracle(r.in.dict)
	if err != nil {
		return nil, err
	}
	switch {
	case r.w.mode == "all":
		want := make([][]hit, len(r.in.bodies))
		for i, b := range r.in.bodies {
			want[i] = o.all(b)
		}
		return func(body int, resp []byte) error { return checkAll(resp, want[body]) }, nil
	case r.w.writes:
		ow, err := newOracle(append(append([][]byte(nil), r.in.dict...), r.in.ring...))
		if err != nil {
			return nil, err
		}
		lo, hi := make([]int, len(r.in.bodies)), make([]int, len(r.in.bodies))
		for i, b := range r.in.bodies {
			lo[i], hi[i] = o.count(b), ow.count(b)
		}
		return func(body int, resp []byte) error { return checkCount(resp, lo[body], hi[body]) }, nil
	default:
		want := make([]int, len(r.in.bodies))
		for i, b := range r.in.bodies {
			want[i] = o.count(b)
		}
		return func(body int, resp []byte) error { return checkCount(resp, want[body], want[body]) }, nil
	}
}

// probe ends serve-writemix: once every write has been answered, scans of
// bodies planting dictionary and ring patterns must list exactly the
// matches of the dictionary plus the ring patterns left inserted.
func (r *run) probe(c *client, ws []*worker) {
	final := append([][]byte(nil), r.in.dict...)
	for _, k := range ws {
		final = append(final, k.present()...)
	}
	o, err := newOracle(final)
	if err != nil {
		r.fail("probe oracle: %v", err)
		return
	}
	for i, b := range r.in.probes {
		r.attempted++
		code, resp, err := c.do(http.MethodPost, "/scan?mode=all", b)
		switch {
		case err != nil:
			r.fail("probe %d: %v", i, err)
		case code/100 != 2:
			r.fail("probe %d: status %d", i, code)
		default:
			if err := checkAll(resp, o.all(b)); err != nil {
				r.fail("probe %d: %v", i, err)
			}
		}
	}
}
