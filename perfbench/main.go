// Command perfbench is the repository benchmark. It runs one named workload
// against the code in its checkout, from inputs generated from a seed, checks
// every output it samples against an Aho–Corasick oracle, and prints its
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a user of pardict sees;
// with -trace 1 a separate pass times each layer, from the prefilter kernel
// up to dictserve over HTTP, by calling that layer's entry point on the same
// inputs, and prints the ladder table of where the time goes. perfbench/run.sh
// builds this command and cmd/dictserve and runs it; README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

type bodyKind int

const (
	bodyBulk bodyKind = iota // 1 MiB low-hit texts, in process
	bodyLow                  // 4 KiB uniformly random bytes
	bodyHigh                 // 4 KiB a–z text with planted patterns
)

// workload is one named traffic mix.
type workload struct {
	name   string
	body   bodyKind
	served bool    // driven through dictserve over loopback
	mode   string  // /scan mode of the scan requests
	writes bool    // half the requests toggle ring patterns
	sized  float64 // closed-loop req/s of the sizing host (served only)
}

// rate is the open-loop request rate: a quarter of the sized capacity.
func (w workload) rate() float64 { return w.sized / 4 }

// The sized capacities were measured on the 2-CPU host described in
// README.md. They fix the open-loop rate and the number of closed-loop
// requests per cycle, so a run's traffic is the same on every commit.
var workloads = []workload{
	{name: "bulk-lowhit", body: bodyBulk},
	{name: "serve-lowhit", body: bodyLow, served: true, mode: "count", sized: 1000},
	{name: "serve-highhit", body: bodyHigh, served: true, mode: "all", sized: 560},
	{name: "serve-writemix", body: bodyHigh, served: true, mode: "count", writes: true, sized: 320},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports on every workload. A
// "request" is one scan or write: an HTTP request on the served workloads,
// one MatchInto over a 1 MiB text on bulk-lowhit. They are costs in CPU time
// and memory, which stay steady on a shared host whose CPU steal moves
// wall-clock figures by more than a usable bound (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"cpu_ns_per_byte", "ns/B"},
	{"peak_rss_mb", "MiB"},
}

// observed are the wall-clock end-to-end figures a -trace 0 run prints
// beside the result, qualified by the run's CPU steal, but does not put in
// the result: capacity and latency as a user sees them. A latency is printed
// with its sample count; write latencies exist on serve-writemix only.
var observed = []metricDef{
	{"capacity_rps", "req/s"},
	{"bulk_mbps", "MB/s"},
	{"scan_p50_ms", "ms"},
	{"scan_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"setup_wall_s", "s"},
}

// perLayer are the metrics a -trace 1 run reports on every workload.
var perLayer = []metricDef{
	{"prefilter.ns_per_byte", "ns/B"},
	{"prefilter.pass_frac", "ratio"},
	{"core.ns_per_byte", "ns/B"},
	{"core.work_per_byte", "work/B"},
	{"core.depth", "phases"},
	{"core.allocs_per_scan", "count"},
	{"pram.phases_per_req", "count"},
	{"pram.steals_per_req", "count"},
	{"pram.parks_per_req", "count"},
	{"pram.mean_grain", "count"},
	{"matcher.ns_per_byte", "ns/B"},
	{"matcher.self_ns_per_byte", "ns/B"},
	{"matcher.allocs_per_scan", "count"},
	{"matcher.bytes_per_scan", "B"},
	{"shard.ns_per_byte", "ns/B"},
	{"shard.fanout_factor", "ratio"},
	{"shard.work_per_byte", "work/B"},
	{"shard.allocs_per_scan", "count"},
	{"shard.bytes_per_scan", "B"},
	{"shard.insert_us", "us"},
	{"shard.delete_us", "us"},
	{"shard.rebuilds", "count"},
	{"shard.snapshot_swaps", "count"},
	{"shard.reconcile_work", "work"},
	{"shard.pending_ops_max", "count"},
	{"http.overhead_ms", "ms"},
	{"http.resp_bytes_per_req", "B"},
	{"http.alloc_bytes_per_req", "B"},
	{"http.gc_per_kreq", "count"},
	{"http.span_share.encode", "ratio"},
	{"http.span_share.shard", "ratio"},
	{"http.span_share.merge", "ratio"},
	{"http.errors", "count"},
	{"gen.late_p99_ms", "ms"},
	{"host.steal_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	w         workload
	in        *inputs
	seconds   time.Duration
	dictserve string // path to the dictserve binary
	workdir   string // scratch directory for dictionary files
	out       io.Writer

	attempted int64
	failures

	setups     []float64 // CPU seconds of every set-up of the program under test
	setupWalls []float64 // wall seconds of the same set-ups
	metrics    map[string]float64
	observed   map[string]observation
	// report holds the run-quality record: what identifies and qualifies a
	// run beyond its metrics, printed as one JSON line before the result.
	report map[string]any
}

// failures counts failed operations and keeps the first few descriptions.
type failures struct {
	failed int64
	first  []string
}

// fail counts one failed operation and remembers why.
func (f *failures) fail(format string, args ...any) {
	f.add(1, fmt.Sprintf(format, args...))
}

// add counts n failed operations described by msgs.
func (f *failures) add(n int64, msgs ...string) {
	f.failed += n
	for _, m := range msgs {
		if len(f.first) < 8 {
			f.first = append(f.first, m)
		}
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// observation is a printed wall-clock figure and its sample count (0 when
// it is not a percentile).
type observation struct {
	value float64
	n     int
}

func (r *run) observe(name string, v float64, n int) { r.observed[name] = observation{v, n} }

// observeLatency records the p50 and p99 of a set of latencies as name_p50_ms
// and name_p99_ms.
func (r *run) observeLatency(name string, xs []time.Duration) {
	r.observe(name+"_p50_ms", ms(quantile(xs, 0.5)), len(xs))
	r.observe(name+"_p99_ms", ms(quantile(xs, 0.99)), len(xs))
}

// addSetup records one set-up of the program under test.
func (r *run) addSetup(cpu, wall time.Duration) {
	r.setups = append(r.setups, cpu.Seconds())
	r.setupWalls = append(r.setupWalls, wall.Seconds())
}

// setSetup reports setup_s, the median CPU time of the run's set-ups, and
// their median wall time.
func (r *run) setSetup() {
	r.set("setup_s", median(r.setups))
	r.observe("setup_wall_s", median(r.setupWalls), 0)
	r.report["setup_cpu_s"] = r.setups
	r.report["setup_wall_s"] = r.setupWalls
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bulk-lowhit, serve-lowhit, serve-highhit or serve-writemix")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced pass")
	dictserve := fs.String("dictserve", "", "dictserve binary (set by run.sh)")
	workdir := fs.String("workdir", "", "scratch directory (set by run.sh)")
	root := fs.String("root", ".", "checkout root, for the run's fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	if (w.served || *traced == 1) && *dictserve == "" {
		fmt.Fprintln(stderr, "perfbench: -dictserve is required; run through perfbench/run.sh")
		return 2
	}
	if *workdir == "" {
		*workdir = os.TempDir()
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		w: w, seconds: time.Duration(*seconds) * time.Second,
		dictserve: *dictserve, workdir: dir, out: stdout,
		metrics: map[string]float64{}, observed: map[string]observation{},
		report: map[string]any{},
	}
	r.in = genInputs(w, *seed)
	t0 := readTicks()
	start := time.Now()
	defs := endToEnd
	switch {
	case *traced == 1:
		defs = perLayer
		err = r.runTraced()
	case w.served:
		err = r.runServed()
	default:
		err = r.runBulk()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	steal := stealFrac(t0, readTicks())
	if *traced == 1 {
		r.set("host.steal_frac", steal)
	}
	r.report["workload"] = w.name
	r.report["trace"] = *traced
	r.report["seed"] = *seed
	r.report["digests"] = r.in.digests
	r.report["fingerprint"] = hostFingerprint(*root)
	r.report["host.steal_frac"] = steal
	r.report["wall_s"] = time.Since(start).Seconds()
	if len(r.first) > 0 {
		r.report["failures"] = r.first
	}

	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	printReport(stdout, r, defs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, f := range r.first {
			fmt.Fprintln(stderr, "perfbench: failed:", f)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printReport writes the human-readable part of the output: each metric with
// its unit, then the run-quality record as one JSON line.
func printReport(out io.Writer, r *run, defs []metricDef) {
	fmt.Fprintf(out, "# %s seed=%d\n", r.w.name, r.in.seed)
	for _, d := range defs {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
	if len(r.observed) > 0 {
		fmt.Fprintf(out, "# wall clock, not in the result (host.steal_frac %.3f)\n", r.report["host.steal_frac"])
	}
	for _, d := range observed {
		o, ok := r.observed[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "%-28s %14.6g %s", d.name, o.value, d.unit)
		if o.n > 0 {
			fmt.Fprintf(out, " (n=%d)", o.n)
		}
		fmt.Fprintln(out)
	}
	b, err := json.Marshal(r.report)
	if err == nil {
		fmt.Fprintf(out, "report %s\n", b)
	}
}

// quantile returns the q-quantile of xs (nearest rank) after sorting xs in
// place; 0 for no samples.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencySummary is a timing reported with its sample count.
type latencySummary struct {
	N     int     `json:"n"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

func summarize(xs []time.Duration) latencySummary {
	return latencySummary{N: len(xs), P50ms: ms(quantile(xs, 0.5)), P99ms: ms(quantile(xs, 0.99))}
}

var errNoProgress = errors.New("no request completed")
