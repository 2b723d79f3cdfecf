package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := genInputs(w, 7), genInputs(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 generated different inputs twice", w.name)
		}
		c := genInputs(w, 8)
		for _, k := range []string{"dict", "ring", "bodies"} {
			if a.digests[k] == c.digests[k] {
				t.Errorf("%s: seeds 7 and 8 give the same %s digest %s", w.name, k, a.digests[k])
			}
		}
		if w.writes && a.digests["probes"] == c.digests["probes"] {
			t.Errorf("%s: seeds 7 and 8 give the same probes", w.name)
		}
	}
}

func TestInputsShape(t *testing.T) {
	w, _ := findWorkload("serve-writemix")
	in := genInputs(w, 3)
	seen := map[string]bool{}
	for _, p := range append(append([][]byte(nil), in.dict...), in.ring...) {
		if seen[string(p)] {
			t.Fatalf("pattern %q generated twice", p)
		}
		seen[string(p)] = true
	}
	if len(in.dict) != dictPatterns || len(in.ring) != ringPatterns {
		t.Fatalf("got %d patterns and %d ring patterns", len(in.dict), len(in.ring))
	}
	o, err := newOracle(in.dict)
	if err != nil {
		t.Fatal(err)
	}
	var hits, n int
	for _, b := range in.bodies {
		hits += o.count(b)
		n += len(b)
	}
	// Planted starts are 5% of positions; chance matches of short patterns
	// add a little.
	if frac := float64(hits) / float64(n); frac < 0.045 || frac > 0.07 {
		t.Errorf("high-hit bodies: %.3f of positions match, want about 0.05", frac)
	}
}

// reply renders a /scan response the way dictserve does.
func reply(t *testing.T, hs []hit) []byte {
	type match struct {
		Pos     int    `json:"pos"`
		Pattern int    `json:"pattern"`
		Text    string `json:"text"`
	}
	out := struct {
		Count   int     `json:"count"`
		Matches []match `json:"matches,omitempty"`
	}{Count: len(hs)}
	for i, h := range hs {
		out.Matches = append(out.Matches, match{Pos: h.Pos, Pattern: i, Text: h.Text})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOracleRejectsCorruptResponse(t *testing.T) {
	pats := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}
	o, err := newOracle(pats)
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("ushers and his shed")
	want := o.all(text)
	if len(want) == 0 {
		t.Fatal("oracle found no matches")
	}
	if err := checkAll(reply(t, want), want); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	corrupt := map[string]func([]hit) []hit{
		"shifted position": func(hs []hit) []hit { hs[0].Pos++; return hs },
		"wrong pattern":    func(hs []hit) []hit { hs[1].Text = "hers"; return hs },
		"missing match":    func(hs []hit) []hit { return hs[1:] },
		"extra match":      func(hs []hit) []hit { return append(hs, hit{Pos: 0, Text: "he"}) },
	}
	for name, f := range corrupt {
		bad := f(append([]hit(nil), want...))
		if err := checkAll(reply(t, bad), want); err == nil {
			t.Errorf("%s: corrupted all-matches reply accepted", name)
		}
	}
	if err := checkAll([]byte(`{"count":`), want); err == nil {
		t.Error("truncated reply accepted")
	}

	n := o.count(text)
	if err := checkCount([]byte(fmt.Sprintf(`{"count":%d}`, n)), n, n); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	if err := checkCount([]byte(fmt.Sprintf(`{"count":%d}`, n+1)), n, n); err == nil {
		t.Error("corrupted count accepted")
	}

	longest := o.longest(text)
	good := func(i int) (int, bool) { return int(longest[i]), longest[i] >= 0 }
	if err := checkLongest(good, len(text), longest); err != nil {
		t.Fatalf("correct longest output rejected: %v", err)
	}
	off := func(i int) (int, bool) {
		if i == 2 { // "hers" starts at 2; report "he" instead
			return 0, true
		}
		return good(i)
	}
	if err := checkLongest(off, len(text), longest); err == nil {
		t.Error("corrupted longest output accepted")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONNames(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command runs %s", got, want)
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", layer, perLayer)
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs the in-process workload for one
// second and checks that its result line carries exactly the end-to-end
// metrics BENCHMARK.json declares, with their units.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bulk workload")
	}
	bj := readBenchmarkJSON(t)
	var out, errb bytes.Buffer
	code := realMain([]string{"-workload", "bulk-lowhit", "-seed", "5", "-seconds", "1", "-workdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	if len(res.Metrics) != len(bj.EndToEnd) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s and a positive value", m.Name, got, ok, m.Unit)
		}
	}
}

func TestUnion(t *testing.T) {
	iv := [][2]float64{{5, 7}, {0, 2}, {1, 3}, {6, 9}}
	if got := union(iv); got != 7 {
		t.Fatalf("union = %v, want 7", got)
	}
}
