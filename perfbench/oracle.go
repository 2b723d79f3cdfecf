package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"pardict/internal/ahocorasick"
)

// oracle answers every correctness question from an Aho–Corasick automaton,
// an engine independent of the paper's shrink-and-spawn cascade. It is built
// and consulted only outside timed regions.
type oracle struct {
	pats [][]byte
	ac   *ahocorasick.Automaton
}

func encode(b []byte) []int32 {
	out := make([]int32, len(b))
	for i, c := range b {
		out[i] = int32(c)
	}
	return out
}

func newOracle(pats [][]byte) (*oracle, error) {
	enc := make([][]int32, len(pats))
	for i, p := range pats {
		enc[i] = encode(p)
	}
	ac, err := ahocorasick.New(enc)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{pats: pats, ac: ac}, nil
}

// longest is the paper's output: per position, the index into pats of the
// longest pattern starting there, or -1.
func (o *oracle) longest(text []byte) []int32 { return o.ac.LongestMatchStarting(encode(text)) }

// count is what /scan?mode=count reports: positions where some pattern starts.
func (o *oracle) count(text []byte) int {
	n := 0
	for _, p := range o.longest(text) {
		if p >= 0 {
			n++
		}
	}
	return n
}

// hit is one occurrence as /scan?mode=all reports it, minus the server's
// pattern id (which depends on load order, not on the match).
type hit struct {
	Pos  int    `json:"pos"`
	Text string `json:"text"`
}

func sortHits(hs []hit) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Pos != hs[j].Pos {
			return hs[i].Pos < hs[j].Pos
		}
		return hs[i].Text < hs[j].Text
	})
}

// all lists every occurrence in text, sorted.
func (o *oracle) all(text []byte) []hit {
	var hs []hit
	o.ac.AllMatches(encode(text), func(start int, pat int32) {
		hs = append(hs, hit{Pos: start, Text: string(o.pats[pat])})
	})
	sortHits(hs)
	return hs
}

// scanReply is the JSON body dictserve returns from /scan.
type scanReply struct {
	Count   int   `json:"count"`
	Matches []hit `json:"matches"`
}

// checkCount verifies a /scan?mode=count reply against an inclusive range of
// acceptable counts (a single value unless concurrent writes may add
// matches).
func checkCount(resp []byte, lo, hi int) error {
	var r scanReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("count reply: %w", err)
	}
	if r.Count < lo || r.Count > hi {
		if lo == hi {
			return fmt.Errorf("count reply: got %d, oracle %d", r.Count, lo)
		}
		return fmt.Errorf("count reply: got %d, oracle range [%d, %d]", r.Count, lo, hi)
	}
	return nil
}

// checkAll verifies a /scan?mode=all reply against the oracle's occurrence
// list.
func checkAll(resp []byte, want []hit) error {
	var r scanReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return fmt.Errorf("all reply: %w", err)
	}
	if r.Count != len(r.Matches) {
		return fmt.Errorf("all reply: count %d but %d matches listed", r.Count, len(r.Matches))
	}
	got := r.Matches
	sortHits(got)
	if len(got) != len(want) {
		return fmt.Errorf("all reply: %d matches, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("all reply: match %d is %+v, oracle %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkLongest verifies per-position longest-match output (pattern indices
// into the same list the oracle was built from; -1 for none) against the
// oracle's.
func checkLongest(got func(i int) (int, bool), n int, want []int32) error {
	if len(want) != n {
		return fmt.Errorf("longest: %d positions, oracle %d", n, len(want))
	}
	for i := 0; i < n; i++ {
		id, ok := got(i)
		if !ok {
			id = -1
		}
		if int32(id) != want[i] {
			return fmt.Errorf("longest: position %d has pattern %d, oracle %d", i, id, want[i])
		}
	}
	return nil
}
