package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
)

// Input sizes shared by every workload.
const (
	dictPatterns = 16384   // distinct dictionary patterns
	minPatLen    = 4       // shortest dictionary pattern
	maxPatLen    = 16      // longest dictionary pattern
	ringPatterns = 4096    // extra patterns serve-writemix toggles
	minRingLen   = 10      // ring patterns are long enough never to occur by chance
	servedBody   = 4 << 10 // bytes per served request body
	bulkText     = 1 << 20 // bytes per bulk text
	servedBodies = 64      // distinct served bodies per kind, cycled through
	bulkTexts    = 4       // distinct bulk texts, cycled through
	probeBodies  = 8       // serve-writemix end-of-run probe bodies
	plantPerMil  = 50      // high-hit bodies: pattern starts per 1000 positions
)

// inputs is everything a run generates from its seed. The program under test
// receives only these bytes; nothing depends on the clock or the host.
type inputs struct {
	seed    uint64
	dict    [][]byte // distinct a–z patterns, lengths minPatLen..maxPatLen
	ring    [][]byte // distinct from dict and each other, lengths minRingLen..maxPatLen
	bodies  [][]byte // the workload's scan bodies
	probes  [][]byte // serve-writemix only: bodies planting ring and dict patterns
	digests map[string]string
}

// newRand returns the generator for one named input stream of a seed, so
// that adding a stream never shifts the bytes of another.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

func letters(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(r.IntN(26))
	}
	return b
}

// genPatterns draws n distinct a–z patterns with lengths in [lo, hi] that are
// absent from avoid.
func genPatterns(r *rand.Rand, n, lo, hi int, avoid map[string]bool) [][]byte {
	out := make([][]byte, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		p := letters(r, lo+r.IntN(hi-lo+1))
		if seen[string(p)] || avoid[string(p)] {
			continue
		}
		seen[string(p)] = true
		out = append(out, p)
	}
	return out
}

// lowHit is uniformly random bytes: almost no position starts a pattern.
func lowHit(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	for i := n &^ 7; i < n; i++ {
		b[i] = byte(r.Uint32())
	}
	return b
}

// highHit is a–z text in which non-overlapping copies of patterns from plant
// start at about plantPerMil of every 1000 positions.
func highHit(r *rand.Rand, n int, plant [][]byte) []byte {
	var total int
	for _, p := range plant {
		total += len(p)
	}
	// Each plant also covers len-1 positions where none can start, so the
	// per-free-position chance q is raised to give plantPerMil starts overall.
	f := float64(plantPerMil) / 1000
	q := f / (1 - f*(float64(total)/float64(len(plant))-1))
	b := letters(r, n)
	for i := 0; i < n; {
		if r.Float64() >= q {
			i++
			continue
		}
		p := plant[r.IntN(len(plant))]
		copy(b[i:], p)
		i += len(p)
	}
	return b
}

// genInputs builds the inputs of one workload from a seed.
func genInputs(w workload, seed uint64) *inputs {
	in := &inputs{seed: seed}
	in.dict = genPatterns(newRand(seed, 1), dictPatterns, minPatLen, maxPatLen, nil)
	avoid := make(map[string]bool, len(in.dict))
	for _, p := range in.dict {
		avoid[string(p)] = true
	}
	in.ring = genPatterns(newRand(seed, 2), ringPatterns, minRingLen, maxPatLen, avoid)
	r := newRand(seed, 3)
	switch w.body {
	case bodyBulk:
		for i := 0; i < bulkTexts; i++ {
			in.bodies = append(in.bodies, lowHit(r, bulkText))
		}
	case bodyLow:
		for i := 0; i < servedBodies; i++ {
			in.bodies = append(in.bodies, lowHit(r, servedBody))
		}
	case bodyHigh:
		for i := 0; i < servedBodies; i++ {
			in.bodies = append(in.bodies, highHit(r, servedBody, in.dict))
		}
	}
	if w.writes {
		pr := newRand(seed, 4)
		both := append(append([][]byte(nil), in.dict...), in.ring...)
		for i := 0; i < probeBodies; i++ {
			in.probes = append(in.probes, highHit(pr, servedBody, both))
		}
	}
	in.digests = map[string]string{
		"dict":   digest(in.dict),
		"ring":   digest(in.ring),
		"bodies": digest(in.bodies),
		"probes": digest(in.probes),
	}
	return in
}

// digest is a short content hash of a list of byte strings (length-prefixed,
// so element boundaries count).
func digest(xs [][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(n[:], uint64(len(x)))
		h.Write(n[:])
		h.Write(x)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
