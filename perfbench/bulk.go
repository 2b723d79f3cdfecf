package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pardict"
)

// A run sets up the program under test (builds the Matcher, or starts
// dictserve) setupBefore times before its measured phases and setupAfter
// times after them; setup_s is the median of all. Spreading the samples
// over the run keeps one short stall of a shared host from deciding it.
const (
	setupBefore = 4
	setupAfter  = 3
)

// buildBulk builds the bulk workload's Matcher n times, recording each
// build's CPU and wall time, and returns the last one.
func (r *run) buildBulk(n int, opts ...pardict.Option) (*pardict.Matcher, error) {
	var m *pardict.Matcher
	for i := 0; i < n; i++ {
		m = nil
		runtime.GC() // the previous build's garbage is not this build's cost
		c, t := selfCPU(), time.Now()
		mm, err := pardict.NewMatcher(r.in.dict, opts...)
		if err != nil {
			return nil, fmt.Errorf("NewMatcher: %w", err)
		}
		r.addSetup(selfCPU()-c, time.Since(t))
		m = mm
	}
	return m, nil
}

// runBulk measures bulk-lowhit: one caller runs the public Matcher with the
// wide prefilter over 1 MiB low-hit texts in a closed loop.
func (r *run) runBulk() error {
	screen := pardict.WithPrefilter(pardict.PrefilterOn)
	m, err := r.buildBulk(setupBefore, screen)
	if err != nil {
		return err
	}
	texts := r.in.bodies
	// One Matches per text: the last scan of each text in the timed loop is
	// what the oracle checks afterwards.
	dsts := make([]*pardict.Matches, len(texts))
	for k, t := range texts {
		dsts[k] = m.MatchInto(dsts[k], t)
	}
	runtime.GC() // the timed loop does not pay for the set-up's garbage

	lat := make([]time.Duration, 0, 1<<12)
	var scanned int64
	c0, t0 := selfCPU(), time.Now()
	deadline := t0.Add(r.seconds)
	for i := 0; ; i++ {
		s := time.Now()
		if !s.Before(deadline) {
			break
		}
		k := i % len(texts)
		dsts[k] = m.MatchInto(dsts[k], texts[k])
		lat = append(lat, time.Since(s))
		scanned += int64(len(texts[k]))
	}
	wall, cpu := time.Since(t0), selfCPU()-c0
	calls := len(lat)
	if calls == 0 {
		return errNoProgress
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		return err
	}
	r.attempted += int64(calls)
	r.set("cpu_ms_per_req", ms(cpu)/float64(calls))
	r.set("cpu_ns_per_byte", float64(cpu)/float64(scanned))
	r.set("peak_rss_mb", rss)
	r.observe("capacity_rps", float64(calls)/wall.Seconds(), 0)
	r.observe("bulk_mbps", float64(scanned)/wall.Seconds()/1e6, 0)
	r.observeLatency("scan", lat)
	if _, err := r.buildBulk(setupAfter, screen); err != nil {
		return err
	}
	r.setSetup()

	o, err := newOracle(r.in.dict)
	if err != nil {
		return err
	}
	for k, t := range texts {
		if err := checkLongest(dsts[k].Longest, dsts[k].Len(), o.longest(t)); err != nil {
			r.fail("bulk text %d: %v", k, err)
		}
	}
	return nil
}
