package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the result of one operation.
type outcome struct {
	answers int    // distances answered and checked correct
	failed  bool   // the operation failed or was refused
	wrong   int    // distances that differ from the expected answer
	err     string // first failure or mismatch, for the log
}

// bad reports whether the operation counts toward err_frac.
func (o outcome) bad() bool { return o.failed || o.wrong > 0 }

// tally accumulates the outcomes and latencies of one phase.
type tally struct {
	lat      []time.Duration
	late     []time.Duration // generator lateness, open loop only
	ops      int
	bad      int
	wrong    int
	answers  int
	firstErr string
	elapsed  time.Duration
	cpu      time.Duration // process CPU time over the phase (closed loop)
}

func (t *tally) add(o outcome, lat time.Duration) {
	t.ops++
	t.lat = append(t.lat, lat)
	t.answers += o.answers
	t.wrong += o.wrong
	if o.bad() {
		t.bad++
		if t.firstErr == "" {
			t.firstErr = o.err
		}
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.late = append(t.late, o.late...)
	t.ops += o.ops
	t.bad += o.bad
	t.wrong += o.wrong
	t.answers += o.answers
	t.elapsed += o.elapsed
	t.cpu += o.cpu
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// openLoop issues op(i) for i = 0, 1, ... on a fixed schedule, operation i
// due at start + i/rate, until dur has passed. Each of `workers` workers
// takes the next operation, sleeps until it is due and issues it, so at
// most that many are in flight: an operation that falls due while every
// worker is busy leaves late, and that wait counts toward its latency, which
// is always timed from when the operation was due. The generator's own
// lateness — how far past the due time a sleeping worker woke — is recorded
// for every operation a worker slept toward.
func openLoop(dur time.Duration, rate float64, workers int, op func(i int) outcome) *tally {
	period := time.Duration(float64(time.Second) / rate)
	n := int64(dur / period)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	parts := make([]*tally, workers)
	var wg sync.WaitGroup
	for w := range parts {
		t := &tally{}
		parts[w] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if time.Now().Before(due) {
					sleepUntil(due)
					t.late = append(t.late, time.Since(due))
				}
				o := op(int(i))
				t.add(o, time.Since(due))
			}
		}()
	}
	wg.Wait()
	all := &tally{elapsed: time.Since(start)}
	for _, t := range parts {
		all.merge(t)
	}
	return all
}

// closedLoop runs `clients` goroutines that each issue their next operation
// as soon as the previous one returns, for dur.
func closedLoop(dur time.Duration, clients int, op func(i int) outcome) *tally {
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var next atomic.Int64
	parts := make([]*tally, clients)
	var wg sync.WaitGroup
	for c := range parts {
		t := &tally{}
		parts[c] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				o := op(i)
				t.add(o, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	all := &tally{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	for _, t := range parts {
		all.merge(t)
	}
	return all
}

// writer runs a single open-loop writer beside the read phases: operation k
// falls due at start + k·period and is sent when due, or as soon as the
// previous one returns if that is later; its latency is timed from when it
// was due. It stops at the first due time after stop is closed, or when op
// reports the stream exhausted.
func writer(period time.Duration, stop <-chan struct{}, op func() (outcome, bool)) *tally {
	t := &tally{}
	start := time.Now()
	defer func() { t.elapsed = time.Since(start) }()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if time.Now().Before(due) {
			sleepUntil(due)
			t.late = append(t.late, time.Since(due))
		}
		select {
		case <-stop:
			return t
		default:
		}
		o, ok := op()
		if !ok {
			return t
		}
		t.add(o, time.Since(due))
	}
}
