package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// Open-loop arrival rates (operations per second) and the mutate writer's
// period. Each rate sits well below the fleet's closed-loop capacity on a
// 2-CPU host, so the open-loop latencies measure service, not a backlog.
const (
	pointRate   = 2000.0
	batchRate   = 100.0
	mutateRate  = 500.0
	writePeriod = 250 * time.Millisecond
)

// window is the unit both loops are measured in. The run alternates an
// open-loop window with a closed-loop window, so both loops sample the host
// over the whole run, and p50_us and answers_per_s are medians over their
// windows: host noise that comes and goes within seconds shows as outlying
// windows instead of shifting a whole figure.
const window = 500 * time.Millisecond

// e2e holds the end-to-end phases of one run.
type e2e struct {
	setup  []time.Duration
	heapMB float64
	open   []*tally        // open-loop phase, one tally per window
	closed []*tally        // closed-loop phase, one tally per window
	writes *tally          // mutate writer, nil on point and batch
	cal    []time.Duration // CPU time of one calibration round, taken through the run
	counts []count
	wrong  int
}

// runE2E warms the fleet up, then alternates open-loop and closed-loop
// windows for dur, with the mutate writer beside them on the mutate
// workload. Counters are scraped around the measured windows.
func runE2E(f *fixture, fl *fleet, ops *httpOps, dur time.Duration) (*e2e, error) {
	base := fl.lc.URL()
	op := func(i int) outcome { return ops.point(base, i) }
	rate := pointRate
	switch f.name {
	case "batch":
		op = func(i int) outcome { return ops.batch(base, i) }
		rate = batchRate
	case "mutate":
		rate = mutateRate
	}
	clients := runtime.NumCPU()
	closedLoop(time.Second, clients, op) // warm-up: pools, connections, caches

	before, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	e := &e2e{}
	stop := make(chan struct{})
	done := make(chan *tally, 1)
	if f.name == "mutate" {
		ms := f.mutStream()
		go func() {
			done <- writer(writePeriod, stop, func() (outcome, bool) {
				m, ok := ms.nextOp()
				if !ok {
					return outcome{}, false
				}
				o := ops.mutate(m)
				ms.ack(m, !o.bad())
				return o, true
			})
		}()
	}
	for k := 0; k < max(1, int(dur/2/window)); k++ {
		if k%4 == 0 {
			e.cal = append(e.cal, calibrate())
		}
		open := openLoop(window, rate, clients, op)
		closed := closedLoop(window, clients, op)
		e.open = append(e.open, open)
		e.closed = append(e.closed, closed)
		e.wrong += open.wrong + closed.wrong
	}
	if f.name == "mutate" {
		close(stop)
		e.writes = <-done
	}
	after, err := fl.scrape()
	if err != nil {
		return nil, err
	}
	e.counts = countDeltas(before, after)
	return e, nil
}

// e2eFigures are the end-to-end metrics of one run.
type e2eFigures struct {
	p50, p99    time.Duration
	answersPerS float64
	open        *tally // every open-loop operation, pooled
	closed      *tally // every closed-loop operation, pooled
	all         *tally // every measured operation, writer included
}

// figures computes the end-to-end metrics: p50 and answers_per_s are
// medians over the windows, p99 is taken over every open-loop operation of
// the run (one window holds too few for a p99 on batch).
func (e *e2e) figures() e2eFigures {
	fg := e2eFigures{open: &tally{}, closed: &tally{}, all: &tally{}}
	var p50s []time.Duration
	var rates []float64
	for _, t := range e.open {
		fg.open.merge(t)
		p50s = append(p50s, summarize(t.lat).p50)
	}
	for _, t := range e.closed {
		fg.closed.merge(t)
		rates = append(rates, float64(t.answers)/t.elapsed.Seconds())
	}
	fg.p50 = median(p50s)
	fg.p99 = summarize(fg.open.lat).p99
	fg.answersPerS = medianFloat(rates)
	fg.all.merge(fg.open)
	fg.all.merge(fg.closed)
	if e.writes != nil {
		fg.all.merge(e.writes)
	}
	return fg
}

// print writes the end-to-end ledger and puts its metrics into rep: the
// gated end-to-end metrics when gated is set, otherwise the end-to-end
// figures reported without a bound (see README.md for why each is not
// gated).
func (e *e2e) print(w io.Writer, workload string, rep *report, gated bool) {
	fg := e.figures()
	all := fg.all
	lat := summarize(fg.open.lat)
	late := summarize(fg.open.late)
	setup := summarize(e.setup)
	nw := len(e.open)
	cpuPerAnswer := us(fg.closed.cpu) / float64(fg.closed.answers)
	errFrac := ratio(float64(all.bad), float64(all.ops))
	fmt.Fprintf(w, "e2e %s setup_s %.6f s (median of %d fleet boots)\n", workload, setup.p50.Seconds(), setup.n)
	fmt.Fprintf(w, "e2e %s heap_mb %.3f MB (heap in use after set-up, over the heap before it)\n", workload, e.heapMB)
	fmt.Fprintf(w, "e2e %s p50_us %.2f us (median of %d window p50s; n=%d, pooled p50 %.2f us)\n",
		workload, us(fg.p50), nw, lat.n, us(lat.p50))
	fmt.Fprintf(w, "e2e %s p99_us %.2f us (n=%d, beyond_p99=%d)\n", workload, us(fg.p99), lat.n, lat.beyondP99)
	fmt.Fprintf(w, "e2e %s gen.late_p99_us %.2f us (n=%d open-loop sends the generator slept toward)\n",
		workload, us(late.p99), late.n)
	fmt.Fprintf(w, "e2e %s answers_per_s %.1f 1/s (median of %d windows; %d answers in %.3f s, %d closed-loop clients)\n",
		workload, fg.answersPerS, nw, fg.closed.answers, fg.closed.elapsed.Seconds(), runtime.NumCPU())
	fmt.Fprintf(w, "e2e %s cpu_us_per_answer %.3f us (= %.3f process CPU s / %d closed-loop answers)\n",
		workload, cpuPerAnswer, fg.closed.cpu.Seconds(), fg.closed.answers)
	cal := median(e.cal)
	calPerAnswer := ratio(float64(fg.closed.cpu)/float64(fg.closed.answers), float64(cal))
	fmt.Fprintf(w, "e2e %s cpu_cal_per_answer %.5f cal (1 cal = %.3f us, the median of %d calibration runs)\n",
		workload, calPerAnswer, us(cal), len(e.cal))
	fmt.Fprintf(w, "e2e %s err_frac %.6f ratio (= %d / %d operations; %d wrong answers)\n",
		workload, errFrac, all.bad, all.ops, all.wrong)
	var mutP50 time.Duration
	if e.writes != nil {
		m := summarize(e.writes.lat)
		ml := summarize(e.writes.late)
		mutP50 = m.p50
		fmt.Fprintf(w, "e2e %s mut_p50_ms %.3f ms (n=%d, p99 %.3f ms, beyond_p99=%d, failed=%d)\n",
			workload, float64(m.p50)/1e6, m.n, float64(m.p99)/1e6, m.beyondP99, e.writes.bad)
		fmt.Fprintf(w, "e2e %s gen.late_p99_us(writer) %.2f us (n=%d)\n", workload, us(ml.p99), ml.n)
	}
	if all.firstErr != "" {
		fmt.Fprintf(w, "error %s e2e first: %s\n", workload, all.firstErr)
	}
	if all.wrong > 0 {
		fmt.Fprintf(w, "WRONG %s e2e: %d wrong answers\n", workload, all.wrong)
	}
	for _, k := range e.counts {
		if k.baseName == "" {
			fmt.Fprintf(w, "count %s %g %s\n", k.name, k.value(), k.unit)
		} else {
			fmt.Fprintf(w, "count %s %.6g %s (= %g / %g %s)\n", k.name, k.value(), k.unit, k.num, k.base, k.baseName)
		}
	}
	rep.Attempted += all.ops
	rep.Failed += all.bad
	if gated {
		rep.Metrics["setup_s"] = metric{setup.p50.Seconds(), "s"}
		rep.Metrics["heap_mb"] = metric{e.heapMB, "MB"}
		rep.Metrics["cpu_cal_per_answer"] = metric{calPerAnswer, "cal"}
		return
	}
	rep.Metrics["p50_us"] = metric{us(fg.p50), "us"}
	rep.Metrics["cpu_us_per_answer"] = metric{cpuPerAnswer, "us"}
	rep.Metrics["cal_us"] = metric{us(cal), "us"}
	rep.Metrics["p99_us"] = metric{us(fg.p99), "us"}
	rep.Metrics["answers_per_s"] = metric{fg.answersPerS, "1/s"}
	rep.Metrics["err_frac"] = metric{errFrac, "ratio"}
	rep.Metrics["mut_p50_ms"] = metric{float64(mutP50) / 1e6, "ms"}
	rep.Metrics["gen.late_p99_us"] = metric{us(late.p99), "us"}
	for _, k := range e.counts {
		rep.Metrics[k.name] = metric{k.value(), k.unit}
	}
}
