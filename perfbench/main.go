// Command perfbench is the repository's benchmark. It boots an in-process
// three-shard fleet behind a router at production defaults, drives one
// workload through it (point, batch or mutate), checks every answer, and
// prints each metric by name and unit; the last line of its output is one
// JSON object. With --trace 1 it also replays the workload's fixture and
// queries against each layer's public entry point in turn and prints the
// per-layer latency ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int // fleet boots per run; setup_s is their median
}

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setups: 3}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: point, batch, mutate, or all three in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds of the end-to-end phases")
	flag.IntVar(&trace, "trace", 0, "1 adds the per-layer replay and reports its metrics")
	flag.Parse()
	cfg.trace = trace == 1
	var rep *report
	var err error
	if cfg.workload == "all" {
		rep, err = runAll(os.Stdout, cfg)
	} else {
		rep, err = run(os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload and prints its ledger to w. It returns an error
// only when the benchmark could not run; wrong answers are reported through
// report.Correct.
func run(w io.Writer, cfg config) (*report, error) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	f, err := newFixture(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	client := newClient()
	fl, setups, heapMB, err := setupFleet(f, client, cfg.setups)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer fl.close()
	ops, err := newHTTPOps(f, fl)
	if err != nil {
		return nil, err
	}
	e, err := runE2E(f, fl, ops, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	e.setup, e.heapMB = setups, heapMB
	rep := &report{Metrics: map[string]metric{}}
	e.print(w, cfg.workload, rep, !cfg.trace)
	if cfg.trace {
		l, err := runLayers(f, fl, ops, time.Duration(cfg.seconds*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		l.print(w, cfg.workload, rep)
		rep.Attempted += l.calls
		rep.Failed += l.bad
		rep.Correct = e.wrong == 0 && l.wrong == 0
	} else {
		rep.Correct = e.wrong == 0
	}
	return rep, nil
}

// runAll runs every workload in turn and merges their reports, each metric
// prefixed with its workload's name.
func runAll(w io.Writer, cfg config) (*report, error) {
	all := &report{Correct: true, Metrics: map[string]metric{}}
	for _, name := range []string{"point", "batch", "mutate"} {
		cfg.workload = name
		rep, err := run(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		all.Correct = all.Correct && rep.Correct
		all.Attempted += rep.Attempted
		all.Failed += rep.Failed
		for k, m := range rep.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	return all, nil
}
