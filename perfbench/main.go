// Command perfbench is the repository's end-to-end benchmark. One process
// runs one named workload from a seed for a given number of seconds,
// checks the program's outputs, and prints one JSON line as its last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with no
// spans and no profiler running. With --trace 1 the same workload runs
// with spans around every call the benchmark makes into the program and a
// CPU profile of the process, and the metrics are the per-layer ones. Run
// it through run.py, which builds this package from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named set of generated inputs and the loop that drives
// the program with them.
type workload struct {
	name string
	run  func(*bench) error
}

var workloads = []workload{
	{"fleet-wide", fleetWide.run},
	{"fleet-dense", fleetDense.run},
	{"real-stream", realStream},
}

func main() {
	name := flag.String("workload", "", "workload to run (fleet-wide, fleet-dense, real-stream)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the measured loop runs, in seconds")
	traced := flag.Int("trace", 0, "1 runs with spans and a CPU profile and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans and profile to")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	b := newBench(*seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err := b.start(); err != nil {
		fatal(err)
	}
	if err := w.run(b); err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	if err := b.finish(filepath.Join(*out, "traces"), fmt.Sprintf("%s-seed%d", w.name, *seed)); err != nil {
		fatal(err)
	}
	res, err := b.result()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result assembles the output line: every metric of the run's kind
// (end-to-end untraced, per-layer traced), in the units BENCHMARK.json
// declares. A per-layer metric the workload's calls never reach reads 0;
// a missing end-to-end metric is a benchmark bug.
func (b *bench) result() (result, error) {
	specs := endToEnd
	if b.traced {
		specs = perLayer
	}
	out := result{
		Correct:   len(b.violations) == 0,
		Attempted: b.ops.attempted,
		Failed:    b.ops.failed,
		Metrics:   map[string]metric{},
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation attempted")
	}
	for _, s := range specs {
		v, ok := b.values[s.name]
		if !ok && !b.traced {
			return out, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	var extra []string
	for name := range b.values {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return out, fmt.Errorf("metrics missing from the metric table: %v", extra)
	}
	for _, v := range b.violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	return out, nil
}
