// Command perfbench is the repository's end-to-end benchmark. It drives
// the optimizer service in-process, built the way cmd/cleoserve builds it
// (serve.NewService with a metrics registry and coalescing on), and passes
// every request straight to serve.NewHandler so no loopback socket is
// timed. One closed-loop client sends a fixed sequence of whole rounds of
// operations; every response is checked, and the result is printed as a
// metric table followed by one JSON object on the last line.
//
// Usage (from the repository root):
//
//	go run ./perfbench --workload trace-serve --seed 1 --seconds 10 --trace 0
//
// Workloads: trace-serve, tpch-execute, retrain. --seconds
// sizes the run: each workload turns it into a whole number of rounds, so
// a run is a fixed operation count for a given --seconds. --trace 0
// reports the end-to-end metrics; --trace 1 runs half the rounds with
// spans recorded around every call into the service and its layers,
// reports the per-layer metrics and writes the spans as JSON under
// .bench_build/perfbench in the working directory, beside the service's
// state directory. See README.md in this directory.
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

// processStart stamps the process's start for setup_s: package-level
// variables initialize before main runs.
var processStart = time.Now()

// outDir holds span JSON and state directories, relative to the working
// directory.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	name := flag.String("workload", "", "workload: trace-serve, tpch-execute or retrain")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "target run length; sizes the fixed operation count")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fail("--seconds must be at least 1")
	}
	w, err := newWorkload(*name)
	if err != nil {
		fail(err.Error())
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err.Error())
	}
	res, err := run(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1})
	if err != nil {
		fail(err.Error())
	}
	printResult(w.name(), res)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}

// metric is one reported value.
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

// printResult prints the metric table, then the JSON result line.
func printResult(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s: correct=%v attempted=%d failed=%d\n",
		workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(line))
}
