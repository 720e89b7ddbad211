// Command girperf is the repository's benchmark. It builds one workload
// from a seed, drives the library through its public API, checks the
// answers against a brute-force oracle, and prints every metric by name
// with its unit; the last line of its output is one JSON object.
//
//	bash girperf/run.sh --workload hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// run that gives the per-layer metrics. --write-spec PATH writes
// BENCHMARK.json. RATIONALE.md explains the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

type config struct {
	w       *workload
	p       params
	seed    int64
	seconds int
	trace   bool
	workDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Int("seconds", runSeconds, "length of the timed section")
		trace     = flag.Int("trace", 0, "0 measures end-to-end metrics, 1 runs the traced per-layer run")
		writeSpec = flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
		workDir   = flag.String("workdir", ".bench_build/girperf", "directory for write-ahead logs and span files")
	)
	flag.Parse()
	if *writeSpec != "" {
		if err := os.WriteFile(*writeSpec, specJSON(), 0o644); err != nil {
			fail(err)
		}
		return
	}
	w := workloadByName(*name)
	switch {
	case w == nil:
		fail(fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames()))
	case *seconds < 1:
		fail(errors.New("--seconds must be at least 1"))
	case *trace != 0 && *trace != 1:
		fail(errors.New("--trace must be 0 or 1"))
	}
	cfg := config{w: w, p: defaultParams, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: *workDir}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "girperf:", err)
	os.Exit(1)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// report prints the metrics one per line, sorted by name.
func report(out io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
