// Command perfbench is the repository benchmark: it boots
// wsgossip-node-shaped stacks in one process, drives one workload for a
// fixed time, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced quarters and prints the per-layer
// metrics, the measured tracing overhead, and a per-layer self-time table
// (standard error), and writes the spans to --out-dir.
//
//	go run . --workload membus-push --seed 1 --seconds 10 --trace 0
//
// See NOTES.md for the workloads, the metrics, and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "http-push | membus-push | http-fresh | membus-aggregate")
		seed    = flag.Int64("seed", 1, "workload seed: payloads, values, and every node's RNG derive from it")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		outDir  = flag.String("out-dir", ".bench_build/perfbench", "directory traced runs write their spans to")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(options{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: *outDir, setups: 11, warmup: time.Second, log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
