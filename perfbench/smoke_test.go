package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// printed metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// layersOf names the spans a traced run of each workload must record: one
// per layer boundary that workload crosses.
var layersOf = map[string][]string{
	"http-push":        {"core.notify", "delivery.submit", "soap.send", "soap.serve", "core.gossip", "app"},
	"membus-push":      {"core.notify", "soap.send", "soap.serve", "core.gossip", "app"},
	"http-fresh":       {"core.start", "core.notify", "soap.send", "soap.call", "soap.serve", "core.gossip", "coord.activate", "coord.register", "app"},
	"membus-aggregate": {"aggregate.tick", "soap.send", "soap.serve", "aggregate.handle"},
}

// TestSmoke runs every workload briefly under a fixed seed, untraced and
// traced, and checks that each prints every metric BENCHMARK.json names
// with its unit, that the correctness gate passes, and that the traced run
// records spans for every layer the workload crosses.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the benchmark", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			seconds := 1.2
			for _, traced := range []bool{false, true} {
				res, err := run(options{
					w: w, seed: 7, seconds: seconds, trace: traced,
					setups: 2, warmup: 200 * time.Millisecond, log: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("trace=%v: correctness gate failed", traced)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace=%v: attempted %d, failed %d", traced, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%v: metric %s not printed", traced, m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s printed with unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if !traced {
					continue
				}
				for _, layer := range layersOf[w.name] {
					if res.spanCounts[layer] == 0 {
						t.Errorf("traced run recorded no %s spans (got %v)", layer, res.spanCounts)
					}
				}
			}
		})
	}
}
