package soap

import (
	"encoding/json"
	"os"
	"testing"

	"wsgossip/internal/metrics"
)

// Allocation-budget regression guard. BENCH_04 drove the canonical decode
// to single-digit allocs/op; these tests pin that win against silent
// regressions with budgets committed in testdata/alloc_budget.json — CI
// runs them (and the -benchmem smoke) on every push.

type allocBudget struct {
	DecodeMaxAllocs float64 `json:"decode_1kib_max_allocs"`
	EncodeMaxAllocs float64 `json:"encode_1kib_max_allocs"`
	CloneMaxAllocs  float64 `json:"clone_1kib_max_allocs"`
}

func loadAllocBudget(t *testing.T, path string) allocBudget {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	var b allocBudget
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse alloc budget: %v", err)
	}
	if b.DecodeMaxAllocs <= 0 || b.EncodeMaxAllocs <= 0 || b.CloneMaxAllocs <= 0 {
		t.Fatalf("alloc budget missing fields: %+v", b)
	}
	return b
}

func TestDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := loadAllocBudget(t, "testdata/alloc_budget.json")
	env := benchEnvelope(t, 1<<10)
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The canonical wire format must take the scanner path at all — a
	// budget met by accident on the fallback would hide a broken scanner.
	if _, ok := decodeScan(data); !ok {
		t.Fatalf("canonical envelope rejected by the scanner:\n%s", data)
	}
	decodeAllocs := testing.AllocsPerRun(200, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if decodeAllocs > budget.DecodeMaxAllocs {
		t.Errorf("Decode(1KiB) = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			decodeAllocs, budget.DecodeMaxAllocs)
	}
	encodeAllocs := testing.AllocsPerRun(200, func() {
		if _, err := env.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if encodeAllocs > budget.EncodeMaxAllocs {
		t.Errorf("Encode(1KiB) = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			encodeAllocs, budget.EncodeMaxAllocs)
	}
	t.Logf("decode %.1f allocs/op (budget %.0f), encode %.1f allocs/op (budget %.0f)",
		decodeAllocs, budget.DecodeMaxAllocs, encodeAllocs, budget.EncodeMaxAllocs)
}

// TestDecodeAllocBudgetInstrumented re-runs the decode/encode budgets with
// wire metrics installed: instrumentation is all atomic ops, so it must fit
// the SAME budgets, and the per-op delta versus the uninstrumented path
// must stay within one alloc.
func TestDecodeAllocBudgetInstrumented(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := loadAllocBudget(t, "testdata/alloc_budget.json")
	env := benchEnvelope(t, 1<<10)
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(200, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})

	InstallWireMetrics(metrics.NewRegistry())
	defer InstallWireMetrics(nil)
	instrumented := testing.AllocsPerRun(200, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if instrumented > budget.DecodeMaxAllocs {
		t.Errorf("instrumented Decode(1KiB) = %.1f allocs/op, budget %.0f", instrumented, budget.DecodeMaxAllocs)
	}
	if instrumented-bare > 1 {
		t.Errorf("instrumentation added %.1f allocs/op to Decode (bare %.1f, instrumented %.1f), budget 1",
			instrumented-bare, bare, instrumented)
	}
	encodeAllocs := testing.AllocsPerRun(200, func() {
		if _, err := env.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if encodeAllocs > budget.EncodeMaxAllocs {
		t.Errorf("instrumented Encode(1KiB) = %.1f allocs/op, budget %.0f", encodeAllocs, budget.EncodeMaxAllocs)
	}
	t.Logf("decode bare %.1f vs instrumented %.1f allocs/op; encode instrumented %.1f",
		bare, instrumented, encodeAllocs)
}

// TestCloneAllocBudget pins the compact Clone: one backing array for every
// Raw, one block list, one envelope+header allocation. Clone is the
// disseminator store's retention point, paid once per unique notification
// per node and held for the store's lifetime.
func TestCloneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := loadAllocBudget(t, "testdata/alloc_budget.json")
	data, err := benchEnvelope(t, 1<<10).Encode()
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	env.Addressing() // a delivered envelope carries the cache; the clone must not copy it
	var sink *Envelope
	allocs := testing.AllocsPerRun(200, func() { sink = env.Clone() })
	if len(sink.Body.Blocks) != 1 {
		t.Fatalf("clone lost the body: %+v", sink.Body)
	}
	if allocs > budget.CloneMaxAllocs {
		t.Errorf("Clone(1KiB) = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, budget.CloneMaxAllocs)
	}
	t.Logf("clone %.1f allocs/op (budget %.0f)", allocs, budget.CloneMaxAllocs)
}
