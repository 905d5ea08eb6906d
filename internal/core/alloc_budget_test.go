package core

import (
	"encoding/json"
	"os"
	"testing"
)

// Allocation-budget regression guard for the fan-out hot path, the
// companion of internal/soap's decode budget: the per-hop cost the paper's
// scalability argument rests on must not silently regress. The budget is
// committed in testdata/alloc_budget.json; CI runs this test (and the
// -benchmem bench smoke) on every push.

type fanoutBudget struct {
	MaxAllocs           float64 `json:"forward_fanout_f8_max_allocs"`
	RetransmitMaxAllocs float64 `json:"retransmit_16_max_allocs"`
}

func loadFanoutBudget(t *testing.T) fanoutBudget {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	var budget fanoutBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parse alloc budget: %v", err)
	}
	if budget.MaxAllocs <= 0 || budget.RetransmitMaxAllocs <= 0 {
		t.Fatalf("alloc budget missing fields: %+v", budget)
	}
	return budget
}

func TestForwardFanoutAllocBudget(t *testing.T) {
	budget := loadFanoutBudget(t)
	fb := newForwardBench(t, 8, 1<<10)
	allocs := testing.AllocsPerRun(100, func() {
		fb.d.forward(fb.ctx, fb.env, fb.gh, fb.state)
	})
	if stats := fb.d.Stats(); stats.Forwarded == 0 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if allocs > budget.MaxAllocs {
		t.Errorf("forward fanout-8 = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, budget.MaxAllocs)
	}
	t.Logf("forward fanout-8: %.1f allocs/op (budget %.0f)", allocs, budget.MaxAllocs)
}

// TestRetransmitAllocBudget guards the repair/pull retransmission of a
// 16-notification batch, which re-heads every stored envelope (gossip
// header and addressing) before sending it.
func TestRetransmitAllocBudget(t *testing.T) {
	budget := loadFanoutBudget(t)
	fb := newRetransmitBench(t)
	have := map[string]struct{}{}
	allocs := testing.AllocsPerRun(50, func() {
		if n := fb.d.retransmitMissing(fb.ctx, fb.targets[0], have, 16); n != 16 {
			t.Fatalf("retransmitted %d", n)
		}
	})
	if allocs > budget.RetransmitMaxAllocs {
		t.Errorf("retransmit-16 = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, budget.RetransmitMaxAllocs)
	}
	t.Logf("retransmit-16: %.1f allocs/op (budget %.0f)", allocs, budget.RetransmitMaxAllocs)
}
