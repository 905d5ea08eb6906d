package aggregate

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
	"wsgossip/internal/wscoord"
)

// Allocation-budget regression guard for the windowed per-exchange hot
// path: one full acked exchange — encode and send a share, decode and
// absorb it, encode and send the ack, decode and commit it. A million-node
// window runs this path fanout×nodes times per round, so its cost must not
// silently regress. The budget is committed in testdata/alloc_budget.json;
// CI runs this test on every push.

// staticClock pins virtual time so no epoch roll happens inside the
// measured loop. It sits exactly on an epoch boundary so both nodes
// contribute from their first roll (mid-window creation defers to the next
// boundary and would leave the pair passive).
type staticClock struct{ now time.Duration }

func (c staticClock) Now() time.Duration { return c.now }
func (c staticClock) AfterFunc(time.Duration, func()) func() bool {
	panic("aggregate: alloc bench must not schedule timers")
}

// loopback is a two-endpoint synchronous fabric: Send invokes the peer's
// handler inline, so one Tick completes the whole share→absorb→ack→commit
// cycle before returning.
type loopback struct {
	handlers map[string]transport.Handler
}

type loopEndpoint struct {
	fab  *loopback
	addr string
}

func (e *loopEndpoint) Addr() string { return e.addr }
func (e *loopEndpoint) Send(ctx context.Context, msg transport.Message) error {
	h := e.fab.handlers[msg.To]
	if h == nil {
		return transport.ErrUnreachable
	}
	msg.From = e.addr
	return h(ctx, msg)
}
func (e *loopEndpoint) SetHandler(h transport.Handler) { e.fab.handlers[e.addr] = h }

func newExchangePair(t testing.TB) (*SimNode, *SimNode) {
	t.Helper()
	fab := &loopback{handlers: make(map[string]transport.Handler)}
	clk := staticClock{now: 2 * time.Second}
	mk := func(addr, peer string, root bool) *SimNode {
		ep := &loopEndpoint{fab: fab, addr: addr}
		n, err := NewSimNode(SimNodeConfig{
			Endpoint: ep,
			Peers:    gossip.NewStaticPeers([]string{peer}),
			Fanout:   1,
			TaskID:   "bench",
			Func:     FuncAvg,
			Value:    1,
			Root:     root,
			RNG:      rand.New(rand.NewSource(1)),
			Window:   time.Second,
			Clock:    clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		n.Register(mux)
		mux.Bind(ep)
		return n
	}
	a := mk("a", "b", true)
	b := mk("b", "a", false)
	return a, b
}

// allocBudget reads one committed budget from testdata/alloc_budget.json.
func allocBudget(t *testing.T, key string) float64 {
	t.Helper()
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	var budgets map[string]any
	if err := json.Unmarshal(raw, &budgets); err != nil {
		t.Fatalf("parse alloc budget: %v", err)
	}
	max, _ := budgets[key].(float64)
	if max <= 0 {
		t.Fatalf("alloc budget missing %s", key)
	}
	return max
}

func TestWindowedExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	maxAllocs := allocBudget(t, "windowed_exchange_max_allocs")
	a, b := newExchangePair(t)
	ctx := context.Background()
	// Warm up: first tick rolls the epoch and sizes the maps.
	a.Tick(ctx)
	b.Tick(ctx)
	allocs := testing.AllocsPerRun(200, func() {
		a.Tick(ctx)
	})
	st := a.SimStats()
	if st.Commits == 0 || st.Recovered != 0 {
		t.Fatalf("bench pair did not exercise the commit path: %+v", st)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %g after synchronous acks, want 0", a.Outstanding())
	}
	if e := a.MassError(); e != 0 {
		t.Fatalf("mass error = %g, want exactly 0", e)
	}
	if allocs > maxAllocs {
		t.Errorf("windowed exchange = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, maxAllocs)
	}
	t.Logf("windowed exchange: %.1f allocs/op (budget %.0f)", allocs, maxAllocs)
}

// TestServiceWindowedExchangeAllocBudget is the same guard for the shipped
// SOAP binding: two Services on a MemBus (synchronous loopback dispatch),
// each holding the same continuous task, so one Tick on a runs the whole
// share→absorb→ack→commit cycle through the SOAP codec before returning.
func TestServiceWindowedExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	maxAllocs := allocBudget(t, "service_windowed_exchange_max_allocs")
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	cctx := wscoord.CoordinationContext{
		Identifier:          "urn:uuid:alloc-bench",
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
	}
	mk := func(addr, peer string) *Service {
		svc, err := NewService(ServiceConfig{
			Address: addr,
			Caller:  bus,
			Clock:   clk,
			Value:   func() float64 { return 1 },
			RNG:     rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, svc.Handler())
		params := core.AggregateParameters{Fanout: 1, Targets: []string{peer}}
		svc.startContinuousLocal(cctx.Identifier, FuncAvg, cctx, params, time.Second, "")
		return svc
	}
	a := mk("mem://a", "mem://b")
	mk("mem://b", "mem://a")
	ctx := context.Background()
	// Warm up: size the dedup and pending maps.
	a.Tick(ctx)
	allocs := testing.AllocsPerRun(200, func() {
		a.Tick(ctx)
	})
	st := a.Stats()
	if st.Commits == 0 || st.Recovered != 0 || st.SendErrors != 0 {
		t.Fatalf("service pair did not exercise the commit path: %+v", st)
	}
	if out, _ := a.Outstanding(cctx.Identifier); out != 0 {
		t.Fatalf("outstanding = %g after synchronous acks, want 0", out)
	}
	if allocs > maxAllocs {
		t.Errorf("service windowed exchange = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, maxAllocs)
	}
	t.Logf("service windowed exchange: %.1f allocs/op (budget %.0f)", allocs, maxAllocs)
}
