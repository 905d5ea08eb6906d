package aggregate

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
	"wsgossip/internal/wscoord"
)

// TestRecoveredRefusalCountsAsSendError pins the one meaning both bindings
// give SendErrors: every synchronous send refusal, including a first send
// whose mass was recovered. A refused first send must show up in both
// Recovered and SendErrors, and leave the ledger exact.
func TestRecoveredRefusalCountsAsSendError(t *testing.T) {
	ctx := context.Background()

	t.Run("SimNode", func(t *testing.T) {
		fab := &loopback{handlers: make(map[string]transport.Handler)}
		ep := &loopEndpoint{fab: fab, addr: "a"}
		n, err := NewSimNode(SimNodeConfig{
			Endpoint: ep,
			Peers:    gossip.NewStaticPeers([]string{"ghost"}),
			Fanout:   1,
			TaskID:   "refuse",
			Func:     FuncCount,
			Value:    1,
			Root:     true,
			RNG:      rand.New(rand.NewSource(1)),
			Window:   time.Second,
			Clock:    staticClock{now: 2 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Tick(ctx)
		st := n.SimStats()
		if st.Recovered != 1 || st.SendErrors != 1 || st.SharesSent != 0 {
			t.Fatalf("refused first send: Recovered=%d SendErrors=%d SharesSent=%d, want 1, 1, 0",
				st.Recovered, st.SendErrors, st.SharesSent)
		}
		if n.Outstanding() != 0 || n.MassError() != 0 {
			t.Fatalf("after recovery: outstanding=%g mass error=%g, want 0, 0", n.Outstanding(), n.MassError())
		}
	})

	t.Run("Service", func(t *testing.T) {
		bus := soap.NewMemBus()
		svc, err := NewService(ServiceConfig{
			Address: "mem://a",
			Caller:  bus,
			Clock:   clock.NewVirtual(),
			Value:   func() float64 { return 1 },
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register("mem://a", svc.Handler())
		cctx := wscoord.CoordinationContext{
			Identifier:          "urn:uuid:refuse",
			CoordinationType:    core.CoordinationTypeGossip,
			RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
		}
		params := core.AggregateParameters{Fanout: 1, Targets: []string{"mem://ghost"}}
		svc.startContinuousLocal(cctx.Identifier, FuncCount, cctx, params, time.Second, "")
		svc.Tick(ctx)
		st := svc.Stats()
		if st.Recovered != 1 || st.SendErrors != 1 || st.SharesSent != 0 {
			t.Fatalf("refused first send: Recovered=%d SendErrors=%d SharesSent=%d, want 1, 1, 0",
				st.Recovered, st.SendErrors, st.SharesSent)
		}
		if out, _ := svc.Outstanding(cctx.Identifier); out != 0 {
			t.Fatalf("outstanding = %g after recovery, want 0", out)
		}
	})
}
