package soap

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"wsgossip/internal/wsa"
)

func oneWay(t *testing.T, to string) *Envelope {
	t.Helper()
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{To: to, Action: "urn:op"}); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestMemBusWaveIsBreadthFirst: sends a handler issues with its delivery's
// context join the sender's wave behind what is already queued, and the
// top-level Send returns only after the whole wave.
func TestMemBusWaveIsBreadthFirst(t *testing.T) {
	bus := NewMemBus()
	var mu sync.Mutex
	var order []string
	record := func(name string, next ...string) Handler {
		return HandlerFunc(func(ctx context.Context, _ *Request) (*Envelope, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			for _, to := range next {
				if err := bus.Send(ctx, to, oneWay(t, to)); err != nil {
					t.Error(err)
				}
			}
			return nil, nil
		})
	}
	bus.Register("mem://root", record("root", "mem://a", "mem://b"))
	bus.Register("mem://a", record("a", "mem://a1"))
	bus.Register("mem://b", record("b"))
	bus.Register("mem://a1", record("a1"))
	if err := bus.Send(context.Background(), "mem://root", oneWay(t, "mem://root")); err != nil {
		t.Fatal(err)
	}
	want := []string{"root", "a", "b", "a1"}
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivered %v, want %v", order, want)
		}
	}
}

// TestMemBusConcurrentSendersDrainOwnWaves: a top-level Send never waits
// on, or inherits, another sender's wave. While one sender's delivery is
// blocked, a second sender's message is delivered before its Send returns.
func TestMemBusConcurrentSendersDrainOwnWaves(t *testing.T) {
	bus := NewMemBus()
	entered, release := make(chan struct{}), make(chan struct{})
	bus.Register("mem://slow", HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		close(entered)
		<-release
		return nil, nil
	}))
	var fastDelivered atomic.Bool
	bus.Register("mem://fast", HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		fastDelivered.Store(true)
		return nil, nil
	}))

	done := make(chan error, 1)
	go func() { done <- bus.Send(context.Background(), "mem://slow", oneWay(t, "mem://slow")) }()
	<-entered
	if err := bus.Send(context.Background(), "mem://fast", oneWay(t, "mem://fast")); err != nil {
		t.Fatal(err)
	}
	if !fastDelivered.Load() {
		t.Error("second sender's Send returned before its message was delivered")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
