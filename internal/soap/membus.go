package soap

import (
	"context"
	"fmt"
	"sync"
)

// MemBus is an in-memory SOAP binding: endpoints register handlers under
// opaque addresses and exchanges go through a full encode/decode cycle, so
// wire behaviour (header pass-through, faults) matches the HTTP binding
// while allowing hundreds of nodes in one process.
//
// Request-response exchanges (Call) are synchronous. A one-way exchange
// (Send) issued outside any delivery starts a cascade: the message and every
// one-way send its handlers issue with the delivery's context are queued
// FIFO and drained iteratively on the sender's goroutine, so a Send from
// inside a handler is delivered after the current wave, giving the same
// breadth-first message ordering as an asynchronous network. Without this,
// hop-bounded dissemination would burn its hop budget down one depth-first
// chain — an artifact no real deployment exhibits. The top-level Send
// drains its whole cascade before returning, so tests and examples observe
// a completed dissemination. Concurrent top-level senders (timer-driven
// protocol rounds, several publishers) each drain their own cascade: one
// sender never inherits another's traffic, and a sender that keeps sending
// is slowed by its own deliveries.
type MemBus struct {
	mu        sync.RWMutex
	endpoints map[string]Handler
}

type pendingSend struct {
	to   string
	data []byte
}

// cascade is the delivery wave of one top-level one-way send. It is also
// the context its deliveries run under, which is how a handler's own sends
// find it (cascadeKey).
type cascade struct {
	context.Context
	bus *MemBus

	mu    sync.Mutex
	queue []pendingSend
	first [1]pendingSend // backs queue for the common one-delivery wave
	head  int
	done  bool // drained; late sends start a cascade of their own
}

// cascadeKey looks up the cascade a context belongs to on one bus.
type cascadeKey struct{ bus *MemBus }

// Value answers cascadeKey lookups for this cascade's bus and defers every
// other key to the sender's context.
func (c *cascade) Value(key any) any {
	if k, ok := key.(cascadeKey); ok && k.bus == c.bus {
		return c
	}
	return c.Context.Value(key)
}

// enqueue appends a send to the wave unless the wave has been drained.
func (c *cascade) enqueue(p pendingSend) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return false
	}
	c.queue = append(c.queue, p)
	return true
}

// next pops the oldest queued send; once the queue is empty the wave is
// done and accepts no more.
func (c *cascade) next() (pendingSend, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == len(c.queue) {
		c.done = true
		c.queue = nil
		return pendingSend{}, false
	}
	p := c.queue[c.head]
	c.queue[c.head] = pendingSend{}
	c.head++
	return p, true
}

var (
	_ Caller        = (*MemBus)(nil)
	_ EncodedSender = (*MemBus)(nil)
)

// NewMemBus returns an empty bus.
func NewMemBus() *MemBus {
	return &MemBus{endpoints: make(map[string]Handler)}
}

// Register binds addr to h, replacing any previous binding.
func (b *MemBus) Register(addr string, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.endpoints[addr] = h
}

// Unregister removes addr from the bus (used for crash-fault injection).
func (b *MemBus) Unregister(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.endpoints, addr)
}

// Endpoints returns the registered addresses.
func (b *MemBus) Endpoints() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.endpoints))
	for a := range b.endpoints {
		out = append(out, a)
	}
	return out
}

func (b *MemBus) lookup(addr string) (Handler, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	h, ok := b.endpoints[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, addr)
	}
	return h, nil
}

// deliver round-trips the envelope through the codec so receivers observe
// exactly what they would see over HTTP.
func (b *MemBus) deliver(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	data, err := env.Encode()
	if err != nil {
		return nil, err
	}
	return b.deliverBytes(ctx, to, data)
}

func (b *MemBus) deliverBytes(ctx context.Context, to string, data []byte) (*Envelope, error) {
	h, err := b.lookup(to)
	if err != nil {
		return nil, err
	}
	decoded, err := Decode(data)
	if err != nil {
		return nil, err
	}
	// Addressing is parsed lazily (and cached on the envelope) when the
	// dispatcher or a handler first asks for it.
	return h.HandleSOAP(ctx, &Request{Envelope: decoded, Remote: "membus"})
}

// Call performs a request-response exchange. Handler errors are surfaced as
// *Fault, matching the HTTP binding.
func (b *MemBus) Call(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	resp, err := b.deliver(ctx, to, env)
	if err != nil {
		return nil, AsFault(err)
	}
	if f := FaultFrom(resp); f != nil {
		return nil, f
	}
	return resp, nil
}

// Send performs a one-way exchange, discarding any response envelope. The
// destination is validated immediately; delivery is FIFO-ordered behind the
// sender's in-flight wave (see the type comment). Handler errors at the
// receiver are not reported back — one-way semantics, as over HTTP 202.
func (b *MemBus) Send(ctx context.Context, to string, env *Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return b.SendEncoded(ctx, to, data)
}

// SendEncoded performs a one-way exchange with an already-serialized
// envelope, skipping the redundant encode of the fan-out hot path. On
// success the bus takes full ownership of data (see EncodedSender): after
// the delivery completes — during which the handler sees an envelope
// aliasing it — the buffer is recycled into the wire buffer pool, so
// handlers that retain their request envelope must Clone it.
func (b *MemBus) SendEncoded(ctx context.Context, to string, data []byte) error {
	if _, err := b.lookup(to); err != nil {
		return AsFault(err) // ownership stays with the caller on error
	}
	p := pendingSend{to: to, data: data}
	if c, ok := ctx.Value(cascadeKey{b}).(*cascade); ok && c.enqueue(p) {
		return nil
	}
	c := &cascade{Context: ctx, bus: b}
	c.queue = append(c.first[:0], p)
	for {
		p, ok := c.next()
		if !ok {
			return nil
		}
		// Endpoints may unregister (crash injection) between enqueue and
		// delivery; drop silently like a network would.
		_, _ = b.deliverBytes(c, p.to, p.data)
		// The wave delivered (or dropped) this buffer exactly once and the
		// handler has returned; recycle it.
		putBytes(p.data)
	}
}
