package main

import (
	"context"
	"encoding/xml"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// Taps wrap each layer's public entry points from outside the program:
// they count operations on every run and, while the tracer is on, record a
// span per call. Both bindings and the delivery plane implement
// soap.EncodedSender, and so do the taps around them, so the program takes
// the same encode-once path with or without a tap in place.

// tapCounters are the cluster-wide operation counts the taps keep on
// every run, traced or not.
type tapCounters struct {
	sends      atomic.Int64 // one-way sends on the binding (attempts below any plane)
	sendErrs   atomic.Int64
	calls      atomic.Int64 // request-response calls on the binding
	callErrs   atomic.Int64
	submits    atomic.Int64 // role-facing sends above the plane
	submitErrs atomic.Int64
	dials      atomic.Int64 // TCP connections opened by the HTTP transports
	serving    atomic.Int64 // HTTP requests being served right now
}

// busTrace is the MemBus half of the tracer. MemBus queues one-way sends
// and drains them FIFO on the goroutine of the top-level sender, under that
// sender's context; the FIFO here mirrors the bus queue so each delivery
// can be tied to the send that produced it.
type busTrace struct {
	mu       sync.Mutex
	fifo     []fifoEntry
	head     int
	lastEnd  atomic.Int64 // end of the last handler (or start of the last send) on the drain
	mismatch atomic.Int64 // deliveries whose FIFO head named another address
}

type fifoEntry struct {
	to   string
	span uint64
}

func (b *busTrace) push(to string, id uint64) {
	b.mu.Lock()
	b.fifo = append(b.fifo, fifoEntry{to: to, span: id})
	b.mu.Unlock()
}

// unpush drops the newest entry when it is id: the bus refused the send
// before queueing it.
func (b *busTrace) unpush(id uint64) {
	b.mu.Lock()
	if n := len(b.fifo); n > b.head && b.fifo[n-1].span == id {
		b.fifo = b.fifo[:n-1]
	}
	b.mu.Unlock()
}

func (b *busTrace) pop(to string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head >= len(b.fifo) {
		b.mismatch.Add(1)
		return 0
	}
	e := b.fifo[b.head]
	b.head++
	if b.head == len(b.fifo) {
		b.fifo, b.head = b.fifo[:0], 0
	}
	if e.to != to {
		b.mismatch.Add(1)
	}
	return e.span
}

// planeLink ties a submit above the delivery plane to its attempts below:
// the plane hands the binding the very buffer it was given, so (target,
// buffer address) identifies the message across the queue.
type planeLink struct {
	mu sync.Mutex
	m  map[linkKey]uint64
}

type linkKey struct {
	to  string
	ptr uintptr
}

func bufKey(to string, data []byte) linkKey {
	if len(data) == 0 {
		return linkKey{to: to}
	}
	return linkKey{to: to, ptr: uintptr(unsafe.Pointer(&data[0]))}
}

func (l *planeLink) put(k linkKey, id uint64) {
	l.mu.Lock()
	l.m[k] = id
	l.mu.Unlock()
}

func (l *planeLink) take(k linkKey) uint64 {
	l.mu.Lock()
	id := l.m[k]
	delete(l.m, k)
	l.mu.Unlock()
	return id
}

// sendTap wraps a node's binding (soap.HTTPClient or the shared MemBus).
type sendTap struct {
	node  int
	inner soap.Caller
	enc   soap.EncodedSender
	http  bool
	bus   *busTrace  // MemBus only
	link  *planeLink // set when a delivery plane sits above this tap
	c     *tapCounters
}

var (
	_ soap.Caller        = (*sendTap)(nil)
	_ soap.EncodedSender = (*sendTap)(nil)
)

func newSendTap(node int, inner soap.Caller, c *tapCounters) *sendTap {
	t := &sendTap{node: node, inner: inner, c: c}
	t.enc, _ = inner.(soap.EncodedSender)
	return t
}

// tagURL carries the sending span to the HTTP server tap in the query
// string; the SOAP binding ignores the query.
func tagURL(to string, id uint64) string {
	return to + "?s=" + strconv.FormatUint(id, 10)
}

func (t *sendTap) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	t.c.calls.Add(1)
	if !tr.on.Load() {
		resp, err := t.inner.Call(ctx, to, env)
		if err != nil {
			t.c.callErrs.Add(1)
		}
		return resp, err
	}
	o := tr.begin(spCall, t.node, spanFrom(ctx), 0)
	cctx := withSpan(ctx, o.id)
	target := to
	if t.http {
		target = tagURL(to, o.id)
	} else {
		cctx = withCall(cctx, &callMark{span: o.id, to: to, start: o.start})
	}
	resp, err := t.inner.Call(cctx, target, env)
	tr.end(o, "")
	if err != nil {
		t.c.callErrs.Add(1)
	}
	return resp, err
}

func (t *sendTap) Send(ctx context.Context, to string, env *soap.Envelope) error {
	t.c.sends.Add(1)
	var err error
	if !tr.on.Load() {
		err = t.inner.Send(ctx, to, env)
	} else {
		o, sctx, target := t.beginSend(ctx, to, linkKey{})
		err = t.inner.Send(sctx, target, env)
		t.endSend(o, err)
	}
	if err != nil {
		t.c.sendErrs.Add(1)
	}
	return err
}

func (t *sendTap) SendEncoded(ctx context.Context, to string, data []byte) error {
	t.c.sends.Add(1)
	var err error
	if !tr.on.Load() {
		err = t.enc.SendEncoded(ctx, to, data)
	} else {
		o, sctx, target := t.beginSend(ctx, to, bufKey(to, data))
		err = t.enc.SendEncoded(sctx, target, data)
		t.endSend(o, err)
	}
	if err != nil {
		t.c.sendErrs.Add(1)
	}
	return err
}

func (t *sendTap) beginSend(ctx context.Context, to string, k linkKey) (open, context.Context, string) {
	var cause uint64
	if t.link != nil && k.ptr != 0 {
		cause = t.link.take(k)
	}
	o := tr.begin(spSend, t.node, spanFrom(ctx), cause)
	if t.bus != nil {
		t.bus.push(to, o.id)
		t.bus.lastEnd.Store(o.start)
	}
	target := to
	if t.http {
		target = tagURL(to, o.id)
	}
	return o, withSpan(ctx, o.id), target
}

func (t *sendTap) endSend(o open, err error) {
	if err != nil && t.bus != nil {
		t.bus.unpush(o.id)
	}
	tr.end(o, "")
}

// planeTap wraps a node's delivery.Plane: the role-facing send, above the
// per-peer queues.
type planeTap struct {
	node  int
	plane *delivery.Plane
	link  *planeLink
	c     *tapCounters
}

var (
	_ soap.Caller        = (*planeTap)(nil)
	_ soap.EncodedSender = (*planeTap)(nil)
)

func (p *planeTap) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return p.plane.Call(ctx, to, env)
}

func (p *planeTap) Send(ctx context.Context, to string, env *soap.Envelope) error {
	p.c.submits.Add(1)
	var err error
	if !tr.on.Load() {
		err = p.plane.Send(ctx, to, env)
	} else {
		o := tr.begin(spSubmit, p.node, spanFrom(ctx), 0)
		err = p.plane.Send(withSpan(ctx, o.id), to, env)
		tr.end(o, "")
	}
	if err != nil {
		p.c.submitErrs.Add(1)
	}
	return err
}

func (p *planeTap) SendEncoded(ctx context.Context, to string, data []byte) error {
	p.c.submits.Add(1)
	var err error
	if !tr.on.Load() {
		err = p.plane.SendEncoded(ctx, to, data)
	} else {
		o := tr.begin(spSubmit, p.node, spanFrom(ctx), 0)
		k := bufKey(to, data)
		p.link.put(k, o.id)
		err = p.plane.SendEncoded(withSpan(ctx, o.id), to, data)
		if err != nil {
			p.link.take(k)
		}
		tr.end(o, "")
	}
	if err != nil {
		p.c.submitErrs.Add(1)
	}
	return err
}

// roleTap wraps a node's role handler (the dispatcher a Disseminator,
// Coordinator, or aggregation participant registered its actions on).
type roleTap struct {
	node  int
	addr  string
	inner soap.Handler
	bus   *busTrace // MemBus only: the tap synthesizes the serve span
}

func spanForAction(action string) uint8 {
	switch action {
	case core.ActionNotify:
		return spGossip
	case wscoord.ActionRegister:
		return spRegister
	case wscoord.ActionCreate:
		return spActivate
	case core.ActionSubscribe:
		return spSubscribe
	case aggregate.ActionStart, aggregate.ActionExchange, aggregate.ActionExchangeAck, aggregate.ActionQuery:
		return spAggHandle
	}
	return spOther
}

func (r *roleTap) HandleSOAP(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	if !tr.on.Load() {
		return r.inner.HandleSOAP(ctx, req)
	}
	a := req.Addressing()
	name := spanForAction(a.Action)
	var key string
	if name == spGossip {
		key = string(a.MessageID)
	}
	parent := spanFrom(ctx)
	var srv open
	if r.bus != nil {
		// MemBus has no server span of its own: the serve span runs from
		// the end of the previous delivery on the drain (or from the
		// synchronous Call) to the end of this handler, so its self time
		// is the bus's lookup and decode.
		if m := callFrom(ctx); m != nil && m.to == r.addr && m.used.CompareAndSwap(false, true) {
			srv = tr.beginAt(spServe, r.node, m.span, m.span, m.start)
		} else {
			cause := r.bus.pop(r.addr)
			srv = tr.beginAt(spServe, r.node, parent, cause, r.bus.lastEnd.Load())
		}
		parent = srv.id
	}
	o := tr.begin(name, r.node, parent, 0)
	resp, err := r.inner.HandleSOAP(withSpan(ctx, o.id), req)
	end := tr.now()
	tr.endAt(o, key, end)
	if r.bus != nil {
		tr.endAt(srv, "", end)
		r.bus.lastEnd.Store(end)
	}
	return resp, err
}

// serveTap wraps a node's soap.HTTPServer.
type serveTap struct {
	node  int
	inner http.Handler
	c     *tapCounters
}

func (s *serveTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.c.serving.Add(1)
	defer s.c.serving.Add(-1)
	if !tr.on.Load() {
		s.inner.ServeHTTP(w, r)
		return
	}
	var parent uint64
	if q := r.URL.RawQuery; len(q) > 2 && q[:2] == "s=" {
		parent, _ = strconv.ParseUint(q[2:], 10, 64)
	}
	o := tr.begin(spServe, s.node, parent, parent)
	s.inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), o.id)))
	tr.end(o, "")
}

// newTransport clones http.DefaultTransport — what the node binary's
// http.Client{Timeout} uses — with its dialer wrapped to count (and, while
// tracing, time) new connections.
func newTransport(node int, c *tapCounters) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c.dials.Add(1)
		if !tr.on.Load() {
			return d.DialContext(ctx, network, addr)
		}
		o := tr.begin(spDial, node, spanFrom(ctx), 0)
		conn, err := d.DialContext(ctx, network, addr)
		tr.end(o, "")
		return conn, err
	}
	return t
}

// notifyPayload is the benchmark's notification body.
type notifyPayload struct {
	XMLName xml.Name `xml:"urn:wsgossip:bench Item"`
	Seq     int64    `xml:"Seq"`
	Data    string   `xml:"Data"`
}

// delivered is one application delivery, checked after the run.
type delivered struct {
	seq   int64
	at    int64 // ns since the tracer epoch
	msgID string
	ok    bool // payload matched what was published under seq
}

// app is the application service under each Disseminator: it decodes the
// body, checks the payload against the seeded pool, and logs the delivery.
type app struct {
	node int
	pool []string

	mu  sync.Mutex
	log []delivered
}

func (a *app) HandleSOAP(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var o open
	traced := tr.on.Load()
	if traced {
		o = tr.begin(spApp, a.node, spanFrom(ctx), 0)
	}
	var p notifyPayload
	ok := req.Envelope.DecodeBody(&p) == nil && p.Seq > 0 && p.Data == a.pool[p.Seq%int64(len(a.pool))]
	d := delivered{seq: p.Seq, at: tr.now(), msgID: string(req.Addressing().MessageID), ok: ok}
	a.mu.Lock()
	a.log = append(a.log, d)
	a.mu.Unlock()
	if traced {
		tr.end(o, "")
	}
	return nil, nil
}

func (a *app) deliveries() []delivered {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]delivered(nil), a.log...)
}
