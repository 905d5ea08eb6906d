package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark wraps from outside the
// program. The string form is what the trace file and the self-time table
// print.
const (
	spNotify    = iota // core: Initiator.Notify
	spStart            // core: Initiator.StartInteraction (client side)
	spSubmit           // delivery: role-facing send above the plane
	spSend             // soap: one-way send on the binding (attempt below any plane)
	spCall             // soap: request-response call on the binding
	spDial             // soap: new TCP connection opened by the HTTP transport
	spServe            // soap: inbound body read, decode, reply (HTTP server span; MemBus drain gap)
	spGossip           // core: Disseminator notify handler
	spRegister         // wscoord: Coordinator Register handler
	spActivate         // wscoord: Coordinator CreateCoordinationContext handler
	spSubscribe        // core: Coordinator Subscribe handler
	spAggHandle        // aggregate: Service/Querier handler
	spAggTick          // aggregate: Service.Tick / Window.Tick
	spApp              // application handler
	spOther            // any other handler
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.notify", "core.start", "delivery.submit", "soap.send", "soap.call",
	"soap.dial", "soap.serve", "core.gossip", "coord.register", "coord.activate",
	"coord.subscribe", "aggregate.handle", "aggregate.tick", "app", "role.other",
}

// span is one recorded interval. parent is the span the recording goroutine
// was inside (or, over HTTP, the blocked sender whose request this serves):
// self time subtracts a span's children. cause is the span that produced
// this one across a queue — a MemBus queued delivery's send, a pumped plane
// attempt's submit. key groups every span of one notification (its gossip
// MessageID) or one aggregate round; spans without one inherit it from
// their cause or parent when the trace is resolved.
type span struct {
	id, parent, cause uint64
	name              uint8
	node              int32
	key               string
	start, end        int64 // ns since the tracer's epoch
}

// tracer keeps every span in memory while on; nothing is written until the
// run ends. When off, every tap pays one atomic load.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

var tr = &tracer{epoch: time.Now()}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open is a span in progress.
type open struct {
	id, parent, cause uint64
	name              uint8
	node              int32
	start             int64
}

func (t *tracer) begin(name uint8, node int, parent, cause uint64) open {
	return open{id: t.ids.Add(1), parent: parent, cause: cause, name: name, node: int32(node), start: t.now()}
}

// beginAt is begin with an explicit start (synthetic spans).
func (t *tracer) beginAt(name uint8, node int, parent, cause uint64, start int64) open {
	return open{id: t.ids.Add(1), parent: parent, cause: cause, name: name, node: int32(node), start: start}
}

func (t *tracer) end(o open, key string) {
	t.endAt(o, key, t.now())
}

func (t *tracer) endAt(o open, key string, end int64) {
	s := span{id: o.id, parent: o.parent, cause: o.cause, name: o.name, node: o.node, key: key, start: o.start, end: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take detaches the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// Context plumbing: the innermost open span on the current call path.
type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// callMark tells a MemBus handler tap that the delivery it is about to
// serve is the synchronous Call recorded by span, not a queued send.
type callMark struct {
	span  uint64
	to    string
	start int64
	used  atomic.Bool
}

type callKey struct{}

func withCall(ctx context.Context, m *callMark) context.Context {
	return context.WithValue(ctx, callKey{}, m)
}

func callFrom(ctx context.Context) *callMark {
	m, _ := ctx.Value(callKey{}).(*callMark)
	return m
}

// traceIndex resolves parents, causes, and keys over one traced phase.
type traceIndex struct {
	spans    []span
	byID     map[uint64]int
	children map[uint64][]int
}

func indexSpans(spans []span) *traceIndex {
	ix := &traceIndex{spans: spans, byID: make(map[uint64]int, len(spans)), children: make(map[uint64][]int)}
	for i, s := range spans {
		ix.byID[s.id] = i
	}
	for i, s := range spans {
		if s.parent != 0 {
			ix.children[s.parent] = append(ix.children[s.parent], i)
		}
	}
	return ix
}

// self returns a span's duration minus the part of it its children cover.
func (ix *traceIndex) self(i int) int64 {
	s := ix.spans[i]
	kids := ix.children[s.id]
	if len(kids) == 0 {
		return s.end - s.start
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := ix.spans[k]
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curA, curB int64
	first := true
	for _, x := range iv {
		if first || x[0] > curB {
			if !first {
				covered += curB - curA
			}
			curA, curB, first = x[0], x[1], false
			continue
		}
		curB = max(curB, x[1])
	}
	if !first {
		covered += curB - curA
	}
	return s.end - s.start - covered
}

// key resolves a span's notification/round key through its cause and
// parent chain.
func (ix *traceIndex) key(i int) string {
	for hops := 0; hops < 64; hops++ {
		s := ix.spans[i]
		if s.key != "" {
			return s.key
		}
		next := s.cause
		if next == 0 {
			next = s.parent
		}
		j, ok := ix.byID[next]
		if next == 0 || !ok {
			return ""
		}
		i = j
	}
	return ""
}

// selfTimes groups self times (µs) by span name.
func (ix *traceIndex) selfTimes() [numSpanNames][]float64 {
	var out [numSpanNames][]float64
	for i, s := range ix.spans {
		out[s.name] = append(out[s.name], float64(ix.self(i))/1e3)
	}
	return out
}

// durations groups whole-span durations (µs) by span name.
func (ix *traceIndex) durations() [numSpanNames][]float64 {
	var out [numSpanNames][]float64
	for _, s := range ix.spans {
		out[s.name] = append(out[s.name], float64(s.end-s.start)/1e3)
	}
	return out
}

// layerTable prints the per-layer self-time table a later change can diff
// to show where its saving appears.
func layerTable(w io.Writer, ix *traceIndex, selfs [numSpanNames][]float64) {
	var total float64
	for _, v := range selfs {
		for _, x := range v {
			total += x
		}
	}
	fmt.Fprintf(w, "%-18s %9s %11s %11s %11s %7s\n", "span", "count", "self_p50_us", "self_p99_us", "self_total_s", "share")
	for n := 0; n < numSpanNames; n++ {
		v := selfs[n]
		if len(v) == 0 {
			continue
		}
		var sum float64
		for _, x := range v {
			sum += x
		}
		share := 0.0
		if total > 0 {
			share = sum / total
		}
		fmt.Fprintf(w, "%-18s %9d %11.1f %11.1f %11.3f %6.1f%%\n",
			spanNames[n], len(v), quantile(v, 0.5), quantile(v, 0.99), sum/1e6, 100*share)
	}
}

// writeTrace writes every span as one CSV line (gzip):
// id,parent,cause,name,node,key,start_ns,end_ns.
func writeTrace(path string, ix *traceIndex, nodeNames []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "id,parent,cause,name,node,key,start_ns,end_ns")
	var line []byte
	for i, s := range ix.spans {
		node := ""
		if int(s.node) >= 0 && int(s.node) < len(nodeNames) {
			node = nodeNames[s.node]
		}
		line = line[:0]
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, ',')
		line = strconv.AppendUint(line, s.parent, 10)
		line = append(line, ',')
		line = strconv.AppendUint(line, s.cause, 10)
		line = append(line, ',')
		line = append(line, spanNames[s.name]...)
		line = append(line, ',')
		line = append(line, node...)
		line = append(line, ',')
		line = append(line, ix.key(i)...)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
