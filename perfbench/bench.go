package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// workload is one set of inputs the benchmark drives. Every push workload
// is a closed loop: each publisher sends its next notification only after
// the previous call returned.
type workload struct {
	name       string
	spec       clusterSpec
	publishers int
	payload    int  // notification body bytes
	fresh      bool // a new interaction (StartInteraction) per notification
}

var workloads = []workload{
	{name: "http-push", spec: clusterSpec{http: true, n: 32, plane: true}, publishers: 2, payload: 1024},
	{name: "membus-push", spec: clusterSpec{n: 128}, publishers: 1, payload: 256},
	{name: "http-fresh", spec: clusterSpec{http: true, n: 32}, publishers: 2, payload: 1024, fresh: true},
	// 32 aggregation stacks, not 128: with 128 in one process the collector
	// ran about 130 cycles a second, each marking every stack's state, and
	// those cycles set the tick tail, which then swung with the shared host.
	{name: "membus-aggregate", spec: clusterSpec{n: 32, agg: true}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one run's settings.
type options struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string // traced runs write their spans here; empty skips the file
	setups  int    // set-ups timed per run (the last one is kept)
	warmup  time.Duration
	log     io.Writer // human-readable summary and the self-time table
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	spanCounts map[string]int // traced runs: spans recorded per name
}

// aggCheckFrom is the first epoch whose frozen estimates are checked: epoch
// 1 opens with the activation flood, and nodes the flood missed join
// passively and contribute from epoch 2 on.
const aggCheckFrom = 2

// aggTolerance is the relative error a frozen count estimate may have.
const aggTolerance = 0.01

// wireReg receives the process-global soap wire-path series.
var (
	wireOnce sync.Once
	wireReg  = metrics.NewRegistry()
)

// pubRec is one published notification.
type pubRec struct {
	seq        int64
	start, end int64 // ns since the tracer epoch
	msgID      string
	failed     bool
}

// phase is one measured stretch of a run.
type phase struct {
	traced     bool
	elapsed    time.Duration
	ops        int64
	opFails    int64
	end        int64 // ns since the tracer epoch
	opMs       []float64
	opAt       []int64 // each op's start
	deliverMs  []float64
	deliverAt  []int64 // each delivery sample's publish (or tick) start
	seqLo      int64   // push: the seqs this phase published
	seqHi      int64
	delivered  int64 // push: unique (notification, node) deliveries
	pairs      int64 // (result, node) pairs that should have arrived
	covered    int64 // aggregate: pairs whose frozen count was within tolerance
	aggErrs    []float64
	counters   map[string]float64
	proc       procSnap
	goroutines int
	spans      []span
}

// bench is one run in progress.
type bench struct {
	opts  options
	w     workload
	cl    *cluster
	pool  []string
	inter *core.Interaction
	seq   atomic.Int64
	pubs  []pubRec

	// Aggregate workload state.
	rng       *rand.Rand
	round     int
	lastEpoch uint64
	massG     []*metrics.FloatGauge
	cur       *phase

	violations []string
}

func (b *bench) violate(format string, args ...any) {
	if len(b.violations) < 20 {
		b.violations = append(b.violations, fmt.Sprintf(format, args...))
	}
}

// makePool derives the payload pool from the seed: notification seq
// carries pool[seq % len(pool)].
func makePool(seed int64, size int) []string {
	rng := rand.New(rand.NewSource(nodeSeed(seed, "payloads")))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	pool := make([]string, 64)
	buf := make([]byte, size)
	for i := range pool {
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		pool[i] = string(buf)
	}
	return pool
}

// run performs one benchmark run and returns its result line.
func run(opts options) (result, error) {
	wireOnce.Do(func() { soap.InstallWireMetrics(wireReg) })
	b := &bench{opts: opts, w: opts.w, rng: rand.New(rand.NewSource(nodeSeed(opts.seed, "order")))}
	if b.w.payload > 0 {
		b.pool = makePool(opts.seed, b.w.payload)
	}
	setups, err := b.setup()
	if err != nil {
		return result{}, err
	}
	defer b.cl.close()
	ctx := context.Background()

	if b.w.spec.agg {
		for aggregate.EpochAt(b.cl.vc.Now(), aggWindow) < aggCheckFrom {
			b.aggRound(ctx, false)
		}
	} else {
		b.pushPhase(ctx, opts.warmup, false)
	}

	d := time.Duration(opts.seconds * float64(time.Second))
	var phases []*phase
	if opts.trace {
		// Alternate untraced and traced quarters so drift over the run
		// (the growing activity table on http-fresh) cancels out of the
		// measured tracing overhead.
		for i := 0; i < 4; i++ {
			phases = append(phases, b.phase(ctx, d/4, i%2 == 1))
		}
	} else {
		phases = append(phases, b.phase(ctx, d, false))
	}
	if !b.w.spec.agg {
		b.checkPush(phases)
	}
	if n := b.cl.btr; n != nil && n.mismatch.Load() != 0 {
		fmt.Fprintf(opts.log, "warning: %d MemBus deliveries could not be tied to their send in the trace\n", n.mismatch.Load())
	}
	return b.report(phases, setups)
}

// setup boots, subscribes, and activates the cluster opts.setups times,
// keeping the last one.
func (b *bench) setup() ([]float64, error) {
	var times []float64
	for k := 0; k < max(1, b.opts.setups); k++ {
		t0 := time.Now()
		cl, err := build(b.w.spec, b.opts.seed, b.pool)
		if err != nil {
			return nil, fmt.Errorf("build cluster: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var inter *core.Interaction
		if b.w.spec.agg {
			cl.win.Tick(ctx)
			for _, name := range []string{"nodes", "load"} {
				if _, ok := cl.win.Task(name); !ok {
					err = fmt.Errorf("continuous query %q did not activate", name)
				}
			}
		} else {
			inter, err = cl.init.StartInteraction(ctx)
		}
		cancel()
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("first activation: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if k < b.opts.setups-1 {
			cl.close()
			continue
		}
		b.cl, b.inter = cl, inter
	}
	if b.w.spec.agg {
		for _, r := range b.cl.regs[nodeHead:] {
			b.massG = append(b.massG, r.FloatGauge("aggregate_mass_error"))
		}
	}
	return times, nil
}

// phase measures for d with tracing on or off.
func (b *bench) phase(ctx context.Context, d time.Duration, traced bool) *phase {
	if b.w.spec.agg {
		return b.aggPhase(ctx, d, traced)
	}
	return b.pushPhase(ctx, d, traced)
}

// begin and finish bracket a phase: counters, process stats, tracing.
func (b *bench) begin(traced bool) (*phase, map[string]float64, procSnap, *goroutineSampler) {
	runtime.GC()
	ph := &phase{traced: traced}
	b.cur = ph
	before, p0, gs := b.snapCounters(), readProc(), sampleGoroutines()
	tr.on.Store(traced)
	return ph, before, p0, gs
}

func (b *bench) finish(ph *phase, before map[string]float64, p0 procSnap, gs *goroutineSampler) {
	tr.on.Store(false)
	p1 := readProc()
	ph.goroutines = gs.done()
	ph.proc = procSnap{cpu: p1.cpu - p0.cpu, allocs: p1.allocs - p0.allocs, gcCPU: p1.gcCPU - p0.gcCPU, totalCPU: p1.totalCPU - p0.totalCPU}
	after := b.snapCounters()
	ph.counters = make(map[string]float64, len(after))
	for k, v := range after {
		ph.counters[k] = v - before[k]
	}
	if ph.traced {
		ph.spans = tr.take()
	}
	b.cur = nil
}

// snapCounters reads every counter the per-layer metrics are built from.
func (b *bench) snapCounters() map[string]float64 {
	cl := b.cl
	var budget int64
	for _, r := range cl.regs {
		budget += r.CounterVec("delivery_drops_total", "reason").With("budget").Value()
	}
	rung := wireReg.CounterVec("soap_decode_total", "rung")
	return map[string]float64{
		"sends":      float64(cl.c.sends.Load()),
		"sendErrs":   float64(cl.c.sendErrs.Load()),
		"calls":      float64(cl.c.calls.Load()),
		"callErrs":   float64(cl.c.callErrs.Load()),
		"submits":    float64(cl.c.submits.Load()),
		"submitErrs": float64(cl.c.submitErrs.Load()),
		"dials":      float64(cl.c.dials.Load()),
		"budgetDrop": float64(budget),
		"received":   float64(cl.counter("gossip_received_total")),
		"dups":       float64(cl.counter("gossip_duplicates_total")),
		"coordRegs":  float64(cl.regs[nodeCoord].Counter("coord_registrations_total").Value()),
		"attempts":   float64(cl.counter("delivery_attempts_total")),
		"shares":     float64(cl.counter("aggregate_shares_sent_total")),
		"acks":       float64(cl.counter("aggregate_acks_sent_total")),
		"retries":    float64(cl.counter("aggregate_exchange_retries_total")),
		"bytesOut":   float64(wireReg.Counter("soap_bytes_out_total").Value()),
		"scanner":    float64(rung.With("scanner").Value()),
		"decodes": float64(rung.With("scanner").Value() + rung.With("zerocopy").Value() +
			rung.With("legacy").Value()),
	}
}

// pushPhase runs the publishers for d, then waits for the cluster to drain.
func (b *bench) pushPhase(ctx context.Context, d time.Duration, traced bool) *phase {
	ph, before, p0, gs := b.begin(traced)
	ph.seqLo = b.seq.Load() + 1
	start := time.Now()
	deadline := start.Add(d)
	recs := make([][]pubRec, b.w.publishers)
	var wg sync.WaitGroup
	for p := range recs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				recs[p] = append(recs[p], b.publish(ctx, traced))
			}
		}(p)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.end = tr.now()
	if !b.cl.drain(30 * time.Second) {
		b.violate("cluster still busy 30s after the phase ended")
	}
	b.finish(ph, before, p0, gs)
	ph.seqHi = b.seq.Load()
	failMs := float64(ph.elapsed) / 1e6
	for _, rs := range recs {
		for _, r := range rs {
			b.pubs = append(b.pubs, r)
			ph.ops++
			ph.opAt = append(ph.opAt, r.start)
			if r.failed {
				ph.opFails++
				ph.opMs = append(ph.opMs, failMs) // a failed call misses every latency limit
				continue
			}
			ph.opMs = append(ph.opMs, float64(r.end-r.start)/1e6)
		}
	}
	return ph
}

// publish issues one notification (preceded, on http-fresh, by the
// activation of its own interaction).
func (b *bench) publish(ctx context.Context, traced bool) pubRec {
	seq := b.seq.Add(1)
	body := notifyPayload{Seq: seq, Data: b.pool[seq%int64(len(b.pool))]}
	rec := pubRec{seq: seq, start: tr.now()}
	inter := b.inter
	var err error
	var so open
	var startEnd int64
	if b.w.fresh {
		sctx := ctx
		if traced {
			so = tr.begin(spStart, nodeHead, 0, 0)
			sctx = withSpan(ctx, so.id)
		}
		inter, err = b.cl.init.StartInteraction(sctx)
		startEnd = tr.now()
	}
	if err == nil {
		nctx := ctx
		var o open
		if traced {
			o = tr.begin(spNotify, nodeHead, 0, 0)
			nctx = withSpan(ctx, o.id)
		}
		id, _, nerr := b.cl.init.Notify(nctx, inter, body)
		err = nerr
		rec.msgID = string(id)
		if traced {
			tr.end(o, rec.msgID)
		}
	}
	if traced && b.w.fresh {
		tr.endAt(so, rec.msgID, startEnd)
	}
	rec.end = tr.now()
	rec.failed = err != nil
	return rec
}

// checkPush is the push workloads' correctness gate and delivery
// accounting: every (notification, node) pair is delivered at most once,
// with the payload that was published, and only published IDs arrive.
func (b *bench) checkPush(phases []*phase) {
	bySeq := make(map[int64]*pubRec, len(b.pubs))
	for i := range b.pubs {
		bySeq[b.pubs[i].seq] = &b.pubs[i]
	}
	phaseOf := func(seq int64) *phase {
		for _, ph := range phases {
			if seq >= ph.seqLo && seq <= ph.seqHi {
				return ph
			}
		}
		return nil
	}
	for _, a := range b.cl.apps {
		seen := make(map[int64]bool)
		for _, d := range a.deliveries() {
			rec, ok := bySeq[d.seq]
			switch {
			case !ok:
				b.violate("%s delivered seq %d (message %s), which was never published", b.cl.names[a.node], d.seq, d.msgID)
				continue
			case !d.ok:
				b.violate("%s delivered seq %d with a payload that differs from the published one", b.cl.names[a.node], d.seq)
			case rec.msgID != "" && d.msgID != rec.msgID:
				b.violate("%s delivered seq %d under message %s, published as %s", b.cl.names[a.node], d.seq, d.msgID, rec.msgID)
			case seen[d.seq]:
				b.violate("%s delivered seq %d twice", b.cl.names[a.node], d.seq)
				continue
			}
			seen[d.seq] = true
			if ph := phaseOf(d.seq); ph != nil {
				ph.delivered++
				ph.deliverMs = append(ph.deliverMs, float64(d.at-rec.start)/1e6)
				ph.deliverAt = append(ph.deliverAt, rec.start)
			}
		}
	}
	for _, ph := range phases {
		ph.pairs = (ph.seqHi - ph.seqLo + 1) * int64(b.w.spec.n)
	}
}

// aggPhase runs exchange rounds for d, and on until at least one epoch has
// closed inside the phase, so every phase scores frozen estimates.
func (b *bench) aggPhase(ctx context.Context, d time.Duration, traced bool) *phase {
	ph, before, p0, gs := b.begin(traced)
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) || ph.pairs == 0 {
		b.aggRound(ctx, traced)
	}
	ph.elapsed = time.Since(start)
	ph.end = tr.now()
	b.finish(ph, before, p0, gs)
	return ph
}

// aggRound advances the virtual clock one exchange period and ticks every
// participant and the querier's window once, in a seeded order: one
// cluster-wide exchange round. MemBus drains each tick's exchanges and
// acks before the tick returns.
func (b *bench) aggRound(ctx context.Context, traced bool) {
	cl := b.cl
	b.round++
	cl.vc.Advance(aggEvery)
	key := ""
	if traced {
		key = "round-" + strconv.Itoa(b.round)
	}
	order := b.rng.Perm(len(cl.svcs) + 1)
	ph := b.cur
	t0 := tr.now()
	for _, i := range order {
		node := nodeFirst + i
		if i == len(cl.svcs) {
			node = nodeHead
		}
		tctx := ctx
		var o open
		if traced {
			o = tr.begin(spAggTick, node, 0, 0)
			tctx = withSpan(ctx, o.id)
		}
		ts := tr.now()
		if node == nodeHead {
			cl.win.Tick(tctx)
		} else {
			cl.svcs[i].Tick(tctx)
		}
		te := tr.now()
		if traced {
			tr.endAt(o, key, te)
		}
		if ph != nil {
			ph.deliverMs = append(ph.deliverMs, float64(te-ts)/1e6)
			ph.deliverAt = append(ph.deliverAt, ts)
		}
	}
	if ph != nil {
		ph.ops++
		ph.opAt = append(ph.opAt, t0)
		ph.opMs = append(ph.opMs, float64(tr.now()-t0)/1e6)
	}
	b.aggCheck()
}

// aggCheck is the aggregate workload's correctness gate: every ledger
// balances exactly after every round, and once an epoch closes every
// node's frozen count is scored against the true N (the querier's must be
// within tolerance).
func (b *bench) aggCheck() {
	cl := b.cl
	for i, g := range b.massG {
		if v := g.Value(); v != 0 {
			b.violate("round %d: %s aggregate_mass_error = %g, want exactly 0", b.round, cl.names[nodeHead+i], v)
		}
	}
	k := aggregate.EpochAt(cl.vc.Now(), aggWindow)
	if k <= b.lastEpoch {
		return
	}
	b.lastEpoch = k
	closed := k - 1
	if closed < aggCheckFrom || b.cur == nil {
		return
	}
	n := float64(len(cl.svcs))
	var avg float64
	for _, l := range cl.loads {
		avg += l
	}
	avg /= n
	countTask, _ := cl.win.Task("nodes")
	loadTask, _ := cl.win.Task("load")
	frozen := func(i int, id string) (aggregate.EpochEstimate, bool) {
		if i == len(cl.svcs) {
			return cl.q.FrozenEstimate(id)
		}
		return cl.svcs[i].FrozenEstimate(id)
	}
	ph := b.cur
	for i := 0; i <= len(cl.svcs); i++ {
		ph.pairs++
		est, ok := frozen(i, countTask.ID)
		if ok && est.Epoch == closed && est.Defined {
			rel := math.Abs(est.Estimate-n) / n
			ph.aggErrs = append(ph.aggErrs, rel)
			if rel <= aggTolerance {
				ph.covered++
			} else if i == len(cl.svcs) {
				b.violate("epoch %d: querier froze count %.4f, want %v within %.0f%%", closed, est.Estimate, n, 100*aggTolerance)
			}
		} else if i == len(cl.svcs) {
			b.violate("epoch %d: querier has no frozen count for it", closed)
		}
		if est, ok := frozen(i, loadTask.ID); ok && est.Epoch == closed && est.Defined {
			ph.aggErrs = append(ph.aggErrs, math.Abs(est.Estimate-avg)/avg)
		}
	}
}

// report turns the phases into the result line.
func (b *bench) report(phases []*phase, setups []float64) (result, error) {
	var plain, traced phase
	var spans []span
	var attempted, failed int64
	for _, ph := range phases {
		dst := &plain
		if ph.traced {
			dst = &traced
			spans = append(spans, ph.spans...)
		}
		dst.elapsed += ph.elapsed
		dst.ops += ph.ops
		dst.opFails += ph.opFails
		dst.opMs = append(dst.opMs, ph.opMs...)
		dst.deliverMs = append(dst.deliverMs, ph.deliverMs...)
		dst.delivered += ph.delivered
		dst.pairs += ph.pairs
		dst.covered += ph.covered
		dst.aggErrs = append(dst.aggErrs, ph.aggErrs...)
		dst.proc.cpu += ph.proc.cpu
		dst.proc.allocs += ph.proc.allocs
		dst.proc.gcCPU += ph.proc.gcCPU
		dst.proc.totalCPU += ph.proc.totalCPU
		dst.goroutines = max(dst.goroutines, ph.goroutines)
		if dst.counters == nil {
			dst.counters = make(map[string]float64)
		}
		for k, v := range ph.counters {
			dst.counters[k] += v
		}
		sendsK, errsK := "sends", "sendErrs"
		if b.w.spec.plane {
			sendsK, errsK = "submits", "submitErrs"
		}
		attempted += ph.ops + int64(ph.counters[sendsK]+ph.counters["calls"])
		failed += ph.opFails + int64(ph.counters[errsK]+ph.counters["callErrs"]+ph.counters["budgetDrop"])
	}
	res := result{Correct: len(b.violations) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	log := b.opts.log
	rate := ratio(float64(plain.ops), plain.elapsed.Seconds())
	coverage := ratio(float64(plain.delivered), float64(plain.pairs))
	if b.w.spec.agg {
		coverage = ratio(float64(plain.covered), float64(plain.pairs))
	}
	fmt.Fprintf(log, "%s seed=%d: %d ops in %.2fs (%.1f/s), %d delivery samples, coverage %.4f, setup median %.4fs over %d\n",
		b.w.name, b.opts.seed, plain.ops, plain.elapsed.Seconds(), rate, len(plain.deliverMs), coverage, quantile(setups, 0.5), len(setups))
	for _, v := range b.violations {
		fmt.Fprintln(log, "VIOLATION:", v)
	}
	if !b.opts.trace {
		// An untraced run has one phase; its timings are medians over
		// windows, so a stretch in which the shared host ran slow moves
		// one window and not the result.
		ph := phases[0]
		win := splitWindows(ph.opAt, ph.end, statWindows)
		put("ops_per_s", win.rate(ph.opAt), "1/s")
		put("op_p50_ms", win.quantile(ph.opMs, ph.opAt, 0.50), "ms")
		put("op_p99_ms", win.quantile(ph.opMs, ph.opAt, 0.99), "ms")
		put("deliver_p50_ms", win.quantile(ph.deliverMs, ph.deliverAt, 0.50), "ms")
		put("deliver_p99_ms", win.quantile(ph.deliverMs, ph.deliverAt, 0.99), "ms")
		put("coverage", coverage, "ratio")
		// The resident set once a forced collection has returned free
		// pages: what the process keeps. The peak (VmHWM) depends on when
		// the collector last ran; it moved 17.7-26.5 MB over runs of
		// membus-aggregate.
		debug.FreeOSMemory()
		rss := procStatusMB("VmRSS:")
		put("rss_mb", rss, "MB")
		fmt.Fprintf(log, "rss %.2f MB retained, %.2f MB peak\n", rss, procStatusMB("VmHWM:"))
		put("setup_s", quantile(setups, 0.5), "s")
		return res, nil
	}

	c := plain.counters
	ops := float64(plain.ops)
	put("soap.http_dials_per_notify", ratio(c["dials"], ops), "count/op")
	put("soap.bytes_per_notify", ratio(c["bytesOut"], ops), "B/op")
	put("soap.sends_per_notify", ratio(c["sends"], ops), "count/op")
	put("soap.fastpath_frac", ratio(c["scanner"], c["decodes"]), "ratio")
	put("core.dup_frac", ratio(c["dups"], c["received"]), "ratio")
	put("delivery.attempts_per_send", ratio(c["attempts"], c["submits"]), "count/op")
	put("coord.registrations_per_notify", ratio(c["coordRegs"], ops), "count/op")
	put("aggregate.msgs_per_round", ratio(c["shares"]+c["acks"], ops), "count/op")
	put("aggregate.retry_frac", ratio(c["retries"], c["shares"]), "ratio")
	put("aggregate.est_err", quantile(plain.aggErrs, 0.5), "ratio")
	put("proc.cpu_us_per_op", ratio(float64(plain.proc.cpu)/1e3, ops), "us/op")
	put("proc.allocs_per_op", ratio(float64(plain.proc.allocs), ops), "count/op")
	put("proc.gc_cpu_frac", ratio(plain.proc.gcCPU, plain.proc.totalCPU), "ratio")
	put("proc.goroutines_max", float64(plain.goroutines), "count")
	put("ops.fail_frac", ratio(float64(failed), float64(attempted)), "ratio")
	tracedRate := ratio(float64(traced.ops), traced.elapsed.Seconds())
	put("trace.overhead_frac", 1-ratio(tracedRate, rate), "ratio")
	put("trace.spans", float64(len(spans)), "count")

	ix := indexSpans(spans)
	selfs, durs := ix.selfTimes(), ix.durations()
	res.spanCounts = make(map[string]int)
	for n, v := range durs {
		res.spanCounts[spanNames[n]] = len(v)
	}
	put("soap.send_self_us_p50", quantile(selfs[spSend], 0.50), "us")
	put("soap.send_self_us_p99", quantile(selfs[spSend], 0.99), "us")
	put("soap.serve_self_us_p50", quantile(selfs[spServe], 0.50), "us")
	put("core.gossip_self_us_p50", quantile(selfs[spGossip], 0.50), "us")
	put("core.gossip_self_us_p99", quantile(selfs[spGossip], 0.99), "us")
	put("core.notify_self_us_p50", quantile(selfs[spNotify], 0.50), "us")
	put("app.us_p50", quantile(durs[spApp], 0.50), "us")
	queued, waits := planeWaits(ix)
	put("delivery.queued_frac", ratio(queued, float64(len(durs[spSubmit]))), "ratio")
	put("delivery.wait_us_p50", quantile(waits, 0.50), "us")
	put("delivery.wait_us_p99", quantile(waits, 0.99), "us")
	put("coord.register_us_p50", quantile(durs[spRegister], 0.50), "us")
	put("coord.register_us_p99", quantile(durs[spRegister], 0.99), "us")
	put("coord.activate_us_p50", quantile(durs[spActivate], 0.50), "us")
	put("coord.call_self_us_p50", quantile(selfs[spCall], 0.50), "us")
	put("aggregate.tick_self_us_p50", quantile(selfs[spAggTick], 0.50), "us")
	put("aggregate.handle_us_p50", quantile(selfs[spAggHandle], 0.50), "us")

	fmt.Fprintf(log, "traced: %d ops in %.2fs (%.1f/s, tracing overhead %.1f%%), %d spans\n",
		traced.ops, traced.elapsed.Seconds(), tracedRate, 100*(1-ratio(tracedRate, rate)), len(spans))
	layerTable(log, ix, selfs)
	if b.opts.outDir != "" {
		if err := os.MkdirAll(b.opts.outDir, 0o755); err != nil {
			return res, err
		}
		path := filepath.Join(b.opts.outDir, "trace-"+b.w.name+".csv.gz")
		if err := writeTrace(path, ix, b.cl.names); err != nil {
			return res, err
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	return res, nil
}

// planeWaits pairs each delivery-plane submit with its first attempt on
// the binding: the wait is the attempt's start minus the submit's, and the
// message was queued when that attempt did not run inside the submit call.
func planeWaits(ix *traceIndex) (queued float64, waits []float64) {
	first := make(map[uint64]int) // submit span id -> earliest attempt index
	for i, s := range ix.spans {
		if s.name != spSend || s.cause == 0 {
			continue
		}
		j, ok := ix.byID[s.cause]
		if !ok || ix.spans[j].name != spSubmit {
			continue
		}
		if k, seen := first[s.cause]; !seen || s.start < ix.spans[k].start {
			first[s.cause] = i
		}
	}
	for sub, i := range first {
		s := ix.spans[i]
		waits = append(waits, float64(s.start-ix.spans[ix.byID[sub]].start)/1e3)
		if s.parent != sub {
			queued++
		}
	}
	return queued, waits
}
