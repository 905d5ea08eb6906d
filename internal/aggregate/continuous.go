package aggregate

import (
	"context"
	"sort"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// contBatch is one continuous task's sends, staged under the service lock
// and sent outside it.
type contBatch struct {
	t     *task
	cctx  wscoord.CoordinationContext
	sends []exchangeSend
}

// newContinuousTask builds a continuous task on the service's clock. Each
// epoch roll re-contributes the metric's local value (none: the node
// relays passively) and, at the root, the anchor weight. The caller
// defers contributeFrom for a passive join and rolls the task into its
// first epoch.
func (s *Service) newContinuousTask(fn Func, params core.AggregateParameters, cctx wscoord.CoordinationContext, window time.Duration, root, metric string) *task {
	t := &task{params: params, cctx: cctx, root: root, metric: metric}
	t.epochExchange = newEpochExchange(fn, window, s.clk, &s.stats, func() (float64, bool, bool) {
		root := t.root != "" && t.root == s.cfg.Address
		if vf, ok := s.valueForLocked(t.metric); ok {
			return vf(), root, true
		}
		return 0, root, false
	})
	return t
}

// valueForLocked resolves the local value source for a metric name: the
// named entry in Values, else the default Value, else none (passive).
func (s *Service) valueForLocked(metric string) (func() float64, bool) {
	if metric != "" && s.cfg.Values != nil {
		if f, ok := s.cfg.Values[metric]; ok && f != nil {
			return f, true
		}
	}
	if s.cfg.Value != nil {
		return s.cfg.Value, true
	}
	return nil, false
}

// tickContinuousLocked runs one continuous-task round: roll the epoch if
// the clock crossed a boundary, stage retries for every outstanding share,
// then split fresh shares for sampled targets that are not suspect. Caller
// holds s.mu; the staged sends go out after the lock is released.
func (s *Service) tickContinuousLocked(t *task, id string) []exchangeSend {
	t.advance()
	sends := t.retries(nil)
	fanout := t.params.Fanout
	if fanout <= 0 {
		if s.cfg.Peers == nil && len(t.params.Targets) == 0 {
			return sends
		}
		fanout = passiveFanout
	}
	targets := core.SelectTargets(s.cfg.Peers, s.rng, fanout, s.cfg.Address, t.params.Targets)
	return t.split(sends, t.dropSuspects(targets), Share{
		TaskID: id, From: s.cfg.Address, Root: t.root, Metric: t.metric,
	})
}

// sendContinuous performs the staged continuous sends outside the service
// lock and reports each synchronous refusal back to its task's exchange.
func (s *Service) sendContinuous(ctx context.Context, batches []contBatch) {
	for _, b := range batches {
		for _, cs := range b.sends {
			env, err := buildMessage(ActionExchange, b.cctx, cs.share)
			if err == nil {
				err = s.cfg.Caller.Send(ctx, cs.to, env)
			}
			if err != nil {
				s.mu.Lock()
				b.t.refused(cs)
				s.evalMassLocked()
				s.mu.Unlock()
				continue
			}
			s.stats.sharesSent.Inc()
		}
	}
}

// handleContinuousShare absorbs one epoch-tagged share and acks it. A node
// that never saw the start joins passively — the share carries the window,
// root, and metric — and begins contributing at the next epoch boundary.
func (s *Service) handleContinuousShare(ctx context.Context, req *soap.Request, share Share) (*soap.Envelope, error) {
	s.mu.Lock()
	t, known := s.tasks[share.TaskID]
	s.mu.Unlock()
	if !known {
		fn, err := ParseFunc(share.Function)
		if err != nil {
			return nil, soap.NewFault(soap.CodeSender, err.Error())
		}
		cctx, err := wscoord.ContextFrom(req.Envelope)
		if err != nil {
			return nil, soap.NewFault(soap.CodeSender, "aggregate share without coordination context: "+err.Error())
		}
		// Registration can fail (coordinator down); the node still holds
		// the mass it absorbs, so the totals stay conserved.
		params, _ := s.registerTask(ctx, cctx)
		t = s.newContinuousTask(fn, params, cctx,
			time.Duration(share.WindowMillis)*time.Millisecond, share.Root, share.Metric)
		s.mu.Lock()
		if existing, raced := s.tasks[share.TaskID]; raced {
			t = existing
		} else {
			// Mid-window joiner: relay passively for the rest of this
			// window, contribute from the next boundary on.
			t.contributeFrom = EpochAt(s.clk.Now(), t.window) + 1
			s.tasks[share.TaskID] = t
			s.stats.passiveJoins.Inc()
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	if !t.windowed() {
		s.mu.Unlock()
		return nil, soap.NewFault(soap.CodeSender, "continuous share for one-shot task "+share.TaskID)
	}
	ackEpoch := t.absorb(share.From, &share)
	cctx := t.cctx
	s.evalMassLocked()
	s.mu.Unlock()
	s.bumpActivity()
	if share.From != "" && share.From != s.cfg.Address {
		ack := ExchangeAck{TaskID: share.TaskID, From: s.cfg.Address, Epoch: ackEpoch, Seq: share.Seq}
		if env, err := buildMessage(ActionExchangeAck, cctx, ack); err == nil {
			if s.cfg.Caller.Send(ctx, share.From, env) == nil {
				s.stats.acksSent.Inc()
			} else {
				s.stats.sendErrors.Inc()
			}
		}
	}
	return nil, nil
}

// handleExchangeAck hands one ack to its task's exchange, which commits
// the transfer (and rolls forward on a later epoch); the mass-error gauge
// is re-evaluated at that commit point.
func (s *Service) handleExchangeAck(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var ack ExchangeAck
	if err := req.Envelope.DecodeBody(&ack); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateExchangeAck: "+err.Error())
	}
	s.mu.Lock()
	if t, ok := s.tasks[ack.TaskID]; ok && t.windowed() {
		t.commit(ack.Seq, ack.Epoch)
		s.evalMassLocked()
	}
	s.mu.Unlock()
	return nil, nil
}

// startContinuousLocal installs a continuous task created by this node (the
// Querier's path): the node is the root, contributes immediately, and rolls
// into the current epoch on the spot.
func (s *Service) startContinuousLocal(taskID string, fn Func, cctx wscoord.CoordinationContext, params core.AggregateParameters, window time.Duration, metric string) {
	s.mu.Lock()
	if _, ok := s.tasks[taskID]; ok {
		s.mu.Unlock()
		return
	}
	t := s.newContinuousTask(fn, params, cctx, window, s.cfg.Address, metric)
	s.tasks[taskID] = t
	t.advance()
	s.stats.started.Inc()
	s.evalMassLocked()
	s.mu.Unlock()
	s.bumpActivity()
}

// ContinuousEstimate is one continuous task's consumer view: the frozen
// estimate from the last closed epoch (the stable value — at most one
// window plus one exchange round stale) and the still-mixing live one.
type ContinuousEstimate struct {
	TaskID   string
	Metric   string
	Function Func
	Window   time.Duration
	// Epoch is the live epoch the node is currently mixing.
	Epoch uint64
	// Frozen is the last closed epoch's final estimate; nil while the
	// first window is still open.
	Frozen *EpochEstimate
	// Live is the current epoch's (unconverged) estimate.
	Live        float64
	LiveDefined bool
}

// ContinuousEstimates snapshots every continuous task, sorted by task ID.
func (s *Service) ContinuousEstimates() []ContinuousEstimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ContinuousEstimate, 0)
	ids := make([]string, 0, len(s.tasks))
	for id, t := range s.tasks {
		if t.windowed() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := s.tasks[id]
		live, ok := t.state.Estimate()
		ce := ContinuousEstimate{
			TaskID:      id,
			Metric:      t.metric,
			Function:    t.state.Func(),
			Window:      t.window,
			Epoch:       t.epoch,
			Live:        live,
			LiveDefined: ok,
		}
		if f, ok := t.frozenEstimate(); ok {
			ce.Frozen = &f
		}
		out = append(out, ce)
	}
	return out
}

// EpochOf returns the live epoch of a continuous task (0 if unknown or
// one-shot).
func (s *Service) EpochOf(taskID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok && t.windowed() {
		return t.epoch
	}
	return 0
}

// FrozenEstimate returns the last closed epoch's estimate for a continuous
// task.
func (s *Service) FrozenEstimate(taskID string) (EpochEstimate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok && t.windowed() {
		return t.frozenEstimate()
	}
	return EpochEstimate{}, false
}

// Outstanding returns a continuous task's unacked outstanding weight and
// the weight this node contributed into the live epoch — the conservation
// property tests' accounting hooks.
func (s *Service) Outstanding(taskID string) (outstanding, contributed float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok && t.windowed() {
		return t.led.outstanding, t.contributed
	}
	return 0, 0
}
