package aggregate

import (
	"slices"
	"time"
)

// The windowed push-sum exchange, written once. epochExchange is the
// transport-agnostic state machine of a continuous task: the epoch roll,
// the acked share ledger, the retry and suspect policy, and the
// (sender, seq) dedup. It sends nothing and takes no lock. Each binding —
// the SOAP Service and the simulator's SimNode — selects peers, encodes
// and sends what the core stages, reports synchronous refusals back, and
// feeds it decoded shares and acks; the Service calls it under its mutex,
// the SimNode from the simulator's single-threaded event loop.

// outShare is one split share awaiting its ack: the share as sent (so
// retries are byte-identical), its target, and how often it was retried.
type outShare struct {
	to    string
	share Share
	tries int
}

// exchangeSend is one share transmission the core staged for its binding.
// share points into the pending entry and is never mutated after staging,
// so a binding may encode it after releasing its lock.
type exchangeSend struct {
	to    string
	share *Share
	// retry marks a re-send: a refused retry must not recover the mass,
	// because an earlier attempt may have been delivered.
	retry bool
}

// epochExchange is one task's push-sum state and conservation ledger. A
// one-shot task uses only state and led; with window > 0 the rest runs the
// epoch-windowed exchange.
type epochExchange struct {
	state *State
	// led is the conservation account (see ledger): a split share sits in
	// outstanding until its ack commits the transfer.
	led ledger

	window time.Duration
	clock  interface{ Now() time.Duration }
	stats  *aggCounters
	// contribute supplies the local value and the anchor flag a roll
	// re-contributes; ok false leaves the node passive (relay only). It is
	// consulted only for epochs at or after contributeFrom.
	contribute func() (value float64, root, ok bool)

	// epoch is the 1-based live epoch; 0 until the first roll.
	epoch uint64
	// contributeFrom is the first epoch this node contributes its local
	// value (and anchor weight, if root) into. A node that joins mid-window
	// relays passively for the rest of that window and is absorbed at the
	// next boundary; each binding sets it when the task is created.
	contributeFrom uint64
	// nextSeq allocates share sequence numbers. Never reset: a seq names
	// one transfer across retries and epochs.
	nextSeq uint64
	// pending holds split shares not yet acknowledged, keyed by seq.
	pending map[uint64]*outShare
	// seen dedups absorbed shares per sender for the live epoch.
	seen map[string]map[uint64]struct{}
	// frozen is the last closed epoch's final estimate.
	frozen *EpochEstimate
	// contributed is the weight this node injected into the live epoch
	// (contribution plus anchor) — the conservation tests' ground truth.
	contributed float64
}

// newEpochExchange returns a windowed exchange for fn, passive until its
// first roll.
func newEpochExchange(fn Func, window time.Duration, clk interface{ Now() time.Duration }, stats *aggCounters, contribute func() (float64, bool, bool)) epochExchange {
	return epochExchange{
		state:      NewState(fn, 0, false, true),
		window:     window,
		clock:      clk,
		stats:      stats,
		contribute: contribute,
		pending:    make(map[uint64]*outShare),
		seen:       make(map[string]map[uint64]struct{}),
	}
}

// windowed reports whether the task runs the epoch-windowed exchange.
func (x *epochExchange) windowed() bool { return x.window > 0 }

// massError is the conservation residual: held plus outstanding weight
// against the ledger's net injections, snapped to exactly zero within
// float tolerance.
func (x *epochExchange) massError() float64 {
	_, w := x.state.Mass()
	return x.led.balance(w)
}

// frozenEstimate returns the last closed epoch's estimate.
func (x *epochExchange) frozenEstimate() (EpochEstimate, bool) {
	if x.frozen == nil {
		return EpochEstimate{}, false
	}
	return *x.frozen, true
}

// roll retires the live epoch and enters epoch k (no-op unless k is
// later). The closing estimate is frozen; the old epoch's pending shares,
// dedup state, and ledger are discarded as a unit — its balance was zero,
// so dropping all of it keeps the residual at zero, and any
// absorbed-but-unacked ambiguity dies with the epoch. The node then
// re-contributes into fresh state.
func (x *epochExchange) roll(k uint64, now time.Duration) {
	if k <= x.epoch {
		return
	}
	if x.epoch != 0 {
		est, ok := x.state.Estimate()
		_, w := x.state.Mass()
		x.frozen = &EpochEstimate{
			Epoch:    x.epoch,
			Estimate: est,
			Defined:  ok,
			Weight:   w,
			Rounds:   x.state.Rounds(),
			ClosedAt: now,
		}
	}
	if n := len(x.pending); n > 0 {
		x.stats.unacked.Add(int64(n))
	}
	x.pending = make(map[uint64]*outShare)
	x.seen = make(map[string]map[uint64]struct{})
	x.epoch = k

	var value float64
	var root, active bool
	if k >= x.contributeFrom {
		value, root, active = x.contribute()
	}
	x.state = NewState(x.state.Func(), value, root, !active)
	_, w := x.state.Mass()
	x.led = ledger{in: w}
	x.contributed = w
	x.stats.epochs.Inc()
}

// advance rolls into the clock's epoch once a boundary has passed.
func (x *epochExchange) advance() {
	now := x.clock.Now()
	x.roll(EpochAt(now, x.window), now)
}

// retries bumps every outstanding share's try count and stages its
// re-send onto dst, in seq order (determinism). The receiver dedups on
// (sender, seq), so a share whose first copy arrived but whose ack was lost
// is absorbed once and simply re-acked.
func (x *epochExchange) retries(dst []exchangeSend) []exchangeSend {
	if len(x.pending) == 0 {
		return dst
	}
	seqs := make([]uint64, 0, len(x.pending))
	for q := range x.pending {
		seqs = append(seqs, q)
	}
	slices.Sort(seqs)
	for _, q := range seqs {
		p := x.pending[q]
		p.tries++
		x.stats.retries.Inc()
		dst = append(dst, exchangeSend{to: p.to, share: &p.share, retry: true})
	}
	return dst
}

// dropSuspects filters targets in place, removing every target with a
// pending share already retried suspectTries times (see suspectTries).
func (x *epochExchange) dropSuspects(targets []string) []string {
	if len(x.pending) == 0 {
		return targets
	}
	kept := targets[:0]
	for _, tg := range targets {
		if !x.suspect(tg) {
			kept = append(kept, tg)
		}
	}
	return kept
}

func (x *epochExchange) suspect(to string) bool {
	for _, p := range x.pending {
		if p.to == to && p.tries >= suspectTries {
			return true
		}
	}
	return false
}

// split runs one exchange round over targets: it splits the local mass
// and stages one seq'd share per target onto dst. tmpl carries the
// binding's share identity (task, sender, and any join hints its wire
// format adds); the core fills in the mass, extremes, window, epoch, and
// seq. Each share is charged to outstanding on its own, not batched, so a
// later recovery or commit cancels its entry term for term.
func (x *epochExchange) split(dst []exchangeSend, targets []string, tmpl Share) []exchangeSend {
	if len(targets) == 0 {
		return dst
	}
	x.state.BeginRound()
	x.stats.rounds.Inc()
	shareSum, shareWeight := x.state.Split(len(targets))
	tmpl.Function = string(x.state.fn)
	tmpl.Sum, tmpl.Weight = shareSum, shareWeight
	tmpl.HasExtremes, tmpl.Min, tmpl.Max = x.state.hasExtremes, x.state.min, x.state.max
	tmpl.WindowMillis = x.window.Milliseconds()
	tmpl.Epoch = x.epoch
	for _, tg := range targets {
		x.nextSeq++
		tmpl.Seq = x.nextSeq
		p := &outShare{to: tg, share: tmpl}
		x.pending[tmpl.Seq] = p
		x.led.outstanding += shareWeight
		dst = append(dst, exchangeSend{to: tg, share: &p.share})
	}
	return dst
}

// refused records a synchronous send refusal. A refused first send proves
// the share never left this node, so its mass moves straight from
// outstanding back into held state (in and out are untouched, so the
// cancellation is term-exact). A refused retry proves nothing — an earlier
// copy may have arrived — and the share stays pending until its ack or the
// epoch boundary.
func (x *epochExchange) refused(s exchangeSend) {
	x.stats.sendErrors.Inc()
	if s.retry {
		return
	}
	seq := s.share.Seq
	p, ok := x.pending[seq]
	if !ok {
		return // retired with its epoch meanwhile
	}
	delete(x.pending, seq)
	x.state.Absorb(p.share)
	x.led.outstanding -= p.share.Weight
	x.stats.recovered.Inc()
}

// absorb applies one epoch-tagged share from sender from and returns the
// epoch to ack it with. A share from a later epoch first rolls this node
// forward (epochs spread epidemically; the clock is only the local
// trigger). A live-epoch share is absorbed once per (from, seq); a
// re-delivery is only re-acked. A share from a retired epoch is acked
// without absorbing: that epoch's mass died everywhere, and the ack both
// stops the sender's retries and rolls it forward.
func (x *epochExchange) absorb(from string, sh *Share) uint64 {
	now := x.clock.Now()
	k := EpochAt(now, x.window)
	if sh.Epoch > k {
		k = sh.Epoch
	}
	x.roll(k, now)
	if sh.Epoch != x.epoch {
		x.stats.stale.Inc()
		return x.epoch
	}
	m := x.seen[from]
	if m == nil {
		m = make(map[uint64]struct{})
		x.seen[from] = m
	}
	if _, dup := m[sh.Seq]; dup {
		x.stats.dups.Inc()
		return x.epoch
	}
	m[sh.Seq] = struct{}{}
	x.state.Absorb(*sh)
	x.led.in += sh.Weight
	x.stats.sharesAbsorbed.Inc()
	return x.epoch
}

// commit settles the transfer an ack names: the share's mass moves from
// outstanding to committed-out at the moment the ack arrives — the commit
// point the mass residual is defined at. An ack from a later epoch also
// rolls this node forward.
func (x *epochExchange) commit(seq, ackEpoch uint64) {
	if p, ok := x.pending[seq]; ok {
		delete(x.pending, seq)
		x.led.outstanding -= p.share.Weight
		x.led.out += p.share.Weight
		x.stats.commits.Inc()
	}
	if ackEpoch > x.epoch {
		x.roll(ackEpoch, x.clock.Now())
	}
}
