package aggregate

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/transport"
)

// Transport-level push-sum node: the same State machine as the SOAP-level
// Service, attached directly to a transport.Endpoint. It is what lets
// cmd/wsgossip-sim drive aggregation over the deterministic simulator at
// scales (and loss rates) the SOAP harness does not reach, mirroring how
// the dissemination engine has both a SOAP binding and a simnet binding.
// With a Window configured it binds the same epochExchange core the
// Service runs (exchange.go) instead of one-shot fire-and-forget; only the
// wire format and the peer source are its own.

// Wire actions for simulator push-sum exchanges and their acks.
const (
	ActionSimExchange    = "urn:wsgossip:aggregate:exchange"
	ActionSimExchangeAck = "urn:wsgossip:aggregate:exchange-ack"
)

// simShare is the simulator wire format (JSON, like the gossip engine's).
// Epoch and Seq are zero on the legacy one-shot path.
type simShare struct {
	Task        string  `json:"task"`
	Function    string  `json:"fn"`
	Sum         float64 `json:"s"`
	Weight      float64 `json:"w"`
	HasExtremes bool    `json:"he,omitempty"`
	Min         float64 `json:"min,omitempty"`
	Max         float64 `json:"max,omitempty"`
	Epoch       uint64  `json:"e,omitempty"`
	Seq         uint64  `json:"q,omitempty"`
}

// simAck acknowledges one absorbed (or retired) share. Epoch is the
// receiver's live epoch, which may roll the sender forward.
type simAck struct {
	Task  string `json:"task"`
	Epoch uint64 `json:"e"`
	Seq   uint64 `json:"q"`
}

// SimNodeStats counts one simulator node's windowed-exchange events. It is
// a view over the same aggregate_* counters ServiceStats reads.
type SimNodeStats struct {
	// Epochs is how many epoch rolls the node has performed.
	Epochs int64
	// SharesSent counts shares handed to the network without a synchronous
	// refusal (first sends and retries alike).
	SharesSent int64
	// SharesAbsorbed counts shares merged into local mass.
	SharesAbsorbed int64
	// Duplicates counts re-deliveries dropped by (sender, seq) dedup.
	Duplicates int64
	// Stale counts shares from retired epochs (acked, not absorbed).
	Stale int64
	// AcksSent counts acknowledgements handed to the network.
	AcksSent int64
	// Commits counts pending shares settled by an ack.
	Commits int64
	// Retries counts re-sends of still-unacked shares.
	Retries int64
	// Recovered counts shares reclaimed after a synchronous first-send
	// refusal (the only case where mid-epoch recovery is sound). Each is
	// also one of SendErrors.
	Recovered int64
	// UnackedDiscarded counts pending shares retired wholesale at epoch
	// boundaries.
	UnackedDiscarded int64
	// SendErrors counts every synchronous send refusal — first sends,
	// retries, and acks. A refused first send whose mass came back to local
	// state counts here as well as in Recovered.
	SendErrors int64
}

// SimNodeConfig configures a simulator aggregation node.
type SimNodeConfig struct {
	// Endpoint attaches the node to the simulated network. Required.
	Endpoint transport.Endpoint
	// Peers supplies exchange targets. Required.
	Peers gossip.PeerProvider
	// Fanout is the number of share recipients per round.
	Fanout int
	// TaskID names the single aggregation task the node runs.
	TaskID string
	// Func is the aggregate function.
	Func Func
	// Value is the node's local measurement.
	Value float64
	// Root marks the anchor node for count/sum.
	Root bool
	// RNG drives peer selection; nil falls back to a fixed seed.
	RNG *rand.Rand
	// Window enables the epoch-windowed continuous mode: push-sum restarts
	// at every multiple of Window on Clock, and exchanges become acked and
	// loss-tolerant. Zero keeps the legacy one-shot fire-and-forget mode.
	Window time.Duration
	// Clock supplies the shared time epochs derive from. Required when
	// Window is set.
	Clock transport.Clock
}

// SimNode is one simulator participant. All calls arrive from the
// simulator's single-threaded event loop, so no locking is needed.
type SimNode struct {
	// epochExchange holds the push-sum state; in windowed mode it runs the
	// acked exchange the SimNode binds to the transport.
	epochExchange
	cfg      SimNodeConfig
	rng      *rand.Rand
	counters aggCounters
}

// encodeCap sizes encode buffers so a typical share fits in one allocation.
// Bodies cannot be pooled or reused: the simulator holds the slice until
// the (possibly much later) delivery timer fires.
const encodeCap = 160

// NewSimNode validates cfg and returns a node with its initial state.
func NewSimNode(cfg SimNodeConfig) (*SimNode, error) {
	if cfg.Endpoint == nil || cfg.Peers == nil {
		return nil, fmt.Errorf("aggregate: sim node requires endpoint and peers")
	}
	if cfg.Fanout < 1 {
		return nil, fmt.Errorf("aggregate: sim node fanout must be >= 1, got %d", cfg.Fanout)
	}
	if _, err := ParseFunc(string(cfg.Func)); err != nil {
		return nil, err
	}
	if cfg.Window > 0 && cfg.Clock == nil {
		return nil, fmt.Errorf("aggregate: windowed sim node requires a clock")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := &SimNode{cfg: cfg, rng: rng, counters: newAggCounters(metrics.NewRegistry())}
	if cfg.Window > 0 {
		n.epochExchange = newEpochExchange(cfg.Func, cfg.Window, cfg.Clock, &n.counters, func() (float64, bool, bool) {
			return cfg.Value, cfg.Root, true
		})
		// Passive until the first roll. A node created mid-window is
		// absorbed at the NEXT epoch boundary: it relays and holds mass for
		// the in-progress epoch but contributes its own value only from the
		// first epoch that starts after it exists — the same deferral the
		// SOAP continuous plane applies to passive joiners, so a joiner
		// never retroactively pollutes an epoch it did not fully live.
		n.contributeFrom = EpochAt(cfg.Clock.Now(), cfg.Window)
		if cfg.Clock.Now()%cfg.Window != 0 {
			n.contributeFrom++
		}
	} else {
		n.state = NewState(cfg.Func, cfg.Value, cfg.Root, false)
	}
	return n, nil
}

// Register installs the node's wire actions on the mux.
func (n *SimNode) Register(mux *transport.Mux) {
	mux.Handle(ActionSimExchange, n.handleExchange)
	mux.Handle(ActionSimExchangeAck, n.handleAck)
}

// State exposes the node's push-sum state (estimates, mass, convergence).
func (n *SimNode) State() *State { return n.state }

// Epoch returns the live epoch (0 = legacy mode or not yet rolled).
func (n *SimNode) Epoch() uint64 { return n.epoch }

// Frozen returns the last closed epoch's final estimate.
func (n *SimNode) Frozen() (EpochEstimate, bool) { return n.frozenEstimate() }

// Outstanding returns the unacked split weight awaiting commit.
func (n *SimNode) Outstanding() float64 { return n.led.outstanding }

// Contributed returns the weight this node injected into the live epoch.
func (n *SimNode) Contributed() float64 { return n.contributed }

// SimStats returns the windowed-exchange counters.
func (n *SimNode) SimStats() SimNodeStats {
	return SimNodeStats{
		Epochs:           n.counters.epochs.Value(),
		SharesSent:       n.counters.sharesSent.Value(),
		SharesAbsorbed:   n.counters.sharesAbsorbed.Value(),
		Duplicates:       n.counters.dups.Value(),
		Stale:            n.counters.stale.Value(),
		AcksSent:         n.counters.acksSent.Value(),
		Commits:          n.counters.commits.Value(),
		Retries:          n.counters.retries.Value(),
		Recovered:        n.counters.recovered.Value(),
		UnackedDiscarded: n.counters.unacked.Value(),
		SendErrors:       n.counters.sendErrors.Value(),
	}
}

// MassError returns the node's conservation residual: held plus outstanding
// weight minus the ledger's net injections, snapped to exactly zero within
// float tolerance. Under the acked exchange it must be zero at every commit
// point regardless of loss — the windowed chaos gates assert exactly that.
func (n *SimNode) MassError() float64 { return n.massError() }

// Tick runs one push-sum round. In legacy mode: split and fire-and-forget.
// In windowed mode: roll the epoch when the clock crosses a boundary, retry
// unacked shares, then split fresh acked shares for sampled peers.
func (n *SimNode) Tick(ctx context.Context) {
	if n.cfg.Window > 0 {
		n.tickWindowed(ctx)
		return
	}
	n.state.BeginRound()
	peers := n.cfg.Peers.SelectPeers(n.rng, n.cfg.Fanout, n.cfg.Endpoint.Addr())
	if len(peers) == 0 {
		return
	}
	shareSum, shareWeight := n.state.Split(len(peers))
	sh := simShare{
		Task:        n.cfg.TaskID,
		Function:    string(n.cfg.Func),
		Sum:         shareSum,
		Weight:      shareWeight,
		HasExtremes: n.state.hasExtremes,
		Min:         n.state.min,
		Max:         n.state.max,
	}
	// One body shared by the whole fanout; never mutated after encode.
	body := appendSimShare(make([]byte, 0, encodeCap), &sh)
	for _, p := range peers {
		msg := transport.Message{To: p, Action: ActionSimExchange, Body: body}
		if err := n.cfg.Endpoint.Send(ctx, msg); err != nil {
			// Unreachable peer: reclaim the share so local mass stays
			// conserved. (Shares lost *in flight* on a lossy network are
			// gone — that is the protocol's real sensitivity to loss, and
			// exactly what the simulator measures.)
			n.state.Absorb(Share{Sum: shareSum, Weight: shareWeight})
		}
	}
}

// tickWindowed binds one exchange round to the transport: retries go out
// before peers are sampled, then the fresh shares (this send order is part
// of every simulator run's seed-determined output), each refusal reported
// back to the exchange as it happens.
func (n *SimNode) tickWindowed(ctx context.Context) {
	n.advance()
	// A stack buffer for the staged sends keeps a round inside the
	// exchange's alloc budget (testdata/alloc_budget.json).
	var buf [8]exchangeSend
	sends := n.retries(buf[:0])
	n.sendShares(ctx, sends)
	peers := n.cfg.Peers.SelectPeers(n.rng, n.cfg.Fanout, n.cfg.Endpoint.Addr())
	n.sendShares(ctx, n.split(sends[:0], n.dropSuspects(peers), Share{
		TaskID: n.cfg.TaskID, From: n.cfg.Endpoint.Addr(),
	}))
}

func (n *SimNode) sendShares(ctx context.Context, sends []exchangeSend) {
	for _, s := range sends {
		if err := n.sendShare(ctx, s.to, s.share); err != nil {
			n.refused(s)
			continue
		}
		n.counters.sharesSent.Inc()
	}
}

// sendShare encodes and sends one windowed share.
func (n *SimNode) sendShare(ctx context.Context, to string, sh *Share) error {
	wire := simShare{
		Task:        n.cfg.TaskID,
		Function:    string(n.cfg.Func),
		Sum:         sh.Sum,
		Weight:      sh.Weight,
		HasExtremes: sh.HasExtremes,
		Min:         sh.Min,
		Max:         sh.Max,
		Epoch:       sh.Epoch,
		Seq:         sh.Seq,
	}
	body := appendSimShare(make([]byte, 0, encodeCap), &wire)
	return n.cfg.Endpoint.Send(ctx, transport.Message{To: to, Action: ActionSimExchange, Body: body})
}

func (n *SimNode) handleExchange(ctx context.Context, msg transport.Message) error {
	var sh simShare
	if err := decodeSimShare(msg.Body, &sh); err != nil {
		return err
	}
	if sh.Task != n.cfg.TaskID {
		return nil
	}
	share := Share{
		Sum:         sh.Sum,
		Weight:      sh.Weight,
		HasExtremes: sh.HasExtremes,
		Min:         sh.Min,
		Max:         sh.Max,
		Epoch:       sh.Epoch,
		Seq:         sh.Seq,
	}
	if n.cfg.Window == 0 {
		n.state.Absorb(share)
		return nil
	}
	ackEpoch := n.absorb(msg.From, &share)
	if msg.From == "" || msg.From == n.cfg.Endpoint.Addr() {
		return nil
	}
	ack := simAck{Task: n.cfg.TaskID, Epoch: ackEpoch, Seq: sh.Seq}
	body := appendSimAck(make([]byte, 0, 64), &ack)
	if err := n.cfg.Endpoint.Send(ctx, transport.Message{To: msg.From, Action: ActionSimExchangeAck, Body: body}); err != nil {
		n.counters.sendErrors.Inc()
		return nil
	}
	n.counters.acksSent.Inc()
	return nil
}

// handleAck hands one ack to the exchange, which commits the transfer —
// the commit point where MassError is defined to be zero — and rolls
// forward on a later epoch.
func (n *SimNode) handleAck(_ context.Context, msg transport.Message) error {
	if n.cfg.Window == 0 {
		return nil
	}
	var ack simAck
	if err := decodeSimAck(msg.Body, &ack); err != nil {
		return err
	}
	if ack.Task != n.cfg.TaskID {
		return nil
	}
	n.commit(ack.Seq, ack.Epoch)
	return nil
}
