package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// Node indices: the coordinator, then the initiator or querier, then the
// N participants.
const (
	nodeCoord = 0
	nodeHead  = 1
	nodeFirst = 2
)

// nodeSeed derives a node's RNG seed from the workload seed and the node's
// logical name, the way wsgossip-node derives one from its address (its
// scheduleSeed). Logical names stand in for addresses because loopback
// ports differ from run to run; the per-component offsets match the binary
// (coordinator +0, disseminator +1, aggregation +2, delivery plane +4).
func nodeSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

func nodeRNG(seed int64, name string, offset int64) *rand.Rand {
	return rand.New(rand.NewSource(nodeSeed(seed, name) + offset))
}

// clusterSpec sizes one cluster.
type clusterSpec struct {
	http  bool // loopback HTTP listeners (else one soap.MemBus)
	n     int  // participants
	plane bool // participants send through a delivery.Plane (HTTP only)
	agg   bool // aggregation participants + querier instead of gossip roles
}

// cluster is one set of wsgossip-node-shaped stacks in this process.
type cluster struct {
	seed  int64
	names []string
	addrs []string
	regs  []*metrics.Registry
	c     tapCounters

	coord  *core.Coordinator
	init   *core.Initiator
	apps   []*app
	planes []*delivery.Plane

	// HTTP binding.
	servers    []*http.Server
	transports []*http.Transport

	// MemBus binding.
	bus   *soap.MemBus
	btr   *busTrace
	vc    *clock.Virtual
	svcs  []*aggregate.Service
	q     *aggregate.Querier
	win   *aggregate.Window
	loads []float64
}

// build boots the stacks and subscribes every participant; it does not
// activate anything.
func build(spec clusterSpec, seed int64, pool []string) (*cluster, error) {
	cl := &cluster{seed: seed}
	total := nodeFirst + spec.n
	cl.names = make([]string, total)
	cl.names[nodeCoord] = "coordinator"
	cl.names[nodeHead] = "initiator"
	if spec.agg {
		cl.names[nodeHead] = "querier"
	}
	for i := 0; i < spec.n; i++ {
		cl.names[nodeFirst+i] = fmt.Sprintf("node%03d", i)
	}
	cl.regs = make([]*metrics.Registry, total)
	for i := range cl.regs {
		cl.regs[i] = metrics.NewRegistry()
	}
	cl.addrs = make([]string, total)
	var listeners []net.Listener
	if spec.http {
		for i := range cl.addrs {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range listeners {
					l.Close()
				}
				return nil, err
			}
			listeners = append(listeners, l)
			cl.addrs[i] = "http://" + l.Addr().String() + "/"
		}
	} else {
		cl.bus = soap.NewMemBus()
		cl.btr = &busTrace{}
		for i, name := range cl.names {
			cl.addrs[i] = "mem://" + name
		}
	}
	// raw is each node's binding (tapped); callers is what its roles send
	// through (the plane, when on).
	raw := make([]*sendTap, total)
	callers := make([]soap.Caller, total)
	for i := range raw {
		if spec.http {
			t := newTransport(i, &cl.c)
			cl.transports = append(cl.transports, t)
			raw[i] = newSendTap(i, soap.NewHTTPClient(&http.Client{Timeout: 10 * time.Second, Transport: t}), &cl.c)
			raw[i].http = true
		} else {
			raw[i] = newSendTap(i, cl.bus, &cl.c)
			raw[i].bus = cl.btr
		}
		callers[i] = raw[i]
		// The coordinator never sends; the initiator publishes on its raw
		// binding (see NOTES.md: through a plane, Notify returns once the
		// copies are queued and the closed loop loses its backpressure).
		if spec.plane && i >= nodeFirst {
			link := &planeLink{m: make(map[linkKey]uint64)}
			raw[i].link = link
			p := delivery.NewPlane(delivery.Config{
				Caller:  raw[i],
				Clock:   clock.NewReal(),
				RNG:     nodeRNG(seed, cl.names[i], 4),
				Metrics: cl.regs[i],
			})
			cl.planes = append(cl.planes, p)
			callers[i] = &planeTap{node: i, plane: p, link: link, c: &cl.c}
		}
	}

	handlers := make([]soap.Handler, total)
	cl.coord = core.NewCoordinator(core.CoordinatorConfig{
		Address: cl.addrs[nodeCoord],
		RNG:     nodeRNG(seed, cl.names[nodeCoord], 0),
		Metrics: cl.regs[nodeCoord],
	})
	handlers[nodeCoord] = cl.coord.Handler()
	var err error
	if spec.agg {
		err = cl.buildAggregate(callers, handlers)
	} else {
		err = cl.buildGossip(callers, handlers, pool)
	}
	if err != nil {
		for _, l := range listeners {
			l.Close()
		}
		cl.close()
		return nil, err
	}
	for i, h := range handlers {
		tapped := &roleTap{node: i, addr: cl.addrs[i], inner: h, bus: cl.btr}
		if spec.http {
			srv := &http.Server{
				Handler:           &serveTap{node: i, inner: soap.NewHTTPServer(tapped), c: &cl.c},
				ReadHeaderTimeout: 5 * time.Second,
			}
			cl.servers = append(cl.servers, srv)
			go func(l net.Listener) { _ = srv.Serve(l) }(listeners[i])
		} else {
			cl.bus.Register(cl.addrs[i], tapped)
		}
	}

	// Subscribe every participant over the wire, on its raw binding as the
	// node binary does.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	protocols := []string{core.ProtocolPushGossip, core.ProtocolPullGossip}
	if spec.agg {
		protocols = []string{core.ProtocolAggregate}
	}
	subscribers := total - nodeFirst
	if spec.agg {
		subscribers++ // the querier exchanges shares too
	}
	for i := total - subscribers; i < total; i++ {
		if err := core.SubscribeClient(ctx, raw[i], cl.addrs[nodeCoord], cl.addrs[i], core.RoleDisseminator, protocols...); err != nil {
			cl.close()
			return nil, err
		}
	}
	return cl, nil
}

func (cl *cluster) buildGossip(callers []soap.Caller, handlers []soap.Handler, pool []string) error {
	init, err := core.NewInitiator(core.InitiatorConfig{
		Address:    cl.addrs[nodeHead],
		Caller:     callers[nodeHead],
		Activation: cl.addrs[nodeCoord],
		Metrics:    cl.regs[nodeHead],
	})
	if err != nil {
		return err
	}
	cl.init = init
	handlers[nodeHead] = soap.NewDispatcher()
	for i := nodeFirst; i < len(cl.addrs); i++ {
		a := &app{node: i, pool: pool}
		cl.apps = append(cl.apps, a)
		d, err := core.NewDisseminator(core.DisseminatorConfig{
			Address: cl.addrs[i],
			Caller:  callers[i],
			App:     a,
			RNG:     nodeRNG(cl.seed, cl.names[i], 1),
			Metrics: cl.regs[i],
		})
		if err != nil {
			return err
		}
		dispatcher := soap.NewDispatcher()
		d.RegisterActions(dispatcher)
		handlers[i] = dispatcher
	}
	return nil
}

// Continuous-query timing on the virtual clock, as in examples/clusterhealth:
// twenty exchange rounds per epoch. At ten (the ratio of wsgossip-node's
// defaults) a frozen count of 128 stacks was still more than 1% off.
const (
	aggEvery  = 25 * time.Millisecond
	aggWindow = 20 * aggEvery
)

func (cl *cluster) buildAggregate(callers []soap.Caller, handlers []soap.Handler) error {
	cl.vc = clock.NewVirtual()
	rng := rand.New(rand.NewSource(nodeSeed(cl.seed, "loads")))
	for i := nodeFirst; i < len(cl.addrs); i++ {
		load := float64(rng.Intn(10000)) / 100
		cl.loads = append(cl.loads, load)
		svc, err := aggregate.NewService(aggregate.ServiceConfig{
			Address: cl.addrs[i],
			Caller:  callers[i],
			Value:   func() float64 { return load },
			Values:  map[string]func() float64{"load": func() float64 { return load }},
			RNG:     nodeRNG(cl.seed, cl.names[i], 2),
			Metrics: cl.regs[i],
			Clock:   cl.vc,
		})
		if err != nil {
			return err
		}
		cl.svcs = append(cl.svcs, svc)
		handlers[i] = svc.Handler()
	}
	q, err := aggregate.NewQuerier(aggregate.QuerierConfig{
		Address:    cl.addrs[nodeHead],
		Caller:     callers[nodeHead],
		Activation: cl.addrs[nodeCoord],
		RNG:        nodeRNG(cl.seed, cl.names[nodeHead], 2),
		Metrics:    cl.regs[nodeHead],
		Clock:      cl.vc,
	})
	if err != nil {
		return err
	}
	cl.q = q
	handlers[nodeHead] = q.Handler()
	cl.win, err = aggregate.NewWindow(aggregate.WindowConfig{
		Querier: q,
		Window:  aggWindow,
		Queries: []aggregate.ContinuousQuery{
			{Name: "nodes", Func: aggregate.FuncCount},
			{Name: "load", Func: aggregate.FuncAvg},
		},
	})
	return err
}

// idle reports whether no delivery is queued, in flight, or being served.
func (cl *cluster) idle() bool {
	if cl.c.serving.Load() != 0 {
		return false
	}
	for _, p := range cl.planes {
		if st := p.Stats(); st.Queued != 0 || st.Inflight != 0 {
			return false
		}
	}
	return true
}

// drain waits until the cluster has been idle for a few consecutive polls.
func (cl *cluster) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	calm := 0
	for calm < 3 {
		if time.Now().After(deadline) {
			return false
		}
		if cl.idle() {
			calm++
		} else {
			calm = 0
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// close stops every server, plane, and idle connection the cluster owns.
func (cl *cluster) close() {
	for _, p := range cl.planes {
		p.Close()
	}
	for _, s := range cl.servers {
		_ = s.Close()
	}
	for _, t := range cl.transports {
		t.CloseIdleConnections()
	}
}

// counter sums one counter series over every node's registry.
func (cl *cluster) counter(name string) int64 {
	var sum int64
	for _, r := range cl.regs {
		sum += r.Counter(name).Value()
	}
	return sum
}
