package socialnet

import (
	"fmt"
	"sort"
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/simnet"
	"bass/internal/workload"
)

// Config describes the social-network deployment and workload.
type Config struct {
	// AppName names the deployment (defaults to "socialnet").
	AppName string
	// ClientNode pins the load generator to a mesh node.
	ClientNode string
	// Arrival is the request process (e.g. workload.Constant{PerSecond: 50}).
	Arrival workload.Arrival
	// PeakFactor scales observed traffic into the profiled bandwidth
	// requirement written on DAG edges (default 1.6): requirements leave
	// burst room above the average rate.
	PeakFactor float64
	// ProfileRPS is the request rate the offline profiling ran at; DAG edge
	// weights are computed for it. Defaults to the arrival rate.
	ProfileRPS float64
}

func (c Config) withDefaults() (Config, error) {
	if c.AppName == "" {
		c.AppName = "socialnet"
	}
	if c.ClientNode == "" {
		return c, fmt.Errorf("socialnet: ClientNode is required")
	}
	if c.Arrival == nil {
		c.Arrival = workload.Constant{PerSecond: 50}
	}
	if c.PeakFactor == 0 {
		c.PeakFactor = 1.6
	}
	if c.ProfileRPS == 0 {
		c.ProfileRPS = c.Arrival.Rate()
	}
	return c, nil
}

// channel is the runtime state of one caller→callee RPC channel. Requests
// and responses load opposite link directions, so each side is a separate
// aggregate stream.
type channel struct {
	key edgeKey
	// msgsPerSec derives from the request mix at the current arrival rate;
	// reqBitsPerMsg / respBitsPerMsg are mean per-RPC message sizes.
	msgsPerSec     float64
	reqBitsPerMsg  float64
	respBitsPerMsg float64

	reqStream  simnet.FlowID
	respStream simnet.FlowID
	hasReq     bool
	hasResp    bool
}

func (ch *channel) offeredReqMbps() float64 {
	return ch.msgsPerSec * ch.reqBitsPerMsg / 1e6
}

func (ch *channel) offeredRespMbps() float64 {
	return ch.msgsPerSec * ch.respBitsPerMsg / 1e6
}

// App is the deployable social-network workload.
type App struct {
	cfg   Config
	graph *dag.Graph

	env      *core.Env
	channels map[edgeKey]*channel
	svcTime  map[string]time.Duration
	types    []requestType

	downUntil map[string]time.Duration
	latency   *workload.LatencyRecorder
	byType    map[string]*workload.LatencyRecorder
	stopGen   func()
	requests  int
}

var _ core.Workload = (*App)(nil)

// New builds the social-network workload.
func New(cfg Config) (*App, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &App{
		cfg:       cfg,
		channels:  make(map[edgeKey]*channel),
		svcTime:   make(map[string]time.Duration),
		types:     requestTypes(),
		downUntil: make(map[string]time.Duration),
		latency:   workload.NewLatencyRecorder(time.Second),
		byType:    make(map[string]*workload.LatencyRecorder),
	}
	for _, rt := range a.types {
		a.byType[rt.name] = workload.NewLatencyRecorder(time.Second)
	}

	g := dag.NewGraph(cfg.AppName)
	if err := g.AddComponent(dag.Component{
		Name:   ClientComponent,
		Labels: dag.Pin(cfg.ClientNode),
	}); err != nil {
		return nil, err
	}
	for _, s := range services() {
		a.svcTime[s.name] = s.svcTime
		if err := g.AddComponent(dag.Component{
			Name:     s.name,
			CPU:      s.cpu,
			MemoryMB: s.memMB,
		}); err != nil {
			return nil, err
		}
	}

	rate := cfg.Arrival.Rate()
	loads := aggregateLoads()
	// Sorted (from, to) order: AddEdge order is Graph.Edges() order, which the
	// orchestrator's per-edge scratch and metric emission inherit, so map
	// order here would make identical runs differ.
	keys := make([]edgeKey, 0, len(loads))
	for key := range loads {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, key := range keys {
		load := loads[key]
		ch := &channel{
			key:        key,
			msgsPerSec: load.msgsPerReq * rate,
		}
		if load.msgsPerReq > 0 {
			ch.reqBitsPerMsg = load.reqKBPerReq / load.msgsPerReq * 8e3
			ch.respBitsPerMsg = load.respKBPerReq / load.msgsPerReq * 8e3
		}
		a.channels[key] = ch
		// DAG edge weight: profiled requirement at ProfileRPS with burst
		// headroom, covering both directions (the pair's total traffic).
		perMsgBits := (load.reqKBPerReq + load.respKBPerReq) / load.msgsPerReq * 8e3
		reqMbps := cfg.PeakFactor * load.msgsPerReq * cfg.ProfileRPS * perMsgBits / 1e6
		if err := g.AddEdge(key.from, key.to, reqMbps); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	a.graph = g
	return a, nil
}

// Graph returns the component DAG (28 vertices: 27 services + the pinned
// load generator).
func (a *App) Graph() *dag.Graph { return a.graph }

// Start registers the channel streams and begins generating requests.
func (a *App) Start(env *core.Env) error {
	a.env = env
	for _, ch := range a.channels {
		if err := a.attachChannel(ch); err != nil {
			return err
		}
	}
	a.scheduleNext()
	return nil
}

// attachChannel (re)creates the channel's network streams for the current
// placement: one carrying requests caller→callee, one carrying responses
// callee→caller.
func (a *App) attachChannel(ch *channel) error {
	a.detachChannel(ch)
	from := a.env.NodeOf(ch.key.from)
	to := a.env.NodeOf(ch.key.to)
	if from == "" || to == "" || from == to {
		return nil // co-located channels put no load on the mesh
	}
	tag := a.env.Tag(ch.key.from, ch.key.to)
	if ch.offeredReqMbps() > 0 {
		id, err := a.env.Net().AddStream(tag, from, to, ch.offeredReqMbps())
		if err != nil {
			return fmt.Errorf("socialnet: channel %s->%s: %w", ch.key.from, ch.key.to, err)
		}
		ch.reqStream, ch.hasReq = id, true
	}
	if ch.offeredRespMbps() > 0 {
		id, err := a.env.Net().AddStream(tag, to, from, ch.offeredRespMbps())
		if err != nil {
			return fmt.Errorf("socialnet: channel %s->%s responses: %w", ch.key.from, ch.key.to, err)
		}
		ch.respStream, ch.hasResp = id, true
	}
	return nil
}

// detachChannel removes the channel's streams.
func (a *App) detachChannel(ch *channel) {
	if ch.hasReq {
		_ = a.env.Net().RemoveStream(ch.reqStream)
		ch.hasReq = false
	}
	if ch.hasResp {
		_ = a.env.Net().RemoveStream(ch.respStream)
		ch.hasResp = false
	}
}

// OnMigration reroutes the moved component's channels: its traffic drops
// during the restart and re-attaches on the new node afterwards.
func (a *App) OnMigration(env *core.Env, component, fromNode, toNode string, downtime time.Duration) {
	until := env.Now() + downtime
	a.downUntil[component] = until
	for _, ch := range a.channels {
		if ch.key.from != component && ch.key.to != component {
			continue
		}
		a.detachChannel(ch)
	}
	env.Engine().At(until, func() {
		if env.Now() < a.downUntil[component] {
			return // superseded by a newer migration
		}
		for _, ch := range a.channels {
			if ch.key.from == component || ch.key.to == component {
				_ = a.attachChannel(ch)
			}
		}
	})
}

// Stop halts request generation.
func (a *App) Stop() {
	if a.stopGen != nil {
		a.stopGen()
		a.stopGen = nil
	}
}

func (a *App) scheduleNext() {
	gap := a.cfg.Arrival.Next(a.env.Engine().Rand())
	stopped := false
	a.stopGen = func() { stopped = true }
	a.env.Engine().After(gap, func() {
		if stopped {
			return
		}
		a.serveRequest()
		a.scheduleNext()
	})
}

// serveRequest samples a request type, computes its end-to-end latency from
// the current network state, and records it.
func (a *App) serveRequest() {
	a.requests++
	r := a.env.Engine().Rand().Float64()
	rt := a.types[len(a.types)-1]
	for _, t := range a.types {
		if r < t.frac {
			rt = t
			break
		}
		r -= t.frac
	}
	lat := a.requestLatency(rt)
	now := a.env.Now()
	a.latency.Observe(now, lat)
	a.byType[rt.name].Observe(now, lat)
}

// requestLatency evaluates the sequential RPC chain of a request under the
// current placement, allocations, queue backlogs, and component downtimes.
func (a *App) requestLatency(rt requestType) time.Duration {
	var lat time.Duration
	waited := make(map[string]bool)
	now := a.env.Now()
	for _, h := range rt.hops {
		if h.async {
			continue
		}
		// A restarting callee stalls the request until it is back.
		if until, down := a.downUntil[h.to]; down && now < until && !waited[h.to] {
			lat += until - now
			waited[h.to] = true
		}
		lat += a.hopLatency(h)
	}
	return lat
}

// hopLatency models one RPC over its channel: round-trip propagation, an
// M/M/1 sojourn per direction whose service rate is the bandwidth a message
// burst attains on that directed path, and the callee's compute time.
// Saturated directions fall back to transmission at the attainable rate plus
// the fluid queue backlog — tc-style egress throttling therefore penalises
// exactly the direction it shapes.
func (a *App) hopLatency(h hop) time.Duration {
	ch := a.channels[edgeKey{from: h.from, to: h.to}]
	svc := a.svcTime[h.to]
	fromNode := a.env.NodeOf(h.from)
	toNode := a.env.NodeOf(h.to)
	msgBits := (h.reqKB + h.respKB) * 8e3

	if fromNode == "" || toNode == "" || fromNode == toNode {
		local := time.Duration(msgBits / (simnet.LocalMbps * 1e6) * float64(time.Second))
		return local + svc
	}

	prop, err := a.env.Net().PathLatencyOf(fromNode, toNode)
	if err != nil {
		prop = 0
	}
	rtt := 2 * prop

	var lambda float64
	if ch != nil {
		lambda = ch.msgsPerSec
	}
	wait := a.directionWait(fromNode, toNode, lambda, chReqBits(ch, h), streamRateOf(a, ch, true))
	wait += a.directionWait(toNode, fromNode, lambda, chRespBits(ch, h), streamRateOf(a, ch, false))
	return rtt + wait + svc
}

// chReqBits returns the channel's mean request size, defaulting to the hop's.
func chReqBits(ch *channel, h hop) float64 {
	if ch != nil && ch.reqBitsPerMsg > 0 {
		return ch.reqBitsPerMsg
	}
	return h.reqKB * 8e3
}

// chRespBits returns the channel's mean response size, defaulting to the
// hop's.
func chRespBits(ch *channel, h hop) float64 {
	if ch != nil && ch.respBitsPerMsg > 0 {
		return ch.respBitsPerMsg
	}
	return h.respKB * 8e3
}

// streamRateOf reads the current allocation of one of the channel's streams.
func streamRateOf(a *App, ch *channel, req bool) float64 {
	if ch == nil {
		return 0
	}
	var id simnet.FlowID
	switch {
	case req && ch.hasReq:
		id = ch.reqStream
	case !req && ch.hasResp:
		id = ch.respStream
	default:
		return 0
	}
	r, err := a.env.Net().StreamRate(id)
	if err != nil {
		return 0
	}
	return r
}

// directionWait is the M/M/1 sojourn of one message direction.
func (a *App) directionWait(srcNode, dstNode string, lambda, meanBits, ownMbps float64) time.Duration {
	if meanBits <= 0 {
		return 0
	}
	spare, err := a.env.Net().PathAllocatedMbps(srcNode, dstNode, simnet.LocalMbps)
	if err != nil {
		spare = 0
	}
	burstBps := (spare + ownMbps) * 1e6
	const minBps = 1e3 // a starved channel still trickles
	if burstBps < minBps {
		burstBps = minBps
	}
	mu := burstBps / meanBits
	if mu > lambda*1.02 {
		return time.Duration(1 / (mu - lambda) * float64(time.Second))
	}
	// Saturated: transmission at the attainable rate plus queue drain.
	q, qerr := a.env.Net().PathQueueDelay(srcNode, dstNode)
	if qerr != nil {
		q = 0
	}
	return time.Duration(meanBits/burstBps*float64(time.Second)) + q
}

// Latency returns the all-requests latency recorder.
func (a *App) Latency() *workload.LatencyRecorder { return a.latency }

// LatencyByType returns the per-request-type recorder.
func (a *App) LatencyByType(name string) (*workload.LatencyRecorder, error) {
	r, ok := a.byType[name]
	if !ok {
		return nil, fmt.Errorf("socialnet: unknown request type %q", name)
	}
	return r, nil
}

// Requests reports how many requests were served.
func (a *App) Requests() int { return a.requests }
