package socialnet

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/simnet"
	"bass/internal/workload"
)

// The deployment's fixed parameters.
const (
	// appName names the deployment.
	appName = "socialnet"
	// peakFactor scales observed traffic into the profiled bandwidth
	// requirement written on DAG edges: requirements leave burst room above
	// the average rate.
	peakFactor = 1.6
)

// Config describes the social-network deployment and workload.
type Config struct {
	// ClientNode pins the load generator to a mesh node.
	ClientNode string
	// Arrival is the request process (e.g. workload.Constant{PerSecond: 50}).
	Arrival workload.Arrival
	// ProfileRPS is the request rate the offline profiling ran at; DAG edge
	// weights are computed for it. Defaults to the arrival rate.
	ProfileRPS float64
}

func (c Config) withDefaults() (Config, error) {
	if c.ClientNode == "" {
		return c, fmt.Errorf("socialnet: ClientNode is required")
	}
	if c.Arrival == nil {
		c.Arrival = workload.Constant{PerSecond: 50}
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

	env *core.Env
	// channels lists every caller→callee channel in sorted (from, to) order,
	// the order streams are attached in, so equal seeds assign equal FlowIDs.
	channels []*channel
	types    []requestType

	// components names the dense component indices hops carry: the load
	// generator, then the services in declaration order. nodes[i] is where
	// components[i] runs, refreshed when the cluster's placement epoch moves
	// (nodesEpoch) — migrations, evictions and failovers all move components.
	components []string
	nodes      []string
	nodesEpoch uint64
	// downUntil[i] is when component i finishes its restart (zero: never
	// restarted). waited[i] == stamp marks a stall already charged to the
	// request in flight; stamp advances per request.
	downUntil []time.Duration
	waited    []uint64
	stamp     uint64

	latency  *workload.LatencyRecorder
	byType   []*workload.LatencyRecorder // indexed like types
	requests int
	// arrive serves one request and schedules the next arrival; built once
	// in Start, so an arrival allocates no closure.
	arrive func()

	// hopEvals counts hops whose latency was computed, hopHits those served
	// from their memo.
	hopEvals, hopHits uint64
}

var _ core.Workload = (*App)(nil)

// New builds the social-network workload.
func New(cfg Config) (*App, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &App{
		cfg:        cfg,
		types:      requestTypes(),
		components: []string{clientComponent},
		latency:    workload.NewLatencyRecorder(time.Second),
	}
	for range a.types {
		a.byType = append(a.byType, workload.NewLatencyRecorder(time.Second))
	}

	g := dag.NewGraph(appName)
	if err := g.AddComponent(dag.Component{
		Name:   clientComponent,
		Labels: dag.Pin(cfg.ClientNode),
	}); err != nil {
		return nil, err
	}
	svcTime := make(map[string]time.Duration)
	for _, s := range services() {
		a.components = append(a.components, s.name)
		svcTime[s.name] = s.svcTime
		if err := g.AddComponent(dag.Component{
			Name:     s.name,
			CPU:      s.cpu,
			MemoryMB: s.memMB,
		}); err != nil {
			return nil, err
		}
	}
	a.nodes = make([]string, len(a.components))
	a.downUntil = make([]time.Duration, len(a.components))
	a.waited = make([]uint64, len(a.components))

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
	byKey := make(map[edgeKey]*channel, len(keys))
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
		a.channels = append(a.channels, ch)
		byKey[key] = ch
		// DAG edge weight: profiled requirement at ProfileRPS with burst
		// headroom, covering both directions (the pair's total traffic).
		perMsgBits := (load.reqKBPerReq + load.respKBPerReq) / load.msgsPerReq * 8e3
		reqMbps := peakFactor * load.msgsPerReq * cfg.ProfileRPS * perMsgBits / 1e6
		if err := g.AddEdge(key.from, key.to, reqMbps); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	a.graph = g

	// Every hop's channel exists: aggregateLoads folds these very hops.
	for t := range a.types {
		for i := range a.types[t].hops {
			h := &a.types[t].hops[i]
			h.ch = byKey[edgeKey{from: h.from, to: h.to}]
			h.svc = svcTime[h.to]
			h.fromIdx = slices.Index(a.components, h.from)
			h.toIdx = slices.Index(a.components, h.to)
		}
	}
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
	a.arrive = func() {
		a.serveRequest()
		a.scheduleNext()
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
	c := slices.Index(a.components, component)
	if c < 0 {
		return // not one of ours: no channel touches it
	}
	until := env.Now() + downtime
	a.downUntil[c] = until
	for _, ch := range a.channels {
		if ch.key.from == component || ch.key.to == component {
			a.detachChannel(ch)
		}
	}
	env.Engine().At(until, func() {
		if env.Now() < a.downUntil[c] {
			return // superseded by a newer migration
		}
		for _, ch := range a.channels {
			if ch.key.from == component || ch.key.to == component {
				_ = a.attachChannel(ch)
			}
		}
	})
}

func (a *App) scheduleNext() {
	gap := a.cfg.Arrival.Next(a.env.Engine().Rand())
	a.env.Engine().After(gap, a.arrive)
}

// serveRequest samples a request type, computes its end-to-end latency from
// the current network state, and records it.
func (a *App) serveRequest() {
	a.requests++
	r := a.env.Engine().Rand().Float64()
	k := len(a.types) - 1
	for i, t := range a.types {
		if r < t.frac {
			k = i
			break
		}
		r -= t.frac
	}
	lat := a.requestLatency(&a.types[k])
	now := a.env.Now()
	a.latency.Observe(now, lat)
	a.byType[k].Observe(now, lat)
}

// syncNodes refreshes the component→node table if any placement changed
// since it was built.
func (a *App) syncNodes() {
	ep := a.env.PlacementEpoch()
	if ep == a.nodesEpoch {
		return
	}
	a.nodesEpoch = ep
	for i, c := range a.components {
		a.nodes[i] = a.env.NodeOf(c)
	}
}

// requestLatency evaluates the sequential RPC chain of a request under the
// current placement, allocations, queue backlogs, and component downtimes.
// A hop's latency moves only with the placement, the network's rate epoch
// and, for a saturated direction, the queue backlog, so an unsaturated hop
// is computed once per (placement epoch, rate epoch) and read from its memo
// until either moves; downtime stays per request.
func (a *App) requestLatency(rt *requestType) time.Duration {
	a.syncNodes()
	rates := a.env.Net().RateEpoch()
	a.stamp++
	var lat time.Duration
	now := a.env.Now()
	for i := range rt.hops {
		h := &rt.hops[i]
		if h.async {
			continue
		}
		// A restarting callee stalls the request until it is back.
		if until := a.downUntil[h.toIdx]; now < until && a.waited[h.toIdx] != a.stamp {
			lat += until - now
			a.waited[h.toIdx] = a.stamp
		}
		if h.memoOK && h.memoNodes == a.nodesEpoch && h.memoRate == rates {
			a.hopHits++
			lat += h.memo
			continue
		}
		a.hopEvals++
		d, saturated := a.hopLatency(h)
		h.memoOK, h.memoNodes, h.memoRate, h.memo = !saturated, a.nodesEpoch, rates, d
		lat += d
	}
	return lat
}

// hopLatency models one RPC over its channel: round-trip propagation, an
// M/M/1 sojourn per direction whose service rate is the bandwidth a message
// burst attains on that directed path, and the callee's compute time.
// Saturated directions fall back to transmission at the attainable rate plus
// the fluid queue backlog — tc-style egress throttling therefore penalises
// exactly the direction it shapes. It reports whether either direction is
// saturated.
func (a *App) hopLatency(h *hop) (time.Duration, bool) {
	fromNode, toNode := a.nodes[h.fromIdx], a.nodes[h.toIdx]
	if fromNode == "" || toNode == "" || fromNode == toNode {
		msgBits := (h.reqKB + h.respKB) * 8e3
		local := time.Duration(msgBits / (simnet.LocalMbps * 1e6) * float64(time.Second))
		return local + h.svc, false
	}

	prop, err := a.env.Net().PathLatencyOf(fromNode, toNode)
	if err != nil {
		prop = 0
	}
	rtt := 2 * prop

	// The sojourns use the channel's mean message sizes; a zero size means no
	// hop on the channel sends that way, and directionWait reads it as 0.
	ch := h.ch
	reqWait, reqSat := a.directionWait(fromNode, toNode, ch.msgsPerSec, ch.reqBitsPerMsg, a.streamRate(ch.reqStream, ch.hasReq))
	respWait, respSat := a.directionWait(toNode, fromNode, ch.msgsPerSec, ch.respBitsPerMsg, a.streamRate(ch.respStream, ch.hasResp))
	return rtt + reqWait + respWait + h.svc, reqSat || respSat
}

// streamRate reads the current allocation of one of a channel's streams (0
// while it is detached).
func (a *App) streamRate(id simnet.FlowID, attached bool) float64 {
	if !attached {
		return 0
	}
	r, err := a.env.Net().StreamRate(id)
	if err != nil {
		return 0
	}
	return r
}

// directionWait is the M/M/1 sojourn of one message direction, and whether
// the direction is saturated.
func (a *App) directionWait(srcNode, dstNode string, lambda, meanBits, ownMbps float64) (time.Duration, bool) {
	if meanBits <= 0 {
		return 0, false
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
		return time.Duration(1 / (mu - lambda) * float64(time.Second)), false
	}
	// Saturated: transmission at the attainable rate plus queue drain.
	q, qerr := a.env.Net().PathQueueDelay(srcNode, dstNode)
	if qerr != nil {
		q = 0
	}
	return time.Duration(meanBits/burstBps*float64(time.Second)) + q, true
}

// Latency returns the all-requests latency recorder.
func (a *App) Latency() *workload.LatencyRecorder { return a.latency }

// LatencyByType returns the per-request-type recorder.
func (a *App) LatencyByType(name string) (*workload.LatencyRecorder, error) {
	for i, t := range a.types {
		if t.name == name {
			return a.byType[i], nil
		}
	}
	return nil, fmt.Errorf("socialnet: unknown request type %q", name)
}

// Requests reports how many requests were served.
func (a *App) Requests() int { return a.requests }
