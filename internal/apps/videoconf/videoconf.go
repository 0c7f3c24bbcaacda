// Package videoconf models the paper's video-conferencing workload: a Pion-
// like selective forwarding unit (SFU) that receives each participant's
// published stream and forwards it to every subscriber. The SFU is the only
// schedulable component; participants are pinned pseudo-components at their
// mesh nodes (they are user devices, not cluster workloads). The application
// is network-bound: the evaluation metric is the average download bitrate
// per client (§6.1).
package videoconf

import (
	"fmt"
	"sort"
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/metrics"
	"bass/internal/simnet"
)

// ServerComponent is the SFU component name.
const ServerComponent = "sfu"

// The conference's fixed parameters.
const (
	// appName names the deployment.
	appName = "videoconf"
	// serverCPU and serverMemoryMB are the SFU's resource requests.
	serverCPU      = 2
	serverMemoryMB = 1024
	// sampleInterval is the bitrate sampling period.
	sampleInterval = time.Second
)

// Config describes a conference.
type Config struct {
	// ClientsPerNode maps mesh node → number of participants there.
	ClientsPerNode map[string]int
	// PublishMbps is the bitrate of one published video stream (paper-scale
	// conferences run ~0.24-2 Mbps per stream).
	PublishMbps float64
	// Publishers limits how many participants share video; 0 means all do
	// (Fig 15b full-mesh mode). Fig 12 uses a single publisher.
	Publishers int
	// InitialNode optionally forces the SFU's first placement (the paper's
	// Fig 12 starts Pion on node 2); unlike a pin, the SFU stays migratable.
	// Apply it by deploying with core.Orchestrator.DeployAt and the
	// assignment from InitialAssignment.
	InitialNode string
}

func (c Config) withDefaults() Config {
	if c.PublishMbps == 0 {
		c.PublishMbps = 1.8
	}
	return c
}

type client struct {
	name string
	node string
	// publisher reports whether the client shares its video.
	publisher bool
	// subscriptions is the number of feeds the client receives by design;
	// clients with none (a lone publisher) are excluded from bitrate stats,
	// matching the paper's "participants receiving the video".
	subscriptions int
	// downstream subscriptions: one stream per publisher other than self.
	downstream []simnet.FlowID
	// upstream publish stream (publishers only).
	upstream simnet.FlowID
	hasUp    bool

	bitrate *metrics.TimeSeries
	loss    *metrics.TimeSeries
}

// App is a deployable conference workload. Create with New, deploy through
// core.Orchestrator.
type App struct {
	cfg     Config
	graph   *dag.Graph
	clients []*client

	env       *core.Env
	downUntil time.Duration
	downtimes []time.Duration // migration downtime windows observed
}

var _ core.Workload = (*App)(nil)

// New builds the conference from the config.
func New(cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	if len(cfg.ClientsPerNode) == 0 {
		return nil, fmt.Errorf("videoconf: no clients configured")
	}
	a := &App{cfg: cfg}

	g := dag.NewGraph(appName)
	server := dag.Component{
		Name:     ServerComponent,
		CPU:      serverCPU,
		MemoryMB: serverMemoryMB,
	}
	if err := g.AddComponent(server); err != nil {
		return nil, err
	}

	// Deterministic client enumeration: sorted node names.
	nodes := make([]string, 0, len(cfg.ClientsPerNode))
	for n := range cfg.ClientsPerNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	total := 0
	for _, n := range nodes {
		total += cfg.ClientsPerNode[n]
	}
	publishers := cfg.Publishers
	if publishers <= 0 || publishers > total {
		publishers = total
	}

	idx := 0
	for _, n := range nodes {
		for i := 0; i < cfg.ClientsPerNode[n]; i++ {
			c := &client{
				name:      fmt.Sprintf("client-%s-%d", n, i),
				node:      n,
				publisher: idx < publishers,
				bitrate:   metrics.NewTimeSeries(0),
				loss:      metrics.NewTimeSeries(0),
			}
			a.clients = append(a.clients, c)
			idx++
		}
	}

	// Each client subscribes to every publisher other than itself; the DAG
	// edge sfu→client carries the aggregate download requirement. (Uploads
	// are modelled as network streams but omitted from the DAG to keep it
	// acyclic; downloads dominate by a factor of publishers-1.)
	for _, c := range a.clients {
		subs := publishers
		if c.publisher {
			subs--
		}
		c.subscriptions = subs
		if err := g.AddComponent(dag.Component{
			Name:   c.name,
			Labels: dag.Pin(c.node),
		}); err != nil {
			return nil, err
		}
		if subs > 0 {
			if err := g.AddEdge(ServerComponent, c.name, float64(subs)*cfg.PublishMbps); err != nil {
				return nil, err
			}
		}
	}
	a.graph = g
	return a, nil
}

// Graph returns the component DAG.
func (a *App) Graph() *dag.Graph { return a.graph }

// InitialAssignment returns the deploy-time overrides implied by the config
// (the SFU's initial node, if set), for core.Orchestrator.DeployAt.
func (a *App) InitialAssignment() map[string]string {
	if a.cfg.InitialNode == "" {
		return nil
	}
	return map[string]string{ServerComponent: a.cfg.InitialNode}
}

// Start installs the conference's streams and the bitrate sampler.
func (a *App) Start(env *core.Env) error {
	a.env = env
	if err := a.connect(); err != nil {
		return err
	}
	env.Engine().Every(sampleInterval, a.sample)
	return nil
}

// connect establishes all publish and subscribe streams at current
// placement.
func (a *App) connect() error {
	serverNode := a.env.NodeOf(ServerComponent)
	if serverNode == "" {
		return fmt.Errorf("videoconf: sfu not placed")
	}
	net := a.env.Net()
	for _, c := range a.clients {
		if c.publisher {
			id, err := net.AddStream(a.env.Tag(c.name, ServerComponent), c.node, serverNode, a.cfg.PublishMbps)
			if err != nil {
				return fmt.Errorf("videoconf: publish %s: %w", c.name, err)
			}
			c.upstream, c.hasUp = id, true
		}
	}
	for _, c := range a.clients {
		for _, p := range a.clients {
			if p == c || !p.publisher {
				continue
			}
			id, err := net.AddStream(a.env.Tag(ServerComponent, c.name), serverNode, c.node, a.cfg.PublishMbps)
			if err != nil {
				return fmt.Errorf("videoconf: subscribe %s: %w", c.name, err)
			}
			c.downstream = append(c.downstream, id)
		}
	}
	return nil
}

// disconnect tears down every stream (server restart).
func (a *App) disconnect() {
	net := a.env.Net()
	for _, c := range a.clients {
		if c.hasUp {
			_ = net.RemoveStream(c.upstream)
			c.hasUp = false
		}
		for _, id := range c.downstream {
			_ = net.RemoveStream(id)
		}
		c.downstream = nil
	}
}

// OnMigration restarts the SFU on its new node: streams drop now and WebRTC
// connections re-establish after the downtime (the paper measures ~20-30 s).
func (a *App) OnMigration(env *core.Env, component, fromNode, toNode string, downtime time.Duration) {
	if component != ServerComponent {
		return
	}
	a.disconnect()
	a.downUntil = env.Now() + downtime
	a.downtimes = append(a.downtimes, downtime)
	env.Engine().At(a.downUntil, func() {
		// Reconnect only if no newer migration superseded this one.
		if env.Now() >= a.downUntil {
			_ = a.connect()
		}
	})
}

// sample records each client's download bitrate and loss.
func (a *App) sample() {
	now := a.env.Now()
	net := a.env.Net()
	for _, c := range a.clients {
		if c.subscriptions == 0 {
			continue
		}
		var rate, loss float64
		for _, id := range c.downstream {
			r, err := net.StreamRate(id)
			if err != nil {
				continue
			}
			rate += r
			l, err := net.StreamLoss(id)
			if err != nil {
				continue
			}
			loss += l
		}
		if n := len(c.downstream); n > 0 {
			loss /= float64(n)
		}
		c.bitrate.Append(now, rate)
		c.loss.Append(now, loss)
	}
}

// ClientBitrate returns the download bitrate series (Mbps) of one client.
func (a *App) ClientBitrate(name string) (*metrics.TimeSeries, error) {
	for _, c := range a.clients {
		if c.name == name {
			return c.bitrate, nil
		}
	}
	return nil, fmt.Errorf("videoconf: unknown client %q", name)
}

// ClientNames lists clients in creation order.
func (a *App) ClientNames() []string {
	out := make([]string, len(a.clients))
	for i, c := range a.clients {
		out[i] = c.name
	}
	return out
}

// NodeStats summarises the participants at one node.
type NodeStats struct {
	Node string
	// MeanBitrateMbps and MedianBitrateMbps aggregate all bitrate samples of
	// all clients at the node.
	MeanBitrateMbps   float64
	MedianBitrateMbps float64
	// MeanLossFrac is the average per-subscription loss fraction.
	MeanLossFrac float64
	Clients      int
}

// StatsByNode aggregates client bitrates per mesh node (Fig 15b's view).
func (a *App) StatsByNode() []NodeStats {
	byNode := make(map[string][]*client)
	var order []string
	for _, c := range a.clients {
		if _, ok := byNode[c.node]; !ok {
			order = append(order, c.node)
		}
		byNode[c.node] = append(byNode[c.node], c)
	}
	sort.Strings(order)
	out := make([]NodeStats, 0, len(order))
	for _, node := range order {
		var h metrics.Histogram
		var lossSum float64
		var lossN int
		for _, c := range byNode[node] {
			for _, p := range c.bitrate.Points() {
				h.Observe(p.Value)
			}
			for _, p := range c.loss.Points() {
				lossSum += p.Value
				lossN++
			}
		}
		s := NodeStats{Node: node, Clients: len(byNode[node])}
		s.MeanBitrateMbps = h.Mean()
		s.MedianBitrateMbps = h.Median()
		if lossN > 0 {
			s.MeanLossFrac = lossSum / float64(lossN)
		}
		out = append(out, s)
	}
	return out
}

// BitrateSeries returns the per-sample mean bitrate across clients over
// time.
func (a *App) BitrateSeries() *metrics.TimeSeries {
	var viewers []*client
	for _, c := range a.clients {
		if c.subscriptions > 0 {
			viewers = append(viewers, c)
		}
	}
	if len(viewers) == 0 {
		return metrics.NewTimeSeries(0)
	}
	base := viewers[0].bitrate.Points()
	out := metrics.NewTimeSeries(len(base))
	for i, p := range base {
		sum := 0.0
		n := 0
		for _, c := range viewers {
			pts := c.bitrate.Points()
			if i < len(pts) {
				sum += pts[i].Value
				n++
			}
		}
		if n > 0 {
			out.Append(p.At, sum/float64(n))
		}
	}
	return out
}
