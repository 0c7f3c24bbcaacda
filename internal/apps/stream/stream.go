// Package stream is the synthetic workload of the paper's Fig 8 and of the
// placement and alerting experiments: a DAG whose every edge carries one
// persistent stream at its bandwidth requirement, detached while either
// endpoint migrates and re-attached after the downtime. A producer→consumer
// pair is the one-edge case.
package stream

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/metrics"
	"bass/internal/simnet"
)

// Config is one stream application, a scenario's "stream" entry. Edges
// attach in list order, which fixes their flow ids. SampleGoodput records
// the achieved/required fraction every second (Goodput).
type Config struct {
	Name          string      `json:"name"`
	Components    []Component `json:"components"`
	Edges         []Edge      `json:"edges"`
	SampleGoodput bool        `json:"sampleGoodput,omitempty"`
}

// Component is a DAG vertex requesting CPU cores, pinned to Pin when set.
type Component struct {
	Name string  `json:"name"`
	CPU  float64 `json:"cpu,omitempty"`
	Pin  string  `json:"pin,omitempty"`
}

// Edge is one stream of Mbps from From to To.
type Edge struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Mbps float64 `json:"mbps"`
}

// App is a deployable stream application.
type App struct {
	graph   *dag.Graph
	edges   []Edge
	goodput *metrics.TimeSeries // nil unless sampled
	env     *core.Env
	streams []simnet.FlowID
	live    []bool
}

// New builds the application's DAG. It rejects an empty name, a duplicate or
// unknown component, a negative CPU or bandwidth, a cycle, and goodput
// sampling with nothing demanded.
func New(c Config) (*App, error) {
	var err error
	if c.Name == "" {
		err = errors.New("empty name")
	}
	g := dag.NewGraph(c.Name)
	for _, comp := range c.Components {
		d := dag.Component{Name: comp.Name, CPU: comp.CPU}
		if comp.Pin != "" {
			d.Labels = dag.Pin(comp.Pin)
		}
		err = cmp.Or(err, g.AddComponent(d))
	}
	demand := 0.0
	for _, e := range c.Edges {
		demand += e.Mbps
		err = cmp.Or(err, g.AddEdge(e.From, e.To, e.Mbps))
	}
	if c.SampleGoodput && demand == 0 {
		err = cmp.Or(err, errors.New("sampleGoodput needs a positive demand"))
	}
	if err = cmp.Or(err, g.Validate()); err != nil {
		return nil, fmt.Errorf("stream %q: %w", c.Name, err)
	}
	a := &App{graph: g, edges: c.Edges, streams: make([]simnet.FlowID, len(c.Edges)), live: make([]bool, len(c.Edges))}
	if c.SampleGoodput {
		a.goodput = metrics.NewTimeSeries(0)
	}
	return a, nil
}

func (a *App) Graph() *dag.Graph { return a.graph }

// Start attaches every edge's stream and, with SampleGoodput, starts the
// per-second sampler.
func (a *App) Start(env *core.Env) error {
	a.env = env
	for i := range a.edges {
		a.attach(i)
	}
	if a.goodput != nil {
		env.Engine().Every(time.Second, a.sample)
	}
	return nil
}

func (a *App) attach(i int) {
	e := a.edges[i]
	id, err := a.env.Net().AddStream(a.env.Tag(e.From, e.To), a.env.NodeOf(e.From), a.env.NodeOf(e.To), e.Mbps)
	if err == nil { // else unreachable or parked by failover: retried on the next move
		a.streams[i], a.live[i] = id, true
	}
}

func (a *App) OnMigration(env *core.Env, component, fromNode, toNode string, downtime time.Duration) {
	for i, e := range a.edges {
		if component != e.From && component != e.To {
			continue
		}
		if a.live[i] {
			_ = env.Net().RemoveStream(a.streams[i])
			a.live[i] = false
		}
		env.Engine().After(downtime, func() {
			if !a.live[i] {
				a.attach(i)
			}
		})
	}
}

// Goodput is the achieved/required fraction Measure reads each second; nil
// unless the config set SampleGoodput.
func (a *App) Goodput() *metrics.TimeSeries { return a.goodput }

func (a *App) sample() {
	achieved, required, _ := a.Measure()
	a.goodput.Append(a.env.Now(), achieved/required)
}

// Measure reports the achieved and required bandwidth over the edges now,
// each edge's achieved rate capped at its demand and 0 while detached, and
// how many edges cross nodes under the current placement.
func (a *App) Measure() (achieved, required float64, cross int) {
	for i, e := range a.edges {
		required += e.Mbps
		if a.live[i] {
			rate, _ := a.env.Net().StreamRate(a.streams[i])
			achieved += min(rate, e.Mbps)
		}
		if a.env.NodeOf(e.From) != a.env.NodeOf(e.To) {
			cross++
		}
	}
	return achieved, required, cross
}
