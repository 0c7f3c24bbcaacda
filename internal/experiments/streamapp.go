package experiments

import (
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/simnet"
)

// streamApp is the synthetic workload of the batchablation experiment: a DAG
// with one persistent stream per edge, each re-attached `downtime` after
// either of its endpoints moves. Streams attach in edge-list order, which
// fixes their flow ids.
type streamApp struct {
	graph *dag.Graph
	edges []streamEdge

	env     *core.Env
	streams []simnet.FlowID
	live    []bool
}

// streamEdge is one DAG edge: its endpoint components and stream demand.
type streamEdge struct {
	from, to string
	mbps     float64
}

var _ core.Workload = (*streamApp)(nil)

func newStreamApp(app string, comps []dag.Component, edges []streamEdge) *streamApp {
	a := &streamApp{
		graph:   dag.NewGraph(app),
		edges:   edges,
		streams: make([]simnet.FlowID, len(edges)),
		live:    make([]bool, len(edges)),
	}
	for _, c := range comps {
		a.graph.MustAddComponent(c)
	}
	for _, e := range edges {
		a.graph.MustAddEdge(e.from, e.to, e.mbps)
	}
	return a
}

// newPipeApp is the placement-ablation workload: a five-component pipeline
// in→f1→f2→f3→out with two skip edges (in→f2, f2→out at 40% of the main
// demand), endpoints pinned, middles movable. The skip edges give the joint
// search real trade-offs: no single chain ordering satisfies every edge, so
// placement quality — not ordering luck — decides goodput.
//
// The pinned endpoints are ingress/egress taps — where the user's traffic
// enters and leaves the mesh — and consume no orchestrated compute, so a pin
// can never fail to fit. All capacity pressure lives on the movable middle
// stages: the placement decision actually under ablation.
func newPipeApp(app string, demandMbps float64, pinSrc, pinDst string) *streamApp {
	in, f1, f2, f3, out := "in-"+app, "f1-"+app, "f2-"+app, "f3-"+app, "out-"+app
	skip := 0.4 * demandMbps
	return newStreamApp(app, []dag.Component{
		{Name: in, Labels: dag.Pin(pinSrc)},
		{Name: f1, CPU: 0.25},
		{Name: f2, CPU: 0.25},
		{Name: f3, CPU: 0.25},
		{Name: out, Labels: dag.Pin(pinDst)},
	}, []streamEdge{
		{in, f1, demandMbps}, {f1, f2, demandMbps}, {f2, f3, demandMbps}, {f3, out, demandMbps},
		{in, f2, skip}, {f2, out, skip},
	})
}

func (a *streamApp) Graph() *dag.Graph { return a.graph }

func (a *streamApp) attach(i int) {
	e := a.edges[i]
	id, err := a.env.Net().AddStream(a.env.Tag(e.from, e.to),
		a.env.NodeOf(e.from), a.env.NodeOf(e.to), e.mbps)
	if err != nil {
		return // endpoint missing (e.g. parked by failover): retry on next move
	}
	a.streams[i], a.live[i] = id, true
}

func (a *streamApp) Start(env *core.Env) error {
	a.env = env
	for i := range a.edges {
		a.attach(i)
	}
	return nil
}

func (a *streamApp) OnMigration(env *core.Env, component, fromNode, toNode string, downtime time.Duration) {
	for i, e := range a.edges {
		if component != e.from && component != e.to {
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

// measure reports (achieved, required) bandwidth over the app's edges and how
// many of them cross nodes under the final placement.
func (a *streamApp) measure() (achieved, required float64, cross int) {
	for i, e := range a.edges {
		required += e.mbps
		if a.live[i] {
			if rate, err := a.env.Net().StreamRate(a.streams[i]); err == nil {
				achieved += min(rate, e.mbps)
			}
		}
		if a.env.NodeOf(e.from) != a.env.NodeOf(e.to) {
			cross++
		}
	}
	return achieved, required, cross
}
