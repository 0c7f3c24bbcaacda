package main

import (
	"time"

	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/simnet"
)

// streamApp is the synthetic workload behind city-storm, city-batch and
// town-chaos: a small DAG with one persistent stream per edge, re-attached
// after every move. It rebuilds, through the public API only, the unexported
// chain and pipeline apps of internal/experiments (RunSched, RunBatchAblation)
// — same component names, CPU requests, pins and demands — so rows in
// BENCH_sched.json / BENCH_batch.json describe the same populations.
type streamApp struct {
	graph *dag.Graph
	comps []string
	edges []appEdge

	env     *core.Env
	streams []simnet.FlowID
	live    []bool

	// attaches/attachErrs count AddStream calls and the ones the network
	// refused (an endpoint unplaced or unreachable while a fault is open).
	attaches, attachErrs int
}

// reattachDelay is how long an app waits before retrying a refused AddStream.
// Without faults no attach is ever refused, so the populations behave exactly
// like the experiments they mirror; under a fault storm the retry is what
// brings an edge back once both endpoints are placed and routable again.
const reattachDelay = 5 * time.Second

type appEdge struct {
	from, to int // indices into comps
	demand   float64
}

var _ core.Workload = (*streamApp)(nil)

// newChainApp mirrors experiments.newChainApp: src→mid→dst, 0.1 CPU each,
// both ends pinned so the chain always crosses the mesh and only mid moves.
func newChainApp(app string, demandMbps float64, pinSrc, pinDst string) *streamApp {
	a := &streamApp{graph: dag.NewGraph(app)}
	a.comps = []string{"src-" + app, "mid-" + app, "dst-" + app}
	a.graph.MustAddComponent(dag.Component{Name: a.comps[0], CPU: 0.1, Labels: dag.Pin(pinSrc)})
	a.graph.MustAddComponent(dag.Component{Name: a.comps[1], CPU: 0.1})
	a.graph.MustAddComponent(dag.Component{Name: a.comps[2], CPU: 0.1, Labels: dag.Pin(pinDst)})
	a.edges = []appEdge{{0, 1, demandMbps}, {1, 2, demandMbps}}
	a.finish()
	return a
}

// newPipeApp mirrors experiments.newPipeApp: in→f1→f2→f3→out plus two skip
// edges at 40 % demand; the pinned taps are free, the three stages cost
// 0.25 CPU each.
func newPipeApp(app string, demandMbps float64, pinSrc, pinDst string) *streamApp {
	a := &streamApp{graph: dag.NewGraph(app)}
	a.comps = []string{"in-" + app, "f1-" + app, "f2-" + app, "f3-" + app, "out-" + app}
	a.graph.MustAddComponent(dag.Component{Name: a.comps[0], Labels: dag.Pin(pinSrc)})
	a.graph.MustAddComponent(dag.Component{Name: a.comps[1], CPU: 0.25})
	a.graph.MustAddComponent(dag.Component{Name: a.comps[2], CPU: 0.25})
	a.graph.MustAddComponent(dag.Component{Name: a.comps[3], CPU: 0.25})
	a.graph.MustAddComponent(dag.Component{Name: a.comps[4], Labels: dag.Pin(pinDst)})
	skip := 0.4 * demandMbps
	a.edges = []appEdge{
		{0, 1, demandMbps}, {1, 2, demandMbps}, {2, 3, demandMbps}, {3, 4, demandMbps},
		{0, 2, skip}, {2, 4, skip},
	}
	a.finish()
	return a
}

func (a *streamApp) finish() {
	for _, e := range a.edges {
		a.graph.MustAddEdge(a.comps[e.from], a.comps[e.to], e.demand)
	}
	a.streams = make([]simnet.FlowID, len(a.edges))
	a.live = make([]bool, len(a.edges))
}

func (a *streamApp) Graph() *dag.Graph { return a.graph }

func (a *streamApp) attach(i int) {
	e := a.edges[i]
	from, to := a.comps[e.from], a.comps[e.to]
	a.attaches++
	id, err := a.env.Net().AddStream(a.env.Tag(from, to), a.env.NodeOf(from), a.env.NodeOf(to), e.demand)
	if err != nil {
		a.attachErrs++
		a.reattach(i, reattachDelay)
		return
	}
	a.streams[i], a.live[i] = id, true
}

func (a *streamApp) reattach(i int, after time.Duration) {
	a.env.Engine().After(after, func() {
		if !a.live[i] {
			a.attach(i)
		}
	})
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
		if component != a.comps[e.from] && component != a.comps[e.to] {
			continue
		}
		if a.live[i] {
			_ = env.Net().RemoveStream(a.streams[i]) // already gone if the app was shed
			a.live[i] = false
		}
		a.reattach(i, downtime)
	}
}
