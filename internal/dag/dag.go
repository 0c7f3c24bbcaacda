// Package dag models an application as a directed acyclic graph of
// components. Vertices carry CPU and memory requirements; edges carry the
// maximum bandwidth requirement between the two components (gathered through
// offline profiling, per §5 of the BASS paper). The package provides
// construction, validation, topological sorting, and traversal utilities the
// scheduling heuristics build on.
package dag

import (
	"errors"
	"fmt"
	"sort"
)

// Sentinel errors for graph validation and lookup.
var (
	errDuplicateComponent = errors.New("dag: duplicate component")
	errUnknownComponent   = errors.New("dag: unknown component")
	errSelfEdge           = errors.New("dag: self edge")
	errDuplicateEdge      = errors.New("dag: duplicate edge")
	errCycle              = errors.New("dag: graph contains a cycle")
	errEmptyGraph         = errors.New("dag: empty graph")
)

// Component is one deployable unit of an application.
type Component struct {
	// Name uniquely identifies the component within its application.
	Name string
	// CPU is the number of cores requested (fractional allowed).
	CPU float64
	// MemoryMB is the memory request in megabytes.
	MemoryMB float64
	// Labels carries free-form metadata from the deployment spec.
	Labels map[string]string
}

// Edge is a directed dependency: data flows From → To at up to BandwidthMbps.
type Edge struct {
	From string
	To   string
	// BandwidthMbps is the profiled maximum bandwidth requirement between
	// the two components, in megabits per second.
	BandwidthMbps float64
}

// Graph is an application component DAG. Construct with NewGraph and
// AddComponent/AddEdge; mutation is not safe for concurrent use.
type Graph struct {
	// AppName identifies the application.
	AppName string

	components map[string]*Component
	order      []string // insertion order, for deterministic iteration
	out        map[string][]Edge
	in         map[string][]Edge
}

// NewGraph returns an empty application graph.
func NewGraph(appName string) *Graph {
	return &Graph{
		AppName:    appName,
		components: make(map[string]*Component),
		out:        make(map[string][]Edge),
		in:         make(map[string][]Edge),
	}
}

// AddComponent adds a component to the graph.
func (g *Graph) AddComponent(c Component) error {
	if c.Name == "" {
		return fmt.Errorf("dag: component with empty name")
	}
	if _, ok := g.components[c.Name]; ok {
		return fmt.Errorf("%w: %q", errDuplicateComponent, c.Name)
	}
	cc := c
	if c.Labels != nil {
		cc.Labels = make(map[string]string, len(c.Labels))
		for k, v := range c.Labels {
			cc.Labels[k] = v
		}
	}
	g.components[c.Name] = &cc
	g.order = append(g.order, c.Name)
	return nil
}

// MustAddComponent adds a component and panics on error. Intended for
// statically known graphs in tests and examples.
func (g *Graph) MustAddComponent(c Component) {
	if err := g.AddComponent(c); err != nil {
		panic(err)
	}
}

// AddEdge adds a directed edge with a bandwidth requirement.
func (g *Graph) AddEdge(from, to string, bandwidthMbps float64) error {
	if from == to {
		return fmt.Errorf("%w: %q", errSelfEdge, from)
	}
	if _, ok := g.components[from]; !ok {
		return fmt.Errorf("%w: edge source %q", errUnknownComponent, from)
	}
	if _, ok := g.components[to]; !ok {
		return fmt.Errorf("%w: edge target %q", errUnknownComponent, to)
	}
	if bandwidthMbps < 0 {
		return fmt.Errorf("dag: negative bandwidth %v on edge %s->%s", bandwidthMbps, from, to)
	}
	for _, e := range g.out[from] {
		if e.To == to {
			return fmt.Errorf("%w: %s->%s", errDuplicateEdge, from, to)
		}
	}
	e := Edge{From: from, To: to, BandwidthMbps: bandwidthMbps}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	return nil
}

// MustAddEdge adds an edge and panics on error.
func (g *Graph) MustAddEdge(from, to string, bandwidthMbps float64) {
	if err := g.AddEdge(from, to, bandwidthMbps); err != nil {
		panic(err)
	}
}

// Component returns the named component.
func (g *Graph) Component(name string) (*Component, error) {
	c, ok := g.components[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownComponent, name)
	}
	return c, nil
}

// HasComponent reports whether the named component exists.
func (g *Graph) HasComponent(name string) bool {
	_, ok := g.components[name]
	return ok
}

// Components returns all component names in insertion order.
func (g *Graph) Components() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// NumComponents reports the number of components.
func (g *Graph) NumComponents() int { return len(g.components) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// Out returns the outgoing edges of a component, in insertion order.
func (g *Graph) Out(name string) []Edge {
	es := g.out[name]
	out := make([]Edge, len(es))
	copy(out, es)
	return out
}

// Edges returns all edges, grouped by source in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for _, name := range g.order {
		out = append(out, g.out[name]...)
	}
	return out
}

// Weight returns the bandwidth requirement on edge from→to, or 0 if absent.
func (g *Graph) Weight(from, to string) float64 {
	for _, e := range g.out[from] {
		if e.To == to {
			return e.BandwidthMbps
		}
	}
	return 0
}

// Neighbors returns the undirected neighbor set of a component with the
// bandwidth on the connecting edge (used by migration logic, which cares
// about traffic in either direction).
func (g *Graph) Neighbors(name string) map[string]float64 {
	out := make(map[string]float64)
	for _, e := range g.out[name] {
		out[e.To] += e.BandwidthMbps
	}
	for _, e := range g.in[name] {
		out[e.From] += e.BandwidthMbps
	}
	return out
}

// TopoSort returns the components in topological order. Ties are broken by
// insertion order so results are deterministic. It returns errCycle if the
// graph is not a DAG and errEmptyGraph if it has no components.
func (g *Graph) TopoSort() ([]string, error) {
	if len(g.components) == 0 {
		return nil, errEmptyGraph
	}
	indeg := make(map[string]int, len(g.components))
	for _, name := range g.order {
		indeg[name] = len(g.in[name])
	}
	// Ready queue kept in insertion order for determinism.
	pos := make(map[string]int, len(g.order))
	for i, name := range g.order {
		pos[name] = i
	}
	var ready []string
	for _, name := range g.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	out := make([]string, 0, len(g.components))
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
		cur := ready[0]
		ready = ready[1:]
		out = append(out, cur)
		for _, e := range g.out[cur] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(out) != len(g.components) {
		return nil, errCycle
	}
	return out, nil
}

// Validate checks that the graph is a non-empty DAG with positive resource
// requests.
func (g *Graph) Validate() error {
	if len(g.components) == 0 {
		return errEmptyGraph
	}
	for _, name := range g.order {
		c := g.components[name]
		if c.CPU < 0 {
			return fmt.Errorf("dag: component %q has negative CPU %v", name, c.CPU)
		}
		if c.MemoryMB < 0 {
			return fmt.Errorf("dag: component %q has negative memory %v", name, c.MemoryMB)
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}
