// Package cluster models the compute side of a community mesh: heterogeneous
// nodes (Raspberry Pis through server-class machines) with CPU and memory
// capacity, and the allocation bookkeeping the scheduler packs components
// into. Link capacities live in package mesh; the scheduler combines both.
//
// Placements live in one per-app index whose component names are kept sorted
// on every Place, Remove and Move, so the per-app reads (AppComponents,
// ComponentsOn, NodeOf, PlacementOf) cost O(components of the app), never a
// walk over the whole cluster. AppComponents hands out the index's own list:
// it is valid only until the next mutation.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Sentinel errors for allocation.
var (
	ErrUnknownNode       = errors.New("cluster: unknown node")
	ErrDuplicateNode     = errors.New("cluster: duplicate node")
	ErrInsufficient      = errors.New("cluster: insufficient resources")
	ErrAlreadyPlaced     = errors.New("cluster: component already placed")
	ErrNotPlaced         = errors.New("cluster: component not placed")
	ErrNodeUnschedulable = errors.New("cluster: node unschedulable")
	ErrNodeCordoned      = errors.New("cluster: node cordoned")
)

// Node describes one compute node.
type Node struct {
	// Name uniquely identifies the node; it must match the mesh vertex name.
	Name string
	// CPU is the total number of cores.
	CPU float64
	// MemoryMB is the total memory in megabytes.
	MemoryMB float64
	// Unschedulable marks control-plane nodes that must not run components.
	Unschedulable bool
}

// Placement records where one component runs.
type Placement struct {
	App       string
	Component string
	Node      string
	CPU       float64
	MemoryMB  float64
}

// appIndex holds one application's placements sorted by component name:
// names[i] is placements[i].Component. Every insert and delete keeps both
// sorted, so a component lookup is a binary search and per-app reads cost
// O(components of the app), with no walk over other apps and no sort.
type appIndex struct {
	names      []string
	placements []Placement
}

// Cluster tracks nodes and current component placements. It is not safe for
// concurrent use; the orchestrator serialises access.
type Cluster struct {
	nodes   map[string]Node
	order   []string
	usedCPU map[string]float64
	usedMem map[string]float64
	// apps is the one placement index: every placement read is served from
	// it, with no key concatenation; Placements walks it in sorted app order.
	apps map[string]*appIndex

	// cordoned marks nodes temporarily closed to new placements (crashed or
	// suspected down). Unlike Node.Unschedulable — a static property of
	// control-plane hosts — cordons come and go at runtime and block even
	// zero-resource placements: nothing can land on a dead machine.
	cordoned map[string]bool
}

// New returns a cluster with the given nodes.
func New(nodes ...Node) (*Cluster, error) {
	c := &Cluster{
		nodes:    make(map[string]Node, len(nodes)),
		usedCPU:  make(map[string]float64, len(nodes)),
		usedMem:  make(map[string]float64, len(nodes)),
		apps:     make(map[string]*appIndex),
		cordoned: make(map[string]bool),
	}
	for _, n := range nodes {
		if err := c.AddNode(n); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustNew is New for statically known clusters; it panics on error.
func MustNew(nodes ...Node) *Cluster {
	c, err := New(nodes...)
	if err != nil {
		panic(err)
	}
	return c
}

// AddNode registers a node.
func (c *Cluster) AddNode(n Node) error {
	if n.Name == "" {
		return errors.New("cluster: node with empty name")
	}
	if _, ok := c.nodes[n.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, n.Name)
	}
	if n.CPU < 0 || n.MemoryMB < 0 {
		return fmt.Errorf("cluster: node %q has negative capacity", n.Name)
	}
	c.nodes[n.Name] = n
	c.order = append(c.order, n.Name)
	return nil
}

// Node returns the named node.
func (c *Cluster) Node(name string) (Node, error) {
	n, ok := c.nodes[name]
	if !ok {
		return Node{}, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	return n, nil
}

// Nodes returns node names in insertion order.
func (c *Cluster) Nodes() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// SchedulableNodes returns names of nodes that may run components, excluding
// cordoned ones.
func (c *Cluster) SchedulableNodes() []string {
	return c.SchedulableNodesInto(nil)
}

// SchedulableNodesInto appends schedulable node names to buf (reusing its
// capacity) and returns it — the allocation-free variant of SchedulableNodes
// for the controller's per-cycle node snapshot.
func (c *Cluster) SchedulableNodesInto(buf []string) []string {
	for _, name := range c.order {
		if !c.nodes[name].Unschedulable && !c.cordoned[name] {
			buf = append(buf, name)
		}
	}
	return buf
}

// Cordon closes a node to new placements. Existing placements stay recorded
// (the orchestrator decides what to evacuate); cordoning an already-cordoned
// node is a no-op.
func (c *Cluster) Cordon(name string) error {
	if _, ok := c.nodes[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	c.cordoned[name] = true
	return nil
}

// Uncordon reopens a node to placements.
func (c *Cluster) Uncordon(name string) error {
	if _, ok := c.nodes[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	delete(c.cordoned, name)
	return nil
}

// Cordoned reports whether a node is currently cordoned.
func (c *Cluster) Cordoned(name string) bool { return c.cordoned[name] }

// FreeCPU reports unallocated cores on a node (0 for unknown nodes).
func (c *Cluster) FreeCPU(node string) float64 {
	n, ok := c.nodes[node]
	if !ok {
		return 0
	}
	return n.CPU - c.usedCPU[node]
}

// FreeMemoryMB reports unallocated memory on a node (0 for unknown nodes).
func (c *Cluster) FreeMemoryMB(node string) float64 {
	n, ok := c.nodes[node]
	if !ok {
		return 0
	}
	return n.MemoryMB - c.usedMem[node]
}

// Fits reports whether a request of (cpu, memMB) fits on the node right now.
// Zero-resource requests fit anywhere, including unschedulable hosts.
func (c *Cluster) Fits(node string, cpu, memMB float64) bool {
	n, ok := c.nodes[node]
	if !ok {
		return false
	}
	if c.cordoned[node] {
		return false
	}
	if n.Unschedulable {
		return cpu == 0 && memMB == 0
	}
	const eps = 1e-9
	return c.FreeCPU(node)+eps >= cpu && c.FreeMemoryMB(node)+eps >= memMB
}

// Place allocates a component onto a node.
func (c *Cluster) Place(p Placement) error {
	n, ok := c.nodes[p.Node]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, p.Node)
	}
	if c.cordoned[p.Node] {
		return fmt.Errorf("%w: %q", ErrNodeCordoned, p.Node)
	}
	if n.Unschedulable && (p.CPU > 0 || p.MemoryMB > 0) {
		// Zero-resource placements model external endpoints (load
		// generators, conference participants) that live on hosts the
		// scheduler cannot use.
		return fmt.Errorf("%w: %q", ErrNodeUnschedulable, p.Node)
	}
	idx, i, placed := c.lookup(p.App, p.Component)
	if placed {
		return fmt.Errorf("%w: %s/%s", ErrAlreadyPlaced, p.App, p.Component)
	}
	if !c.Fits(p.Node, p.CPU, p.MemoryMB) {
		return fmt.Errorf("%w: %s/%s needs cpu=%.2f mem=%.0fMB on %q (free cpu=%.2f mem=%.0fMB)",
			ErrInsufficient, p.App, p.Component, p.CPU, p.MemoryMB, p.Node, c.FreeCPU(p.Node), c.FreeMemoryMB(p.Node))
	}
	c.usedCPU[p.Node] += p.CPU
	c.usedMem[p.Node] += p.MemoryMB
	if idx == nil {
		idx = &appIndex{}
		c.apps[p.App] = idx
	}
	idx.names = slices.Insert(idx.names, i, p.Component)
	idx.placements = slices.Insert(idx.placements, i, p)
	return nil
}

// lookup finds a component in the index: its app's entry (nil if the app has
// nothing placed) and its slot there, or the slot it would be inserted at.
func (c *Cluster) lookup(app, component string) (idx *appIndex, i int, ok bool) {
	if idx = c.apps[app]; idx != nil {
		i, ok = slices.BinarySearch(idx.names, component)
	}
	return idx, i, ok
}

// Remove deallocates a component.
func (c *Cluster) Remove(app, component string) error {
	idx, i, ok := c.lookup(app, component)
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotPlaced, app, component)
	}
	p := idx.placements[i]
	c.usedCPU[p.Node] -= p.CPU
	c.usedMem[p.Node] -= p.MemoryMB
	if len(idx.names) == 1 {
		delete(c.apps, app)
		return nil
	}
	idx.names = slices.Delete(idx.names, i, i+1)
	idx.placements = slices.Delete(idx.placements, i, i+1)
	return nil
}

// Move relocates a placed component to another node, atomically: on failure
// the original placement is restored.
func (c *Cluster) Move(app, component, toNode string) error {
	p, err := c.PlacementOf(app, component)
	if err != nil {
		return err
	}
	if err := c.Remove(app, component); err != nil {
		return err
	}
	moved := p
	moved.Node = toNode
	if err := c.Place(moved); err != nil {
		// Restore; the original slot is guaranteed free.
		if rerr := c.Place(p); rerr != nil {
			return fmt.Errorf("cluster: restore after failed move: %v (original error: %w)", rerr, err)
		}
		return err
	}
	return nil
}

// PlacementOf returns the placement of a component.
func (c *Cluster) PlacementOf(app, component string) (Placement, error) {
	idx, i, ok := c.lookup(app, component)
	if !ok {
		return Placement{}, fmt.Errorf("%w: %s/%s", ErrNotPlaced, app, component)
	}
	return idx.placements[i], nil
}

// NodeOf returns the node a component runs on, or "" if not placed.
// Served from the per-app index: one map lookup and a binary search over the
// app's components, no allocation.
func (c *Cluster) NodeOf(app, component string) string {
	if idx, i, ok := c.lookup(app, component); ok {
		return idx.placements[i].Node
	}
	return ""
}

// Placements returns all placements sorted by (app, component).
func (c *Cluster) Placements() []Placement {
	apps := make([]string, 0, len(c.apps))
	total := 0
	for app, idx := range c.apps {
		apps = append(apps, app)
		total += len(idx.placements)
	}
	sort.Strings(apps)
	out := make([]Placement, 0, total)
	for _, app := range apps {
		out = append(out, c.apps[app].placements...)
	}
	return out
}

// AppComponents returns every placed component of app, sorted — the
// reconciler's observed-state view of one application. The slice is the
// index's own sorted list, not a copy: it is valid until the next Place,
// Remove or Move on the cluster, and must not be modified. A caller that
// mutates the cluster while walking it must walk a copy.
func (c *Cluster) AppComponents(app string) []string {
	idx := c.apps[app]
	if idx == nil {
		return nil
	}
	return idx.names[:len(idx.names):len(idx.names)]
}

// ComponentsOn returns the components of app placed on node, sorted. The
// slice is freshly allocated, so callers may mutate the cluster while
// walking it.
func (c *Cluster) ComponentsOn(app, node string) []string {
	idx := c.apps[app]
	if idx == nil {
		return nil
	}
	var out []string
	for _, p := range idx.placements {
		if p.Node == node {
			out = append(out, p.Component)
		}
	}
	return out
}

// Utilization summarises one node's allocation state.
type Utilization struct {
	Node     string
	CPUUsed  float64
	CPUTotal float64
	MemUsed  float64
	MemTotal float64
}

// Utilizations returns per-node allocation summaries in insertion order.
func (c *Cluster) Utilizations() []Utilization {
	out := make([]Utilization, 0, len(c.order))
	for _, name := range c.order {
		n := c.nodes[name]
		out = append(out, Utilization{
			Node:     name,
			CPUUsed:  c.usedCPU[name],
			CPUTotal: n.CPU,
			MemUsed:  c.usedMem[name],
			MemTotal: n.MemoryMB,
		})
	}
	return out
}

// Clone returns a deep copy of the cluster, including placements. Schedulers
// use clones for what-if packing before committing.
func (c *Cluster) Clone() *Cluster {
	out := &Cluster{
		nodes:    make(map[string]Node, len(c.nodes)),
		order:    append([]string(nil), c.order...),
		usedCPU:  make(map[string]float64, len(c.usedCPU)),
		usedMem:  make(map[string]float64, len(c.usedMem)),
		apps:     make(map[string]*appIndex, len(c.apps)),
		cordoned: make(map[string]bool, len(c.cordoned)),
	}
	for k, v := range c.cordoned {
		out.cordoned[k] = v
	}
	for k, v := range c.nodes {
		out.nodes[k] = v
	}
	for k, v := range c.usedCPU {
		out.usedCPU[k] = v
	}
	for k, v := range c.usedMem {
		out.usedMem[k] = v
	}
	for app, idx := range c.apps {
		out.apps[app] = &appIndex{names: slices.Clone(idx.names), placements: slices.Clone(idx.placements)}
	}
	return out
}
