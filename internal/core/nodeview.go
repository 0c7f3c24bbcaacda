package core

import (
	"bass/internal/cluster"
	"bass/internal/scheduler"
)

// nodeView is the scheduler's view of every schedulable node: the nodes
// argument of every placement, migration and failover choice, in one
// reused buffer with a name → position index. The orchestrator's own
// placement changes (place, remove, move) patch it, recomputing only the
// entries of the nodes whose usage changed. It is rebuilt whole on its
// first read, after the orchestrator cordons or uncordons a node (the
// orchestrator adds no nodes after construction), when a full probe may have
// changed a link capacity, and when the cluster's placement epoch moved
// without the orchestrator (a caller placing through Simulation.Cluster
// directly). Cordons and uncordons must go through the orchestrator: a
// direct Simulation.Cluster.Cordon moves neither counter, so the view would
// keep offering the node.
type nodeView struct {
	infos []scheduler.NodeInfo
	pos   map[string]int // node name → index in infos
	names []string       // SchedulableNodesInto scratch
	// built is false until the first rebuild and again after the node set
	// changes; a view that is not built is never current.
	built bool
	// placeEpoch and fullProbes are the cluster's placement epoch and the
	// monitor's successful full-probe count the entries reflect.
	placeEpoch uint64
	fullProbes int
}

// nodeInfos returns the scheduler's view of the cluster, rebuilding it
// first when it is not current. The view is valid until the next placement
// change: no policy or chooser keeps its nodes argument past returning.
func (o *Orchestrator) nodeInfos() []scheduler.NodeInfo {
	if !o.viewCurrent() {
		o.rebuildView()
	}
	return o.view.infos
}

// viewCurrent reports whether every view entry reflects the cluster and
// monitor as they are now.
func (o *Orchestrator) viewCurrent() bool {
	v := &o.view
	return v.built && v.placeEpoch == o.clus.PlacementEpoch() &&
		v.fullProbes == o.monitor.Stats().FullProbes
}

// rebuildView recomputes every entry and the position index.
func (o *Orchestrator) rebuildView() {
	v := &o.view
	v.infos = o.appendNodeInfos(v.infos[:0])
	if v.pos == nil {
		v.pos = make(map[string]int, len(v.infos))
	}
	clear(v.pos)
	for i := range v.infos {
		v.pos[v.infos[i].Name] = i
	}
	v.built = true
	v.placeEpoch = o.clus.PlacementEpoch()
	v.fullProbes = o.monitor.Stats().FullProbes
}

// appendNodeInfos appends the scheduler's view of every schedulable node to
// out, reusing its capacity.
func (o *Orchestrator) appendNodeInfos(out []scheduler.NodeInfo) []scheduler.NodeInfo {
	o.view.names = o.clus.SchedulableNodesInto(o.view.names[:0])
	for _, name := range o.view.names {
		if info, ok := o.nodeInfo(name); ok {
			out = append(out, info)
		}
	}
	return out
}

// nodeInfo computes one node's view entry; false for a node the cluster
// does not know.
func (o *Orchestrator) nodeInfo(name string) (scheduler.NodeInfo, bool) {
	n, err := o.clus.Node(name)
	if err != nil {
		return scheduler.NodeInfo{}, false
	}
	free := o.clus.FreeCPU(name) - o.cfg.ReservedCPU
	if free < 0 {
		free = 0
	}
	total := n.CPU - o.cfg.ReservedCPU
	if total < 0 {
		total = 0
	}
	return scheduler.NodeInfo{
		Name:             name,
		FreeCPU:          free,
		FreeMemoryMB:     o.clus.FreeMemoryMB(name),
		TotalCPU:         total,
		TotalMemoryMB:    n.MemoryMB,
		LinkCapacityMbps: o.monitor.NodeLinkCapacityMbps(name),
	}, true
}

// patchView recomputes the entries of nodes a and b (either may be empty or
// outside the view) after an orchestrator placement change that moved the
// cluster's placement epoch from before. A view that was not current before
// the change is left for the next read to rebuild.
func (o *Orchestrator) patchView(before uint64, a, b string) {
	v := &o.view
	if !v.built || v.placeEpoch != before || v.fullProbes != o.monitor.Stats().FullProbes {
		return
	}
	for _, name := range [2]string{a, b} {
		if i, ok := v.pos[name]; ok {
			v.infos[i], _ = o.nodeInfo(name)
		}
	}
	v.placeEpoch = o.clus.PlacementEpoch()
}

// place, remove and move are the orchestrator's placement changes: each
// commits to the cluster, then patches the node view's entries for the
// nodes it touched, whether or not the change succeeded.
func (o *Orchestrator) place(p cluster.Placement) error {
	before := o.clus.PlacementEpoch()
	err := o.clus.Place(p)
	o.patchView(before, p.Node, "")
	return err
}

func (o *Orchestrator) remove(app, comp string) error {
	node := o.clus.NodeOf(app, comp)
	before := o.clus.PlacementEpoch()
	err := o.clus.Remove(app, comp)
	o.patchView(before, node, "")
	return err
}

func (o *Orchestrator) move(app, comp, to string) error {
	from := o.clus.NodeOf(app, comp)
	before := o.clus.PlacementEpoch()
	err := o.clus.Move(app, comp, to)
	o.patchView(before, from, to)
	return err
}
