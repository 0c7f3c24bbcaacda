package core

import (
	"fmt"
	"time"

	"bass/internal/cluster"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/sim"
	"bass/internal/simnet"
)

// Simulation bundles an engine, topology, network, cluster, and orchestrator
// into one runnable experiment, the way a CloudLab cluster bundles VMs, tc
// rules, and the k3s control plane in the paper's evaluation.
type Simulation struct {
	Eng     *sim.Engine
	Topo    *mesh.Topology
	Net     *simnet.Network
	Cluster *cluster.Cluster
	Orch    *Orchestrator

	stopNet func()
}

// NewSimulation wires a simulation. Every node in nodes must exist in the
// topology, and EnableSLO needs EnableMigration: the SLO evaluator ticks only
// inside the control loop, which migration starts, so without it it would
// never run. The network's capacity ticks and the orchestrator's startup
// probing round are armed; run with Run.
func NewSimulation(topo *mesh.Topology, nodes []cluster.Node, seed int64, cfg Config) (*Simulation, error) {
	if cfg.EnableSLO && !cfg.EnableMigration {
		return nil, fmt.Errorf("core: EnableSLO needs EnableMigration; the SLO evaluator ticks only at the end of a control cycle")
	}
	for _, n := range nodes {
		if !topo.HasNode(n.Name) {
			return nil, fmt.Errorf("core: cluster node %q not in topology", n.Name)
		}
	}
	clus, err := cluster.New(nodes...)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(seed)
	net := simnet.New(eng, topo)
	orch := newOrchestrator(eng, topo, net, clus, cfg)
	s := &Simulation{
		Eng:     eng,
		Topo:    topo,
		Net:     net,
		Cluster: clus,
		Orch:    orch,
	}
	s.stopNet = net.Start()
	if err := orch.Bootstrap(); err != nil {
		return nil, err
	}
	return s, nil
}

// Run advances virtual time to the horizon.
func (s *Simulation) Run(until time.Duration) error {
	return s.Eng.Run(until)
}

// AttachObservability wires a decision journal and metric store into the
// orchestration stack (see Orchestrator.AttachObservability). Attach before
// Run so the journal covers the whole horizon; the startup probing round has
// already happened by the time NewSimulation returns, so journals begin with
// the first monitoring sweep.
func (s *Simulation) AttachObservability(journal *obs.Journal, store *metricstore.Store) *obs.Plane {
	return s.Orch.AttachObservability(journal, store)
}

// InjectFaults validates a fault schedule against the topology and arms its
// events on the engine, with the simulation itself as the fault target.
func (s *Simulation) InjectFaults(sched *faults.Schedule) (*faults.Injector, error) {
	if err := sched.Validate(s.Topo); err != nil {
		return nil, err
	}
	return faults.Inject(s.Eng, sched, s), nil
}

// The Simulation is the faults.Target: events flip availability in the
// topology, then ApplyTopologyState propagates the change to the data plane
// (zeroed capacities, rerouted flows, parked streams, failed transfers).
// Detection and failover happen through the regular monitoring path — the
// orchestrator learns of a crash the way a real control plane does, from
// probes failing, never from the injector telling it.

// applyFault journals the injected fault and propagates the availability
// change to the data plane under its cause span, so the flow disruptions the
// reroute produces (parked streams, failed transfers) cite the fault that
// caused them.
func (s *Simulation) applyFault(ev obs.Event) {
	span := s.Orch.plane.EmitSpan(ev)
	s.Net.SetCause(span)
	s.Net.ApplyTopologyState()
	s.Net.SetCause(0)
}

// NodeDown implements faults.Target.
func (s *Simulation) NodeDown(name string) {
	if err := s.Topo.SetNodeUp(name, false); err != nil {
		return
	}
	s.applyFault(obs.Event{Type: obs.EventFault, Node: name, Reason: "node_down"})
}

// NodeUp implements faults.Target.
func (s *Simulation) NodeUp(name string) {
	if err := s.Topo.SetNodeUp(name, true); err != nil {
		return
	}
	s.applyFault(obs.Event{Type: obs.EventFault, Node: name, Reason: "node_up"})
}

// LinkDown implements faults.Target.
func (s *Simulation) LinkDown(id mesh.LinkID) {
	if err := s.Topo.SetLinkUp(id.A, id.B, false); err != nil {
		return
	}
	s.applyFault(obs.Event{Type: obs.EventFault, Link: id.String(), Reason: "link_down"})
}

// LinkUp implements faults.Target.
func (s *Simulation) LinkUp(id mesh.LinkID) {
	if err := s.Topo.SetLinkUp(id.A, id.B, true); err != nil {
		return
	}
	s.applyFault(obs.Event{Type: obs.EventFault, Link: id.String(), Reason: "link_up"})
}

// SetProbeLoss implements faults.Target.
func (s *Simulation) SetProbeLoss(id mesh.LinkID, lossy bool) {
	s.Net.SetProbeLoss(id, lossy)
}

// Close stops periodic activity (network ticks, controller loop).
func (s *Simulation) Close() {
	s.Orch.Stop()
	if s.stopNet != nil {
		s.stopNet()
		s.stopNet = nil
	}
}
