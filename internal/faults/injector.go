package faults

import (
	"bass/internal/mesh"
	"bass/internal/sim"
)

// Target is the substrate fault events act on. core.Simulation implements it
// over the mesh topology and flow-level network; tests may substitute fakes.
type Target interface {
	// NodeDown crashes a node: all its links lose capacity, flows through it
	// are rerouted or stranded, and probes of its links fail.
	NodeDown(name string)
	// NodeUp recovers a crashed node.
	NodeUp(name string)
	// LinkDown takes one link to zero capacity.
	LinkDown(id mesh.LinkID)
	// LinkUp restores a downed link to its trace-driven capacity.
	LinkUp(id mesh.LinkID)
	// SetProbeLoss makes probes of the link fail (lossy=true) or succeed
	// again, without touching data-plane capacity.
	SetProbeLoss(id mesh.LinkID, lossy bool)
}

// Injector schedules a fault schedule's events onto a simulation engine and
// records what it applied.
type Injector struct {
	applied []Event
}

// Inject arms every event of the schedule on the engine. Events at the same
// virtual time fire in schedule order (the engine's same-time tie-break is
// scheduling order). The caller should Validate the schedule against the
// topology first; unknown elements are skipped by the Target's own checks.
func Inject(eng *sim.Engine, s *Schedule, target Target) *Injector {
	inj := &Injector{}
	for _, e := range s.Events {
		e := e
		eng.At(e.At(), func() {
			inj.apply(e, target)
		})
	}
	return inj
}

func (inj *Injector) apply(e Event, target Target) {
	switch e.Type {
	case NodeCrash:
		target.NodeDown(e.Node)
	case NodeRecover:
		target.NodeUp(e.Node)
	case LinkDown:
		target.LinkDown(e.Link())
	case LinkUp:
		target.LinkUp(e.Link())
	case ProbeLossStart:
		target.SetProbeLoss(e.Link(), true)
	case ProbeLossEnd:
		target.SetProbeLoss(e.Link(), false)
	default:
		return
	}
	inj.applied = append(inj.applied, e)
}

// Applied returns the events that have fired so far, in application order.
func (inj *Injector) Applied() []Event {
	out := make([]Event, len(inj.applied))
	copy(out, inj.applied)
	return out
}
