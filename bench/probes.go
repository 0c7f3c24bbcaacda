package main

import (
	"io"
	"time"

	"bass/internal/netmon"
	"bass/internal/obs"
	"bass/internal/scheduler"
	"bass/internal/sim"
	"bass/internal/simnet"
	"bass/internal/trace"
)

// probeBudget caps the wall time one probe may take: calls repeat until the
// budget is spent or maxCalls is reached, whichever is first.
const probeBudget = 40 * time.Millisecond

// timeCalls runs fn repeatedly (at least once, at most maxCalls times, for
// about probeBudget) and returns the mean nanoseconds per call.
func timeCalls(maxCalls int, fn func()) float64 {
	start := time.Now()
	n := 0
	for n < maxCalls {
		fn()
		n++
		if n%8 == 0 && time.Since(start) > probeBudget {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// countingDiscard is io.Discard that remembers how much it was given.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// runProbes times calls into each layer's public functions on the run's warm
// state, after the horizon and after the digest — probes may disturb state
// (they bump the availability epoch, add probe series) but nothing they
// disturb is reported or digested afterwards.
func runProbes(in *instance, res *repResult) {
	v := res.Values

	// sim: dispatch cost of a no-op event on a fresh engine.
	const dispatchN = 200_000
	eng := sim.NewEngine(1)
	noop := func() {}
	t0 := time.Now()
	for i := 0; i < dispatchN; i++ {
		eng.At(time.Duration(i)*time.Microsecond, noop)
	}
	_ = eng.Run(time.Hour)
	v["sim.dispatch_ns"] = float64(time.Since(t0).Nanoseconds()) / dispatchN

	// trace: generate one calibrated link trace at the workload horizon, then
	// walk a topology link's change-points the way simnet's chain does.
	cfg := trace.CityLabVolatile(res.Seed)
	cfg.Duration = in.horizon
	v["trace.gen_ms"] = timeCalls(64, func() { _, _ = trace.Generate("probe", cfg) }) / 1e6
	links := in.topo.Links()
	if len(links) > 0 {
		steps := 0
		v["trace.walk_ns"] = timeCalls(1<<20, func() {
			tr := links[steps%len(links)].CapacityFwd()
			_, _ = tr.NextChangeAfter(time.Duration(steps/len(links)) * time.Second)
			steps++
		})
	}

	// Sample node pairs the workload actually routes between.
	pairs := in.probePairs(256)
	bump := func() {
		// An availability flip and its undo: two epoch bumps, same graph.
		l := links[0].ID
		_ = in.topo.SetLinkUp(l.A, l.B, false)
		_ = in.topo.SetLinkUp(l.A, l.B, true)
	}

	if len(pairs) > 0 && len(links) > 0 {
		// mesh: cached Route, then Route right after an epoch bump.
		i := 0
		for _, p := range pairs {
			_, _ = in.topo.Route(p[0], p[1])
		}
		v["mesh.route_warm_ns"] = timeCalls(1<<20, func() {
			_, _ = in.topo.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
			i++
		})
		bump()
		t0 = time.Now()
		for _, p := range pairs {
			_, _ = in.topo.Route(p[0], p[1])
		}
		v["mesh.route_cold_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(pairs))

		// simnet: the reads apps and the controller issue per request/edge.
		i = 0
		v["simnet.query_ns"] = timeCalls(1<<16, func() {
			p := pairs[i%len(pairs)]
			_, _ = in.net.PathAllocatedMbps(p[0], p[1], 1)
			_, _ = in.net.PathLatencyOf(p[0], p[1])
			_ = in.net.FlowRateByTag("scale/0")
			i++
		})
		// simnet: one stream added and removed outside a Batch — two
		// reallocation requests on the loaded network.
		i = 0
		v["simnet.flow_churn_us"] = timeCalls(256, func() {
			p := pairs[i%len(pairs)]
			if id, err := in.net.AddStream("bench/probe", p[0], p[1], 0.25); err == nil {
				_ = in.net.RemoveStream(id)
			}
			i++
		}) / 1e3
	}

	// obs: Append on a full default-capacity ring (the steady state of every
	// observed workload), and JSONL encoding of the run's own journal.
	j := obs.NewJournal(0)
	ev := obs.Event{Type: obs.EventProbeHeadroom, Link: "a-b", Value: 1}
	for i := 0; i < obs.DefaultJournalCapacity; i++ {
		j.Append(ev)
	}
	v["obs.append_ns"] = timeCalls(1<<20, func() { j.Append(ev) })
	if in.journal != nil && in.journal.Len() > 0 {
		var sink countingDiscard
		t0 = time.Now()
		_ = in.journal.WriteJSONL(&sink)
		v["obs.jsonl_mb_s"] = float64(sink.n) / 1e6 / time.Since(t0).Seconds()
	}

	if in.store != nil {
		now := time.Unix(0, 0).UTC().Add(in.horizon)
		h := in.store.Handle("bench_probe", nil)
		v["metricstore.append_ns"] = timeCalls(1<<20, func() { h.Append(now, 1) })
		sel := map[string]string{"app": in.graphs[0].AppName}
		v["metricstore.aggover_us"] = timeCalls(4096, func() {
			_, _ = in.store.AggOver(obs.MetricDepGoodput, sel, now, time.Hour)
		}) / 1e3
		v["metricstore.prom_ms"] = timeCalls(8, func() { _ = in.store.WritePrometheus(io.Discard) }) / 1e6
	}

	if in.sim == nil {
		return
	}
	orch := in.sim.Orch
	mon := orch.Monitor()

	// netmon: one sweep, then the path oracle warm and right after a bump.
	v["netmon.sweep_ms"] = timeCalls(64, func() { _, _ = mon.HeadroomProbeAll() }) / 1e6
	if len(pairs) > 0 && len(links) > 0 {
		reqs := make([]netmon.PathRequest, len(pairs))
		for i, p := range pairs {
			reqs[i] = netmon.PathRequest{Src: p[0], Dst: p[1]}
		}
		out := mon.PathMetricsBatch(reqs, nil)
		v["netmon.path_hit_ns"] = timeCalls(1<<14, func() { out = mon.PathMetricsBatch(reqs, out) }) / float64(len(reqs))
		bump()
		t0 = time.Now()
		out = mon.PathMetricsBatch(reqs, out)
		v["netmon.path_miss_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(reqs))
	}

	// scheduler: migration-target scoring for sampled movable components,
	// with the run's node view and path query.
	clus := in.sim.Cluster
	var nodes []scheduler.NodeInfo
	for _, name := range clus.SchedulableNodes() {
		n, err := clus.Node(name)
		if err != nil {
			continue
		}
		nodes = append(nodes, scheduler.NodeInfo{
			Name: name, FreeCPU: clus.FreeCPU(name), FreeMemoryMB: clus.FreeMemoryMB(name),
			TotalCPU: n.CPU, TotalMemoryMB: n.MemoryMB, LinkCapacityMbps: mon.NodeLinkCapacityMbps(name),
		})
	}
	pathAvail := func(a, b string) float64 {
		spare, networked, err := mon.PathSpareMbps(a, b)
		if err != nil {
			return 0
		}
		if !networked {
			return simnet.LocalMbps
		}
		return spare
	}
	type movable struct {
		g          int
		comp       string
		assignment scheduler.Assignment
	}
	var sample []movable
	for gi, g := range in.graphs {
		if len(sample) >= 32 {
			break
		}
		asg := make(scheduler.Assignment)
		for _, c := range g.Components() {
			if node := clus.NodeOf(g.AppName, c); node != "" {
				asg[c] = node
			}
		}
		for _, c := range g.Components() {
			comp, err := g.Component(c)
			if err != nil || comp.PinnedTo() != "" || asg[c] == "" {
				continue
			}
			sample = append(sample, movable{g: gi, comp: c, assignment: asg})
			break
		}
	}
	if len(sample) > 0 {
		mcfg := orch.Controller().Config().Migration
		i := 0
		v["scheduler.target_scan_us"] = timeCalls(4096, func() {
			m := sample[i%len(sample)]
			_, _ = scheduler.ChooseMigrationTarget(in.graphs[m.g], m.comp, m.assignment, nodes, pathAvail, mcfg)
			i++
		}) / 1e3

		// cluster: move one sampled component to another node that fits, and
		// back.
		m := sample[0]
		app := in.graphs[m.g].AppName
		home := m.assignment[m.comp]
		if pl, err := clus.PlacementOf(app, m.comp); err == nil {
			for _, n := range nodes {
				if n.Name != home && clus.Fits(n.Name, pl.CPU, pl.MemoryMB) {
					v["cluster.move_ns"] = timeCalls(1<<16, func() {
						_ = clus.Move(app, m.comp, n.Name)
						_ = clus.Move(app, m.comp, home)
					}) / 2
					break
				}
			}
		}
	}

	if rec := orch.Reconciler(); rec != nil && rec.Converged() {
		v["reconcile.tick_quiet_ns"] = timeCalls(1<<14, rec.Tick)
	}
	if ev := orch.SLO(); ev != nil {
		v["slo.tick_ms"] = timeCalls(16, ev.Tick) / 1e6
	}
}

// probePairs samples up to max node pairs the workload routes between: its
// own streams' endpoints, or the endpoints of deployed cross-node edges.
func (in *instance) probePairs(max int) [][2]string {
	var pairs [][2]string
	if in.sim != nil {
		for _, e := range in.edges {
			a, b := in.sim.Cluster.NodeOf(e.app, e.from), in.sim.Cluster.NodeOf(e.app, e.to)
			if a != "" && b != "" && a != b {
				pairs = append(pairs, [2]string{a, b})
			}
			if len(pairs) == max {
				return pairs
			}
		}
		return pairs
	}
	// city-flows: walk grid nodes two apart, the population's typical hop.
	nodes := in.topo.Nodes()
	for i := 0; i+2 < len(nodes) && len(pairs) < max; i += len(nodes)/max + 1 {
		pairs = append(pairs, [2]string{nodes[i], nodes[i+2]})
	}
	return pairs
}
